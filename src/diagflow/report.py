"""Diagnostics assembly and CSV output.

The diagnostics file is a single flat CSV with columns
``section,metric,value``. Every CSV of the package, trajectories included,
goes through ``write_rows_csv``, which prints numbers with ``%.17g`` so
repeated runs are byte-identical. A trajectory CSV is written either at
once from a ``Trajectory`` (``write_trajectory_csv``) or, while the flow
runs, by a forked ``TrajectoryCsvProcess``; both lay out its columns and
rows by ``_trajectory_header`` and ``_trajectory_rows`` and give the same
bytes.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import tempfile
from dataclasses import dataclass

import numpy as np

from . import conservation as cons
from . import mirror as mir
from . import paramcheck as pc
from .flow import Trajectory

# Pipe capacity asked for a ``TrajectoryCsvProcess``: ~290 rows at L=5,
# d=64, so that the flow does not wait on the writer's jitter, nor the
# writer on the flow's (the default 64 KiB holds 18).
_PIPE_BYTES = 1 << 20
_NOT_AN_OS_ERROR = 255  # the writer's exit status for any other failure


def write_rows_csv(path, header, rows) -> None:
    """Write rows as UTF-8 CSV: text cells as they are, numbers with %.17g.

    The first row's cell types fix the format of every row.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        line = None
        for row in rows:
            if line is None:
                line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in row) + "\n"
            fh.write(line % tuple(row))


def _trajectory_header(dim: int, num_layers: int) -> list[str]:
    """``t,loss,theta_1..theta_d,xi_1..xi_d``, then ``u_j_i`` for ``num_layers`` layers."""
    coords = range(1, dim + 1)
    return ["t", "loss", *(f"theta_{i}" for i in coords), *(f"xi_{i}" for i in coords),
            *(f"u_{j}_{i}" for j in range(1, num_layers + 1) for i in coords)]


def _trajectory_rows(t, loss, theta, xi, layers) -> np.ndarray:
    """The float64 CSV rows ``[t, loss, theta, xi, layers]`` of one snapshot
    (scalar ``t``) or of a block of them (``t`` of shape ``(k,)``)."""
    t = np.asarray(t)
    return np.concatenate([t[..., None], np.asarray(loss)[..., None], theta, xi,
                           layers.reshape(*t.shape, -1)], axis=-1)


def write_trajectory_csv(traj: Trajectory, path, include_layers: bool = False) -> None:
    """Write ``t,loss,theta_1..theta_d,xi_1..xi_d[,u_j_i...]`` as UTF-8 CSV."""
    L = traj.num_layers if include_layers else 0
    rows = (row for b in traj.blocks()
            for row in _trajectory_rows(b.times, b.losses, b.thetas, b.xi,
                                        b.layers[:, :L]).tolist())
    write_rows_csv(path, _trajectory_header(traj.dim, L), rows)


class TrajectoryCsvProcess:
    """A forked child that writes a trajectory CSV, layers included, while the flow runs.

    The constructor forks the child. ``add`` is ``integrate``'s ``on_row``:
    it packs each kept row by ``_trajectory_rows`` as float64 bytes into a
    pipe. The child reads them back as fixed-size records and formats them
    by ``write_rows_csv`` into a temporary file, so the CSV's bytes are
    ``write_trajectory_csv``'s; it calls no BLAS and leaves by ``os._exit``,
    with status 0 or the errno of a failed write. ``finish(path)`` waits for
    the child and then copies the file to ``path``; ``abort`` kills and
    reaps it. Either of the two removes the temporary file, and one of them
    must be called.
    """

    def __init__(self, dim: int, num_layers: int):
        header = _trajectory_header(dim, num_layers)
        self._pid = self._pipe = None
        fd, self._tmp = tempfile.mkstemp(suffix=".csv")
        os.close(fd)
        try:
            read, self._pipe = os.pipe()
            # F_SETPIPE_SZ is Linux's, and the system may refuse the size
            with contextlib.suppress(ImportError, AttributeError, OSError):
                import fcntl
                fcntl.fcntl(self._pipe, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            try:
                self._pid = os.fork()
                if self._pid == 0:
                    _format_records(read, self._pipe, self._tmp, header)  # does not return
            finally:
                os.close(read)
        except BaseException:
            self.abort()
            raise

    def add(self, row: tuple) -> None:
        t, layers, theta, xi, loss, _ = row
        data = memoryview(_trajectory_rows(t, loss, theta, xi, layers)).cast("B")
        try:
            while data:
                data = data[os.write(self._pipe, data):]
        except BrokenPipeError:
            self._wait()  # raises the child's own error
            raise

    def finish(self, path) -> None:
        try:
            pipe, self._pipe = self._pipe, None
            os.close(pipe)
            self._wait()
            shutil.copyfile(self._tmp, path)
        finally:
            self.abort()

    def abort(self) -> None:
        if self._pid:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        if self._pipe is not None:
            os.close(self._pipe)
            self._pipe = None
        with contextlib.suppress(FileNotFoundError):
            os.remove(self._tmp)

    def _wait(self) -> None:
        """Reap the child; raise its failure as an ``OSError``."""
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        code = os.waitstatus_to_exitcode(status)
        if 0 < code < _NOT_AN_OS_ERROR:
            raise OSError(code, os.strerror(code), self._tmp)
        if code:
            raise OSError(f"the trajectory CSV writer process failed (exit status {code})")


def _format_records(read: int, write: int, path: str, header: list[str]) -> None:
    """The writer child: format the records of the pipe ``read`` into ``path``, then exit.

    It first closes the pipe's end ``write``, the parent's. The exit status
    is 0, the errno of an ``OSError``, or ``_NOT_AN_OS_ERROR``.
    """
    status = _NOT_AN_OS_ERROR
    try:
        os.close(write)
        size = 8 * len(header)
        with open(read, "rb") as pipe:
            records = iter(lambda: pipe.read(size), b"")
            write_rows_csv(path, header, (np.frombuffer(r).tolist() for r in records))
        status = 0
    except OSError as exc:
        status = exc.errno or _NOT_AN_OS_ERROR
    finally:
        os._exit(status)


@dataclass(frozen=True, eq=False)
class DiagnosticsReport:
    """Ordered (section, metric, value) triples."""

    rows: tuple

    def value(self, section: str, metric: str):
        for s, m, v in self.rows:
            if s == section and m == metric:
                return v
        raise KeyError(f"{section}/{metric}")

    def write(self, path) -> None:
        write_rows_csv(path, ["section", "metric", "value"], self.rows)


def build_diagnostics(traj: Trajectory, idx=None, entropy=None,
                      rate=None) -> DiagnosticsReport:
    """Collect trajectory-level health checks into one report.

    Always includes the conservation defects, manifold membership and the
    general mirror residual; the sign census and reconstruction error need
    the minimal-layer index, the closed-form residual a matching entropy,
    and the rate section a ``RateCheck``.
    """
    rows: list[tuple[str, str, object]] = []
    defect = cons.conservation_defect(traj)
    rows.append(("conservation", "max_defect", float(defect.max())))
    L = traj.num_layers
    for j in range(L):
        for k in range(j + 1, L):
            rows.append(("conservation", f"defect_{j + 1}_{k + 1}", float(defect[j, k])))
    if idx is not None:
        census = cons.sign_census(traj, idx)
        rows.append(("sign_census", "violations", len(census.violations)))
        rows.append(("sign_census", "flagged_nodes", int(census.flagged.sum())))
        if idx.holds:
            rows.append(("reconstruction", "max_error",
                         cons.reconstruction_error(traj, idx)))
    if len(traj) >= 3:
        rows.append(("mirror", "general_residual", mir.mirror_residual_general(traj)))
    if entropy is not None:
        rows.append(("mirror", "closed_form_residual",
                     mir.mirror_residual_closed_form(traj, entropy)))
    rows.append(("manifold", "all_snapshots_on_manifold",
                 int(pc.trajectory_on_manifold(traj))))
    if rate is not None:
        rows.append(("rate", "sigma", rate.sigma))
        rows.append(("rate", "mu", rate.mu))
        rows.append(("rate", "violations", rate.violations))
    return DiagnosticsReport(rows=tuple(rows))
