"""Diagnostics assembly, CSV output, and the forked-child protocol.

The diagnostics file is a single flat CSV with columns
``section,metric,value``. Every CSV of the package, trajectories included,
goes through ``write_rows_csv``, which prints numbers with ``%.17g`` so
repeated runs are byte-identical. A trajectory CSV is written either at
once from a ``Trajectory`` (``write_trajectory_csv``) or, while the flow
runs, by a ``TrajectoryCsvProcess``; both give the same bytes. The
package forks only in ``ForkedCall``: for that writer and for the sweep
workers of ``experiments._map``. Both are context managers, and each
child lives in its caller's ``with`` block: ``result()`` waits for it, and
leaving the block kills and reaps it if it has not been waited for. The
writer's caller leaves the block once the flow is done, which waits for
the writer.
"""

from __future__ import annotations

import contextlib
import os
import pickle
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


class ChildError(RuntimeError):
    """A ``ForkedCall`` child died, failed, or sent back what does not unpickle."""


class ForkedCall:
    """``fn(*args)`` in a forked child, which pickles back its value or exception.

    A context manager: ``result()`` reads that outcome and reaps the child.
    It returns the value or raises the exception itself, or a ``ChildError``
    naming ``role``, the pid and the signal or exit status of a child that
    died, failed or sent what does not unpickle. Leaving the ``with`` block
    kills and reaps a child that ``result`` has not reaped.
    """

    def __init__(self, role: str, fn, *args):
        self.role, self.pid = role, None
        read, write = os.pipe()
        self._source = open(read, "rb")
        try:
            with open(write, "wb") as sink:
                self.pid = os.fork()
                if not self.pid:
                    _run_child(self._source, sink, fn, args)  # does not return
        except BaseException:
            self._source.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self._source.close()
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None

    def result(self):
        failure = None
        with self._source:
            try:
                returned, value = pickle.load(self._source)
            except Exception as exc:  # the exit status says why
                failure = exc
        pid, status = os.waitpid(self.pid, 0)
        self.pid, code = None, os.waitstatus_to_exitcode(status)
        why = (f"was killed by signal {-code} ({signal.strsignal(-code)})" if code < 0 else
               f"failed (exit status {code})" if code else
               f"sent outcomes that do not unpickle: {failure!r}" if failure else None)
        if why:
            raise ChildError(f"{self.role} process {pid} {why}") from failure
        if not returned:
            raise value
        return value


def _run_child(source, sink, fn, args: tuple) -> None:
    """A ``ForkedCall`` child: pickle ``(True, fn(*args))`` or ``(False, its
    exception)`` into ``sink``; leave by ``os._exit``, with status 0 once it is sent.
    When the parent's end is closed, the send fails and the child exits with
    status 1 without a word: there is no one left to tell."""
    status = 1
    try:
        source.close()  # the parent's end: with the parent gone, a write fails, not blocks
        try:
            outcome = True, fn(*args)
        except Exception as exc:
            outcome = False, exc
        pickle.dump(outcome, sink)
        sink.close()
        status = 0
    except BrokenPipeError:  # raised by sending only: fn's own is its outcome
        pass
    except BaseException:
        import traceback  # not at the top, where it adds 0.1-0.3 MB to peak RSS
        traceback.print_exc()
    finally:
        os._exit(status)


class TrajectoryCsvProcess:
    """A ``ForkedCall`` child that writes a trajectory CSV, layers included, while the flow runs.

    ``add`` is ``integrate``'s ``on_row``: it packs each kept row by
    ``_trajectory_rows`` as float64 bytes into a pipe. The child formats
    them by ``write_rows_csv`` into a nameless temporary file, so the bytes
    are ``write_trajectory_csv``'s; it calls no BLAS. A context manager:
    leaving the block waits for the child and raises its failure, or, when
    the block raises, kills and reaps it. A failure closes the file, which
    leaves nothing behind; after a block that succeeded, ``write(path)``
    copies the file to ``path`` and closes it.
    """

    def __init__(self, dim: int, num_layers: int):
        header = _trajectory_header(dim, num_layers)
        with contextlib.ExitStack() as opened:  # closed again if the fork fails
            self._file = opened.enter_context(tempfile.TemporaryFile())
            read, self._pipe = os.pipe()
            opened.callback(os.close, self._pipe)
            # F_SETPIPE_SZ is Linux's, and the system may refuse the size
            with contextlib.suppress(ImportError, AttributeError, OSError):
                import fcntl
                fcntl.fcntl(self._pipe, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            try:
                self._child = ForkedCall("trajectory CSV writer", _format_records, read,
                                         self._pipe, self._file.fileno(), header)
            finally:
                os.close(read)
            opened.pop_all()

    def add(self, row: tuple) -> None:
        t, layers, theta, xi, loss, _ = row
        data = memoryview(_trajectory_rows(t, loss, theta, xi, layers)).cast("B")
        try:
            while data:
                data = data[os.write(self._pipe, data):]
        except BrokenPipeError:
            self._child.result()  # raises the child's own error
            raise

    def __enter__(self):
        return self

    def __exit__(self, kind, *_) -> None:
        with contextlib.ExitStack() as failed:
            failed.enter_context(self._file)
            with self._child:
                os.close(self._pipe)
                if kind is None:
                    self._child.result()
                    failed.pop_all()  # the file outlives a block that succeeded

    def write(self, path) -> None:
        with self._file:
            self._file.seek(0)
            with open(path, "wb") as out:
                shutil.copyfileobj(self._file, out)


def _format_records(read: int, write: int, fd: int, header: list[str]) -> None:
    """The writer child: close ``write``, the parent's end of the pipe ``read``, and
    format the pipe's records into the file ``fd``."""
    os.close(write)
    size = 8 * len(header)
    with open(read, "rb") as pipe:
        records = iter(lambda: pipe.read(size), b"")
        write_rows_csv(fd, header, (np.frombuffer(r).tolist() for r in records))


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
