"""Diagnostics assembly and CSV output.

The diagnostics file is a single flat CSV with columns
``section,metric,value``. Every CSV of the package, trajectories included,
goes through ``write_rows_csv``, which prints numbers with ``%.17g`` so
repeated runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import conservation as cons
from . import mirror as mir
from . import paramcheck as pc
from .flow import Trajectory


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


def write_trajectory_csv(traj: Trajectory, path, include_layers: bool = False) -> None:
    """Write ``t,loss,theta_1..theta_d,xi_1..xi_d[,u_j_i...]`` as UTF-8 CSV."""
    coords = range(1, traj.dim + 1)
    cols = ["t", "loss", *(f"theta_{i}" for i in coords), *(f"xi_{i}" for i in coords)]
    layers = traj.layers.reshape(len(traj), -1)
    if include_layers:
        cols += [f"u_{j}_{i}" for j in range(1, traj.num_layers + 1) for i in coords]
    else:
        layers = layers[:, :0]
    rows = zip(traj.times, traj.losses, traj.thetas, traj.xi, layers)
    write_rows_csv(path, cols, ((t, v, *th, *x, *u) for t, v, th, x, u in rows))


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
