"""Command-line front end.

Subcommands: ``simulate`` (one flow run, full trajectory dump),
``crossings`` (per-layer node paths plus the sign census),
``convergence`` (rate-bound check and gap curve),
``bias`` (flow limit against the constrained-entropy solution), and
``paramcheck`` (certification table for the product map).

Each subcommand accepts only the flags it reads: ``simulate``,
``crossings`` and ``convergence`` take the layer, size, flow and init
flags; ``bias`` the size and flow flags; ``paramcheck`` the layer and size
flags. ``--init-scheme explicit`` and ``--init-file`` go together. A
``--config`` file holds ``key = value`` lines that are the command's flags
(``init_scale = 1.4`` is ``--init-scale=1.4``), parsed like the command
line; explicit flags win, and a key the command does not take, ``config``
included, is a usage error.

Every command builds all of its checks, the diagnostics included, before
``main`` writes ``--output`` and then ``--diagnostics``: a run that stops on
an error before that writes neither file.

Exit codes: 0 when every check passes, 1 on a check or numerical failure
or an unwritable output file, 2 on usage errors (an unreadable config or
init file and out-of-range values included).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import paramcheck as pc
from .conservation import SingularMobilityError, TiedMinimumError, locate_min_layers
from .experiments import ExperimentConfig, NewtonError, run_bias, run_convergence, run_crossings
from .flow import DivergenceError, StepController, StepUnderflowError, integrate
from .model import InitScheme
from .report import build_diagnostics, write_trajectory_csv

# Pass/fail thresholds for the summary checks, valid at the default
# integrator settings.
CONSERVATION_TOL = 1e-6
RECONSTRUCTION_TOL = 1e-6
BIAS_MISMATCH_TOL = 1e-3
COUNTEREXAMPLE_MIN_DEFECT = 1e-3

# Per-command overrides of the ExperimentConfig defaults.
_DEFAULTS = {
    "simulate": dict(layers=3, n=8),
    "crossings": {},
    "convergence": dict(layers=6, dim=8, t_max=400.0, scheme="zero_first"),
    "bias": dict(dim=6, n=3, t_max=1e4),
    "paramcheck": dict(dim=3, n=100),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command; flag dests are ExperimentConfig fields."""
    def group() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)

    layers = group()
    layers.add_argument("--layers", type=int, help="number of layers L")
    size = group()
    size.add_argument("--dim", type=int, help="coordinate dimension d")
    size.add_argument("--samples", dest="n", metavar="SAMPLES", type=int,
                      help="data rows n (paramcheck: number of random samples)")
    size.add_argument("--seed", type=int, help="random seed")
    size.add_argument("--config", help="'key = value' file of flags; explicit flags win")
    flow = group()
    flow.add_argument("--tmax", dest="t_max", metavar="TMAX", type=float, help="flow horizon")
    flow.add_argument("--step", type=float, help="integrator step")
    flow.add_argument("--output", help="CSV output path")
    flow.add_argument("--diagnostics", help="diagnostics CSV path")
    init = group()
    init.add_argument("--init-scheme", dest="scheme", choices=list(InitScheme.KINDS),
                      help="initialization scheme")
    init.add_argument("--init-scale", dest="scale", metavar="INIT_SCALE", type=float,
                      help="initialization scale factor")
    init.add_argument("--init-file",
                      help="text file of explicit weights, one row per layer "
                           "(goes with --init-scheme explicit)")

    parser = argparse.ArgumentParser(
        prog="diagflow",
        description="Gradient-flow laboratory for deep diagonal linear networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flow_run = [layers, size, flow, init]
    for name, parents, text in [
        ("simulate", flow_run, "integrate one flow run and dump the trajectory"),
        ("crossings", flow_run, "node trajectories and sign census"),
        ("convergence", flow_run, "exponential rate-bound check"),
        ("bias", [size, flow], "flow limit vs constrained-entropy solution"),
        ("paramcheck", [layers, size], "certify the product parameterization"),
    ]:
        sub.add_parser(name, parents=parents, help=text)
    return parser


def _load_config(path: str) -> list[str]:
    """Read a ``key = value`` file as ``--key=value`` flags."""
    flags = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{line_no}: expected 'key = value'")
            flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


def _parse(parser: argparse.ArgumentParser,
           argv) -> tuple[str, ExperimentConfig, str | None, str | None]:
    """Command, its configuration, output and diagnostics paths; usage errors exit 2.

    Config-file flags are parsed like command-line flags, and explicit
    flags win over them; unset values fall back to ``_DEFAULTS`` and then to
    the ``ExperimentConfig`` defaults, which also check the ranges.
    """
    args = vars(parser.parse_args(argv))
    if "config" in args:
        try:
            file_flags = _load_config(args["config"])
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        file_args = vars(parser.parse_args([args["command"], *file_flags]))
        if "config" in file_args:
            parser.error(f"{args['config']}: a config file cannot name another one")
        args = {**file_args, **args}
    opts = {**_DEFAULTS[args["command"]], **args}
    command = opts.pop("command")
    opts.pop("config", None)
    output = opts.pop("output", None)
    diagnostics = opts.pop("diagnostics", None)
    init_file = opts.pop("init_file", None)
    if (opts.get("scheme") == "explicit") != (init_file is not None):
        parser.error("--init-scheme explicit and --init-file must be given together")
    if init_file is not None:
        try:
            opts["values"] = np.loadtxt(init_file, ndmin=2)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read --init-file: {exc}")
    try:
        return command, ExperimentConfig(**opts), output, diagnostics
    except ValueError as exc:
        parser.error(str(exc))


def _print_table(rows: list[tuple[str, str, bool | None]]) -> bool:
    width = max(len(name) for name, _, _ in rows)
    for name, value, ok in rows:
        status = "" if ok is None else ("  pass" if ok else "  FAIL")
        print(f"{name:<{width}}  {value}{status}")
    return all(ok is not False for _, _, ok in rows)


# A flow command returns (write, diag, rows): the writer of its --output CSV,
# its diagnostics (None unless asked for or read by the table) and its table
# rows. It writes nothing; main does, once all three are built.


def _cmd_simulate(cfg: ExperimentConfig, want_diag: bool):
    loss, stack0 = cfg.problem()
    idx = locate_min_layers(stack0)
    ctrl = StepController(mode="fixed", h=cfg.step, t_max=cfg.t_max)
    traj = integrate(stack0, loss, ctrl)
    diag = build_diagnostics(traj, idx=idx)  # the table reads it, asked for or not

    defect = diag.value("conservation", "max_defect")
    rows = [
        ("final loss", f"{traj.losses[-1]:.6g}", None),
        ("conservation max defect", f"{defect:.3e}", defect <= CONSERVATION_TOL),
        ("minimal node unique", str(idx.holds), idx.holds),
    ]
    if idx.holds:
        census_viol = diag.value("sign_census", "violations")
        rec = diag.value("reconstruction", "max_error")
        rows.append(("sign census violations", str(census_viol), census_viol == 0))
        rows.append(("reconstruction max error", f"{rec:.3e}", rec <= RECONSTRUCTION_TOL))
    try:
        rows.append(("mirror residual (general)", f"{diag.value('mirror', 'general_residual'):.3e}", None))
    except KeyError:  # fewer than 3 snapshots: no central differences
        pass
    on_manifold = bool(diag.value("manifold", "all_snapshots_on_manifold"))
    rows.append(("snapshots on manifold", str(on_manifold), on_manifold))
    return lambda path: write_trajectory_csv(traj, path, include_layers=True), diag, rows


def _cmd_crossings(cfg: ExperimentConfig, want_diag: bool):
    result = run_crossings(cfg)
    diag = build_diagnostics(result.trajectory, idx=result.index) if want_diag else None
    flagged = int(result.census.flagged.sum())
    rows = [
        ("nodes that crossed or touched zero", str(flagged), None),
        ("census violations", str(len(result.census.violations)), result.census.ok),
    ]
    return result.write, diag, rows


def _cmd_convergence(cfg: ExperimentConfig, want_diag: bool):
    result = run_convergence(cfg)
    diag = (build_diagnostics(result.trajectory, idx=result.index, rate=result.rate)
            if want_diag else None)
    ttg = result.time_to_target
    rows = [
        ("sigma lower bound", f"{result.sigma.sigma:.6g}", None),
        ("gradient-dominance mu", f"{result.mu:.6g}", None),
        ("time to gap 1e-6", "not reached" if ttg is None else f"{ttg:.6g}", None),
        ("rate bound violations", str(result.rate.violations), result.rate.ok),
    ]
    return result.write, diag, rows


def _cmd_bias(cfg: ExperimentConfig, want_diag: bool):
    result = run_bias(cfg)
    last = result.rows[-1]
    diag = build_diagnostics(last.trajectory, entropy=last.entropy) if want_diag else None
    rows = []
    for r in result.rows:
        rows.append((f"alpha={r.alpha:g} L1 excess", f"{r.l1_norm - r.l1_min:.6g}", None))
        rows.append((f"alpha={r.alpha:g} flow-vs-stationary mismatch",
                     f"{r.linf_mismatch:.3e}", r.linf_mismatch <= BIAS_MISMATCH_TOL))
    return result.write, diag, rows


def _cmd_paramcheck(cfg: ExperimentConfig):
    c = pc.certify(cfg.layers, cfg.dim, cfg.n, cfg.seed)
    rows = [
        (f"commuting defect, {cfg.n} samples", f"{c.max_defect:.3e}", c.max_defect == 0.0),
        (f"jacobian rank == dim on manifold, {cfg.n} samples", str(c.ranks_ok), c.ranks_ok),
        ("rank drop with two zero nodes in a block", str(c.rank_one_block),
         c.rank_one_block == cfg.dim - 1),
    ]
    if c.rank_two_blocks is not None:
        rows.append(("rank drop with two zero nodes in two blocks", str(c.rank_two_blocks),
                     c.rank_two_blocks == cfg.dim - 2))
    rows += [
        ("control counterexample defect", f"{c.control_defect:.3e}",
         c.control_defect > COUNTEREXAMPLE_MIN_DEFECT),
        ("unique-minimum init lies on manifold", str(c.init_on_manifold), c.init_on_manifold),
    ]
    return rows


def main(argv=None) -> int:
    command, cfg, output, diagnostics = _parse(build_parser(), argv)
    try:
        if command == "paramcheck":
            rows = _cmd_paramcheck(cfg)
        else:
            run = {"simulate": _cmd_simulate, "crossings": _cmd_crossings,
                   "convergence": _cmd_convergence, "bias": _cmd_bias}[command]
            write, diag, rows = run(cfg, diagnostics is not None)
            # every check is built: the one place that writes the files
            if output:
                write(output)
            if diagnostics:
                diag.write(diagnostics)
        return 0 if _print_table(rows) else 1
    except (DivergenceError, StepUnderflowError, NewtonError, TiedMinimumError,
            SingularMobilityError, np.linalg.LinAlgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
