"""Command-line front end.

Subcommands: ``simulate`` (one flow run, full trajectory dump),
``crossings`` (per-layer node paths plus the sign census),
``convergence`` (rate-bound check and gap curve),
``bias`` (flow limit against the constrained-entropy solution), and
``paramcheck`` (certification table for the flattened product map).

Exit codes: 0 when every check passes, 1 on a check or numerical failure
or an unwritable output file, 2 on usage errors (an unreadable config or
init file included). An optional ``key = value`` config file supplies flag
defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import paramcheck as pc
from .conservation import TiedMinimumError, locate_min_layers
from .experiments import (
    ExperimentConfig,
    NewtonError,
    make_problem,
    run_bias,
    run_convergence,
    run_crossings,
)
from .flow import DivergenceError, StepController, StepUnderflowError, integrate
from .model import InitScheme, init_layers
from .report import build_diagnostics, write_trajectory_csv

# Pass/fail thresholds for the summary checks, valid at the default
# integrator settings.
CONSERVATION_TOL = 1e-6
RECONSTRUCTION_TOL = 1e-6
BIAS_MISMATCH_TOL = 1e-3
COUNTEREXAMPLE_MIN_DEFECT = 1e-3

_DEFAULTS = {
    "simulate": dict(layers=3, dim=5, samples=8, seed=0, tmax=10.0, step=1e-3,
                     init_scheme="uniform", init_scale=1.0),
    "crossings": dict(layers=4, dim=5, samples=10, seed=0, tmax=10.0, step=1e-3,
                      init_scheme="uniform", init_scale=1.0),
    "convergence": dict(layers=6, dim=8, samples=10, seed=0, tmax=400.0, step=1e-3,
                        init_scheme="zero_first", init_scale=1.0),
    "bias": dict(layers=2, dim=6, samples=3, seed=0, tmax=1e4, step=1e-3,
                 init_scheme="zero_first", init_scale=1.0),
    "paramcheck": dict(layers=4, dim=3, samples=100, seed=0, tmax=1.0, step=1e-3,
                       init_scheme="uniform", init_scale=1.0),
}

_INT_KEYS = ("layers", "dim", "samples", "seed")
_FLOAT_KEYS = ("tmax", "step", "init_scale")
_STR_KEYS = ("init_scheme", "init_file", "output", "diagnostics")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--layers", type=int, default=None, help="number of layers L")
    common.add_argument("--dim", type=int, default=None, help="coordinate dimension d")
    common.add_argument("--samples", type=int, default=None,
                        help="data rows n (paramcheck: number of random samples)")
    common.add_argument("--seed", type=int, default=None, help="random seed")
    common.add_argument("--tmax", type=float, default=None, help="flow horizon")
    common.add_argument("--step", type=float, default=None, help="integrator step")
    common.add_argument("--init-scheme", default=None,
                        choices=list(InitScheme.KINDS),
                        help="initialization scheme")
    common.add_argument("--init-scale", type=float, default=None,
                        help="initialization scale factor")
    common.add_argument("--init-file", default=None,
                        help="text file of explicit weights, one row per layer")
    common.add_argument("--output", default=None, help="CSV output path")
    common.add_argument("--diagnostics", default=None, help="diagnostics CSV path")
    common.add_argument("--config", default=None,
                        help="'key = value' file supplying flag defaults")

    parser = argparse.ArgumentParser(
        prog="diagflow",
        description="Gradient-flow laboratory for deep diagonal linear networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("simulate", "integrate one flow run and dump the trajectory"),
        ("crossings", "node trajectories and sign census"),
        ("convergence", "exponential rate-bound check"),
        ("bias", "flow limit vs constrained-entropy solution"),
        ("paramcheck", "certify the flattened product parameterization"),
    ]:
        sub.add_parser(name, parents=[common], help=text)
    return parser


def _load_config(path: str) -> dict:
    opts = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{line_no}: expected 'key = value'")
            opts[key.strip().replace("-", "_")] = value.strip()
    return opts


def _resolve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Merge flags over config-file values over per-command defaults."""
    merged = dict(_DEFAULTS[args.command])
    merged.update({k: None for k in ("init_file", "output", "diagnostics")})
    if args.config:
        try:
            raw = _load_config(args.config)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        for key, text in raw.items():
            try:
                if key in _INT_KEYS:
                    merged[key] = int(text)
                elif key in _FLOAT_KEYS:
                    merged[key] = float(text)
                elif key in _STR_KEYS:
                    merged[key] = text
                else:
                    raise ValueError(f"unknown config key {key!r}")
            except ValueError as exc:
                parser.error(f"{args.config}: {exc}")
    for key in (*_INT_KEYS, *_FLOAT_KEYS, *_STR_KEYS):
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag

    if merged["layers"] < 2:
        parser.error("--layers must be at least 2")
    if merged["dim"] < 1 or merged["samples"] < 1:
        parser.error("--dim and --samples must be at least 1")
    if merged["tmax"] <= 0 or merged["step"] <= 0:
        parser.error("--tmax and --step must be positive")
    if merged["init_scheme"] == "explicit" and not merged["init_file"]:
        parser.error("--init-scheme explicit requires --init-file")
    return merged


def _experiment_config(opts: dict) -> ExperimentConfig:
    values = None
    if opts["init_file"]:
        values = np.loadtxt(opts["init_file"], ndmin=2)
    return ExperimentConfig(
        n=opts["samples"], dim=opts["dim"], layers=opts["layers"],
        seed=opts["seed"], t_max=opts["tmax"], step=opts["step"],
        scheme=opts["init_scheme"], scale=opts["init_scale"], values=values,
        output=opts["output"], diagnostics=opts["diagnostics"],
    )


def _print_table(rows: list[tuple[str, str, bool | None]]) -> bool:
    width = max(len(name) for name, _, _ in rows)
    ok_all = True
    for name, value, ok in rows:
        status = "" if ok is None else ("  pass" if ok else "  FAIL")
        print(f"{name:<{width}}  {value}{status}")
        if ok is False:
            ok_all = False
    return ok_all


def _cmd_simulate(cfg: ExperimentConfig) -> int:
    loss = make_problem(cfg.n, cfg.dim, cfg.seed)
    stack0 = init_layers(cfg.dim, cfg.layers, cfg.init_scheme(), seed=cfg.seed + 1)
    idx = locate_min_layers(stack0)
    ctrl = StepController(mode="fixed", h=cfg.step, t_max=cfg.t_max)
    traj = integrate(stack0, loss, ctrl)
    if cfg.output:
        write_trajectory_csv(traj, cfg.output, include_layers=True)
    diag = build_diagnostics(traj, idx=idx)
    if cfg.diagnostics:
        diag.write(cfg.diagnostics)

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
    rows.append(("mirror residual (general)", f"{diag.value('mirror', 'general_residual'):.3e}", None))
    on_manifold = bool(diag.value("manifold", "all_snapshots_on_manifold"))
    rows.append(("snapshots on manifold", str(on_manifold), on_manifold))
    return 0 if _print_table(rows) else 1


def _cmd_crossings(cfg: ExperimentConfig) -> int:
    result = run_crossings(cfg)
    if cfg.diagnostics:
        build_diagnostics(result.trajectory, idx=result.index).write(cfg.diagnostics)
    flagged = int(result.census.flagged.sum())
    rows = [
        ("nodes that crossed or touched zero", str(flagged), None),
        ("census violations", str(len(result.census.violations)), result.census.ok),
    ]
    return 0 if _print_table(rows) else 1


def _cmd_convergence(cfg: ExperimentConfig) -> int:
    result = run_convergence(cfg)
    if cfg.diagnostics:
        idx = locate_min_layers(result.trajectory.stack_at(0))
        build_diagnostics(result.trajectory, idx=idx, rate=result.rate).write(cfg.diagnostics)
    ttg = result.time_to_target
    rows = [
        ("sigma lower bound", f"{result.sigma.sigma:.6g}", None),
        ("gradient-dominance mu", f"{result.mu:.6g}", None),
        ("time to gap 1e-6", "not reached" if ttg is None else f"{ttg:.6g}", None),
        ("rate bound violations", str(result.rate.violations), result.rate.ok),
    ]
    return 0 if _print_table(rows) else 1


def _cmd_bias(cfg: ExperimentConfig) -> int:
    result = run_bias(cfg)
    if cfg.diagnostics:
        last = result.rows[-1]
        build_diagnostics(last.trajectory, entropy=last.entropy).write(cfg.diagnostics)
    rows = []
    for r in result.rows:
        rows.append((f"alpha={r.alpha:g} L1 excess", f"{r.l1_norm - r.l1_min:.6g}", None))
        rows.append((f"alpha={r.alpha:g} flow-vs-stationary mismatch",
                     f"{r.linf_mismatch:.3e}", r.linf_mismatch <= BIAS_MISMATCH_TOL))
    return 0 if _print_table(rows) else 1


def _cmd_paramcheck(cfg: ExperimentConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    L, d, samples = cfg.layers, cfg.dim, cfg.n

    max_defect = 0.0
    for _ in range(samples):
        fp = pc.FlatParams(rng.uniform(-2.0, 2.0, L * d), L, d)
        i1, i2 = rng.integers(0, d, size=2)
        max_defect = max(max_defect, pc.commuting_defect(fp, int(i1), int(i2)))

    ranks_ok = True
    for k in range(samples):
        w = rng.uniform(0.2, 2.0, L * d) * rng.choice([-1.0, 1.0], L * d)
        blocks = w.reshape(d, L)
        if k % 2 == 1:
            blocks[np.arange(d), rng.integers(0, L, size=d)] = 0.0  # one zero per block
        fp = pc.FlatParams(blocks.reshape(-1), L, d)
        ranks_ok &= pc.jacobian_rank(fp) == d

    w = rng.uniform(0.2, 2.0, L * d)
    w[0] = w[1] = 0.0  # two zeros in block 1
    deficient = pc.jacobian_rank(pc.FlatParams(w, L, d))

    # control map (w1 w2, w1 w3): shares w1 across outputs, so the
    # commutator is nonzero and the detector must see it
    wc = rng.uniform(0.5, 1.5, 3)
    g1 = np.array([wc[1], wc[0], 0.0])
    g2 = np.array([wc[2], 0.0, wc[0]])
    h1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    h2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    control_defect = float(np.max(np.abs(h1 @ g2 - h2 @ g1)))

    stack0 = init_layers(d, L, InitScheme("uniform"), seed=cfg.seed)
    bridge = locate_min_layers(stack0).holds and pc.on_manifold(pc.FlatParams.from_stack(stack0))

    rows = [
        (f"commuting defect, {samples} samples", f"{max_defect:.3e}", max_defect == 0.0),
        (f"jacobian rank == dim on manifold, {samples} samples", str(ranks_ok), ranks_ok),
        ("rank drop with two zero nodes in a block", str(deficient), deficient == d - 1),
        ("control counterexample defect", f"{control_defect:.3e}",
         control_defect > COUNTEREXAMPLE_MIN_DEFECT),
        ("unique-minimum init lies on manifold", str(bridge), bridge),
    ]
    return 0 if _print_table(rows) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    opts = _resolve(args, parser)
    try:
        cfg = _experiment_config(opts)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read --init-file: {exc}")
    try:
        if args.command == "simulate":
            return _cmd_simulate(cfg)
        if args.command == "crossings":
            return _cmd_crossings(cfg)
        if args.command == "convergence":
            return _cmd_convergence(cfg)
        if args.command == "bias":
            return _cmd_bias(cfg)
        return _cmd_paramcheck(cfg)
    except (DivergenceError, StepUnderflowError, NewtonError, TiedMinimumError,
            np.linalg.LinAlgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
