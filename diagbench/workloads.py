"""Workloads of the diagflow benchmark: inputs, the measured job, its checks.

Every workload makes its inputs from the seed when it is constructed and
runs one closed-loop job in one thread. ``job`` certifies what it computes
at the acceptance tolerances; a failed check or a raised integrator or
solver error counts as one failed operation and never aborts the job.

The traced run calls ``job`` with a ``Tracer`` and then ``decompose``, which
repeats the public calls that ``cli.main``, ``run_bias`` and
``convergence_scale_sweep`` make internally (they build their own loss, so
the traced job cannot hand them a counting proxy). It repeats them on the
objects those runners return, or on inputs rebuilt from the same seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from diagflow import (
    DivergenceError,
    ExperimentConfig,
    InitScheme,
    LayerStack,
    NewtonError,
    StepController,
    StepUnderflowError,
    TiedMinimumError,
    build_diagnostics,
    conservation_defect,
    convergence_scale_sweep,
    init_layers,
    integrate,
    integrate_redundant,
    layer_rhs,
    leave_one_out_products,
    locate_min_layers,
    make_problem,
    min_l1_norm,
    mirror_residual_closed_form,
    mirror_residual_general,
    pl_constant,
    rate_check,
    reconstruction_error,
    run_bias,
    sigma_lower_bound,
    sign_census,
    solve_kkt,
    trajectory_on_manifold,
    write_trajectory_csv,
)
from diagflow.cli import main as cli_main
from diagflow.experiments import FLOW_LIMIT_GAP, GAP_TARGET

from tracing import NullTracer

# Errors that count as a failed operation rather than a broken benchmark.
OPERATION_ERRORS = (DivergenceError, StepUnderflowError, NewtonError, TiedMinimumError)


@dataclass(frozen=True)
class Tolerances:
    """Acceptance tolerances applied to every workload's outputs."""

    conservation: float = 1e-6
    reconstruction: float = 1e-6
    mismatch: float = 1e-3
    flow_gap: float = FLOW_LIMIT_GAP


ACCEPTANCE = Tolerances()


@dataclass
class Outcome:
    """Operations attempted and failed by one job, with what failed."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    digest: str | None = None

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _quiet(fn, *args):
    """Call ``fn`` with its standard output discarded (the CLI prints a table)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


# ---------------------------------------------------------------------------
# ensemble


@dataclass(frozen=True)
class EnsembleSize:
    flows: int
    t_max: float


class Ensemble:
    """A seeded stream of fixed-step flows on criterion 1's recipe.

    L cycles through 2..5, n = d + 2, ``x_scale=0.5``, uniform init,
    h = 1e-3. The dimensions d (drawn from [3, 8]) are those of criterion
    1's fixture, so every seed runs the same shapes and only the data and
    initial weights change with it; seeded shapes moved the peak RSS by
    +-8% between seeds. Each flow is certified with the conservation
    defect, reconstruction error, sign census and rate bound. One
    operation is one flow.
    """

    SIZES = {"full": EnsembleSize(flows=4, t_max=10.0),
             "toy": EnsembleSize(flows=4, t_max=0.05)}

    def __init__(self, seed: int, size: str, workdir: Path):
        p = self.SIZES[size]
        shapes = np.random.default_rng(123)  # criterion 1's fixture draws d from this
        rng = np.random.default_rng(seed)
        self.ctrl = StepController(h=1e-3, t_max=p.t_max)
        self.flows = []
        for i in range(p.flows):
            layers = 2 + i % 4
            d = int(shapes.integers(3, 9))
            loss = make_problem(d + 2, d, int(rng.integers(2**31)), x_scale=0.5)
            stack0 = init_layers(d, layers, InitScheme("uniform"), seed=int(rng.integers(2**31)))
            self.flows.append((loss, stack0))

    def warm_up(self) -> None:
        loss, stack0 = self.flows[0]
        self._certify(NullTracer, loss, stack0, StepController(h=1e-3, t_max=0.01),
                      Outcome(), ACCEPTANCE)

    def job(self, tracer, tol: Tolerances) -> Outcome:
        out = Outcome()
        for loss, stack0 in self.flows:
            self._certify(tracer, loss, stack0, self.ctrl, out, tol)
        return out

    @staticmethod
    def _certify(tracer, loss, stack0, ctrl, out: Outcome, tol: Tolerances):
        what = f"flow L={stack0.num_layers} d={stack0.dim}"
        try:
            idx = tracer.call("conservation.locate_min_layers", locate_min_layers, stack0)
            traj = tracer.flow("flow.integrate", lambda f: integrate(stack0, f, ctrl), loss)
            defect = float(tracer.call("conservation.conservation_defect",
                                       conservation_defect, traj).max())
            rec = tracer.call("conservation.reconstruction_error", reconstruction_error, traj, idx)
            census = tracer.call("conservation.sign_census", sign_census, traj, idx)
            sigma = tracer.call("conservation.sigma_lower_bound", sigma_lower_bound, stack0, idx)
            mu = tracer.call("experiments.pl_constant", pl_constant, loss)
            rate = tracer.call("experiments.rate_check", rate_check, traj, sigma.sigma, mu)
        except OPERATION_ERRORS as exc:
            out.record(False, f"{what}: {type(exc).__name__}: {exc}")
            return
        bad = [name for name, ok in [
            (f"conservation defect {defect:.3e}", defect <= tol.conservation),
            (f"reconstruction error {rec:.3e}", rec <= tol.reconstruction),
            (f"{len(census.violations)} census violations", census.ok),
            (f"{rate.violations} rate violations", rate.ok),
        ] if not ok]
        out.record(not bad, f"{what}: {', '.join(bad)}")

    def decompose(self, tracer, out: Outcome) -> None:
        """The job already passes the flows a counting loss; nothing to add."""

    def shapes(self):
        return [(stack0.num_layers, stack0.dim, loss.n) for loss, stack0 in self.flows]


# ---------------------------------------------------------------------------
# long_trace


@dataclass(frozen=True)
class LongTraceSize:
    layers: int
    dim: int
    samples: int
    tmax: float


class LongTrace:
    """One ``diagflow simulate`` call, run in-process through ``cli.main``.

    Writes the full trajectory CSV and the diagnostics CSV. One operation is
    one call; it passes when the exit code is 0 (the CLI's own certification
    table passed). ``run.py`` also compares the CSV's SHA-256 across the
    repeats of one seed (criterion 11), one checked operation per repeat
    after the first.
    """

    SIZES = {"full": LongTraceSize(layers=5, dim=64, samples=48, tmax=10.0),
             "toy": LongTraceSize(layers=3, dim=6, samples=4, tmax=0.05)}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.p = self.SIZES[size]
        self.seed = seed
        self.workdir = workdir
        self.csv = workdir / "trajectory.csv"
        self.diagnostics = workdir / "diagnostics.csv"
        self.argv = self._argv(self.p.tmax, self.csv, self.diagnostics)

    def _argv(self, tmax, csv, diagnostics):
        p = self.p
        return ["simulate", "--layers", str(p.layers), "--dim", str(p.dim),
                "--samples", str(p.samples), "--seed", str(self.seed),
                "--tmax", repr(tmax), "--output", str(csv),
                "--diagnostics", str(diagnostics)]

    def warm_up(self) -> None:
        _quiet(cli_main, self._argv(0.01, self.workdir / "warm-up.csv",
                                    self.workdir / "warm-up-diagnostics.csv"))

    def job(self, tracer, tol: Tolerances) -> Outcome:
        out = Outcome()
        code = _quiet(tracer.call, "cli.main", cli_main, self.argv)
        out.digest = _sha256(self.csv) if self.csv.exists() else None
        out.record(code == 0 and out.digest is not None, f"simulate exited with code {code}")
        return out

    def decompose(self, tracer, out: Outcome) -> None:
        """``simulate``'s calls, one by one, on inputs rebuilt from the seed.

        The top-level spans here plus ``cli.self_s`` add up to the traced
        ``cli.main`` call. The CLI additionally recomputes the conservation
        defect and the reconstruction error for its table; that repeat is
        left in ``cli.self_s``. The rebuilt CSV must match the CLI's byte
        for byte, or the decomposition no longer follows ``simulate``.
        """
        p = self.p
        csv = self.workdir / "rebuilt.csv"

        def simulate():
            loss = tracer.call("experiments.make_problem", make_problem,
                               p.samples, p.dim, self.seed)
            stack0 = tracer.call("model.init_layers", init_layers, p.dim, p.layers,
                                 InitScheme("uniform"), self.seed + 1)
            idx = tracer.call("conservation.locate_min_layers", locate_min_layers, stack0)
            ctrl = StepController(mode="fixed", h=1e-3, t_max=p.tmax)
            traj = tracer.flow("flow.integrate", lambda f: integrate(stack0, f, ctrl), loss)
            tracer.call("flow.write_trajectory_csv", write_trajectory_csv, traj, csv,
                        include_layers=True)
            diag = tracer.call("report.build_diagnostics", build_diagnostics, traj, idx=idx)
            tracer.call("report.DiagnosticsReport.write", diag.write,
                        self.workdir / "rebuilt-diagnostics.csv")
            return traj, idx

        traj, idx = tracer.call("decompose.cli.main", simulate)
        out.record(_sha256(csv) == out.digest, "rebuilt trajectory CSV differs from the CLI's")
        tracer.count("report.csv_bytes", csv.stat().st_size)

        def inner():
            tracer.call("conservation.conservation_defect", conservation_defect, traj)
            tracer.call("conservation.sign_census", sign_census, traj, idx)
            tracer.call("conservation.reconstruction_error", reconstruction_error, traj, idx)
            tracer.call("mirror.mirror_residual_general", mirror_residual_general, traj)
            tracer.call("paramcheck.trajectory_on_manifold", trajectory_on_manifold, traj)
        tracer.call("inner.report.build_diagnostics", inner)

    def shapes(self):
        return [(self.p.layers, self.p.dim, self.p.samples)]


# ---------------------------------------------------------------------------
# bias_sweep


@dataclass(frozen=True)
class BiasSize:
    convergence: ExperimentConfig
    scales: tuple
    two_layer: ExperimentConfig
    two_layer_alphas: tuple
    redundant: ExperimentConfig
    redundant_alphas: tuple


class BiasSweep:
    """Three adaptive runners: the convergence scale sweep and two bias sweeps.

    The convergence sweep is criterion 9's configuration (its seed is fixed
    at 2). The two-layer bias sweep takes the workload seed. The tied
    (redundant) sweep is pinned to seed 0: its cost varies from 2 s to over
    80 s across seeds 0-4 at alpha=0.03, which no run length here can hold.
    One operation is one convergence run or one bias row.
    """

    SIZES = {
        "full": BiasSize(
            convergence=ExperimentConfig(n=10, dim=8, layers=6, seed=2, t_max=400.0,
                                         scheme="zero_first"),
            scales=(1.0, 1.4, 1.8),
            two_layer=ExperimentConfig(n=8, dim=16, layers=2, t_max=1e4),
            two_layer_alphas=(10.0, 1.0, 0.1, 0.01),
            redundant=ExperimentConfig(n=3, dim=6, layers=4, seed=0, t_max=1e4),
            redundant_alphas=(1.0, 0.1, 0.03)),
        "toy": BiasSize(
            convergence=ExperimentConfig(n=4, dim=3, layers=3, seed=2, t_max=400.0,
                                         scheme="zero_first"),
            scales=(1.0, 1.4, 1.8),
            two_layer=ExperimentConfig(n=2, dim=4, layers=2, t_max=1e4),
            two_layer_alphas=(1.0, 0.1),
            redundant=ExperimentConfig(n=2, dim=3, layers=3, seed=0, t_max=1e4),
            redundant_alphas=(1.0,)),
    }

    def __init__(self, seed: int, size: str, workdir: Path):
        p = self.SIZES[size]
        self.p = p
        self.bias_runs = [
            (replace(p.two_layer, seed=seed), p.two_layer_alphas, "two_layer"),
            (p.redundant, p.redundant_alphas, "redundant"),
        ]
        self.convergence = None
        self.bias = []

    def warm_up(self) -> None:
        small = ExperimentConfig(n=2, dim=3, layers=3, seed=0, t_max=1e4)
        convergence_scale_sweep(replace(small, scheme="zero_first", t_max=1.0), scales=(1.0,))
        run_bias(replace(small, layers=2), alphas=(1.0,))
        run_bias(small, alphas=(1.0,), model="redundant")

    def job(self, tracer, tol: Tolerances) -> Outcome:
        out = Outcome()
        p = self.p
        try:
            self.convergence = tracer.call("experiments.convergence_scale_sweep",
                                           convergence_scale_sweep, p.convergence,
                                           scales=p.scales)
        except OPERATION_ERRORS as exc:
            self.convergence = None
            for s in p.scales:
                out.record(False, f"convergence scale {s}: {type(exc).__name__}: {exc}")
        else:
            previous = math.inf
            for r in self.convergence:
                ttt = r.time_to_target
                faster = ttt is not None and ttt < previous
                out.record(r.rate.ok and faster,
                           f"convergence scale {r.scale}: {r.rate.violations} rate violations,"
                           f" time to target {ttt} (previous {previous})")
                previous = ttt if ttt is not None else -math.inf
        self.bias = []
        for cfg, alphas, model in self.bias_runs:
            try:
                result = tracer.call("experiments.run_bias", run_bias, cfg, alphas=alphas,
                                     model=model)
            except OPERATION_ERRORS as exc:
                for a in alphas:
                    out.record(False, f"{model} alpha={a}: {type(exc).__name__}: {exc}")
                continue
            self.bias.append((cfg, model, result))
            for r in result.rows:
                out.record(r.linf_mismatch <= tol.mismatch and r.flow_gap <= tol.flow_gap,
                           f"{model} alpha={r.alpha}: mismatch {r.linf_mismatch:.3e},"
                           f" flow gap {r.flow_gap:.3e}")
        return out

    def _bias_flow(self, cfg, model, row):
        """Rebuild one bias row's flow from the entropy ``run_bias`` returns."""
        ctrl = StepController(mode="adaptive", h=cfg.step, t_max=cfg.t_max,
                              stop_gap=FLOW_LIMIT_GAP, max_points=2000)
        if model == "two_layer":
            stack0 = LayerStack(np.stack([row.entropy.v0, row.entropy.u0]))
            return "flow.integrate", lambda f: integrate(stack0, f, ctrl)
        u0 = row.entropy.u0
        return "flow.integrate_redundant", lambda f: integrate_redundant(u0, cfg.layers, f, ctrl)

    def decompose(self, tracer, out: Outcome) -> None:
        """The runners' inner calls, on the objects they returned."""
        p = self.p
        for r in self.convergence or ():
            cfg = replace(p.convergence, scale=r.scale)
            loss = make_problem(cfg.n, cfg.dim, cfg.seed)
            stack0 = init_layers(cfg.dim, cfg.layers, cfg.init_scheme(), seed=cfg.seed + 1)
            ctrl = StepController(mode="adaptive", h=cfg.step, t_max=cfg.t_max,
                                  stop_gap=GAP_TARGET * 1e-3)
            traj = tracer.flow("flow.integrate", lambda f: integrate(stack0, f, ctrl), loss)
            out.record(np.array_equal(traj.thetas, r.trajectory.thetas),
                       f"rebuilt convergence flow at scale {r.scale} differs")
            tracer.call("experiments.rate_check", rate_check, r.trajectory, r.sigma.sigma, r.mu)
        for cfg, model, result in self.bias:
            tracer.call("experiments.min_l1_norm", min_l1_norm, result.loss.X, result.loss.y)
            n, d = result.loss.X.shape
            tracer.count("experiments.l1_supports",
                         sum(math.comb(d, k) for k in range(min(n, d) + 1)))
            for row in result.rows:
                name, run = self._bias_flow(cfg, model, row)
                traj = tracer.flow(name, run, result.loss)
                out.record(np.array_equal(traj.final_theta, row.theta_flow),
                           f"rebuilt {model} flow at alpha={row.alpha} differs")
                sol = tracer.call("experiments.solve_kkt", solve_kkt, result.loss, row.entropy)
                tracer.count("experiments.newton_iters", sol.iterations)
                tracer.call("mirror.mirror_residual_closed_form", mirror_residual_closed_form,
                            row.trajectory, row.entropy)

    def shapes(self):
        return [(cfg.layers, cfg.dim, cfg.n)
                for cfg in (self.p.convergence, self.p.two_layer, self.p.redundant)]


WORKLOADS = {"ensemble": Ensemble, "long_trace": LongTrace, "bias_sweep": BiasSweep}


# ---------------------------------------------------------------------------
# traced-run helpers


def peak_alloc_mb(fn, *args):
    """Result of ``fn(*args)`` and the tracemalloc peak (MB) while it ran.

    Only the traced run calls this: tracemalloc slows the integrator
    several-fold.
    """
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 1e6


def median_call_us(fn, *args, calls: int = 200, blocks: int = 7) -> float:
    """Median over ``blocks`` of the mean time of one call, in microseconds."""
    per_call = []
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        per_call.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(per_call)


def micro_timings(shapes) -> dict:
    """``leave_one_out_products`` and ``layer_rhs`` at each (L, d, n) of a
    workload, as the median over its shapes."""
    loo, rhs = [], []
    for layers, d, n in shapes:
        stack = init_layers(d, layers, InitScheme("uniform"), seed=0)
        loss = make_problem(n, d, 0)
        loo.append(median_call_us(leave_one_out_products, stack.layers))
        rhs.append(median_call_us(layer_rhs, stack, loss))
    return {"model.loo_us": statistics.median(loo),
            "model.layer_rhs_us": statistics.median(rhs)}


# ---------------------------------------------------------------------------
# acceptance fixtures behind the two wall-clock gates


def criterion_1_fixture(count: int = 20, t_max: float = 10.0) -> float:
    """Seconds for ``tests/test_acceptance.py``'s ``seeded_runs`` fixture."""
    rng = np.random.default_rng(123)
    start = time.perf_counter()
    for i in range(count):
        layers = [2, 3, 4, 5][i % 4]
        d = int(rng.integers(3, 9))
        loss = make_problem(d + 2, d, 1000 + i, x_scale=0.5)
        stack0 = init_layers(d, layers, InitScheme("uniform"), seed=2000 + i)
        if not locate_min_layers(stack0).holds:
            raise TiedMinimumError(f"criterion 1 fixture run {i} has tied minimal nodes")
        integrate(stack0, loss, StepController(h=1e-3, t_max=t_max))
    return time.perf_counter() - start


def criterion_9_fixture(cfg: ExperimentConfig) -> float:
    """Seconds for criterion 9's timed convergence sweep on ``cfg``.

    At full size ``cfg`` is ``BiasSweep``'s convergence configuration, which
    is criterion 9's.
    """
    start = time.perf_counter()
    convergence_scale_sweep(cfg, scales=(1.0, 1.4, 1.8))
    return time.perf_counter() - start
