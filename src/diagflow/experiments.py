"""Experiment runners: node crossings, convergence rate, implicit bias.

Three reproducible desk-scale experiments plus the numerical tools they
need (the smallest-nonzero-eigenvalue PL constant, the exponential rate
check, a damped Newton solver for the constrained-entropy first-order
system, and an exact minimal-L1 oracle that screens every basis by batched
solves and rescans the near-optimal ones support by support). Every run
is deterministic given its configuration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .conservation import (
    MinLayerIndex,
    SigmaBound,
    locate_min_layers,
    sigma_lower_bound,
    sign_census,
    SignCensus,
)
from .flow import StepController, Trajectory, integrate, integrate_redundant
from .model import EIG_CUTOFF, InitScheme, LayerStack, QuadraticLoss, init_layers
from .mirror import HyperbolicEntropy, PowerEntropy
from .report import write_rows_csv

GAP_TARGET = 1e-6
FLOW_LIMIT_GAP = 1e-10

# Enumeration guard for the minimal-L1 oracle, and its feasibility
# tolerance relative to the target's scale.
_MAX_L1_DIM = 16
_L1_FEAS_TOL = 1e-9
# Bases screened per batched solve (larger chunks only add temporaries),
# and the relative distance from the screened minimum within which a basis
# is rescanned exactly.
_L1_CHUNK = 1024
_L1_WINDOW = 1e-9


class NewtonError(RuntimeError):
    """Damped Newton failed to reach the target residual."""

    def __init__(self, message: str, residual: float):
        self.residual = residual
        super().__init__(f"{message} (last residual {residual:.3e})")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Problem sizes, seed and integrator knobs shared by the runners."""

    n: int = 10
    dim: int = 5
    layers: int = 4
    seed: int = 0
    t_max: float = 10.0
    step: float = 1e-3
    scheme: str = "uniform"
    scale: float = 1.0
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 1 or self.dim < 1:
            raise ValueError("problem sizes must be at least 1")
        if self.layers < 2:
            raise ValueError("at least 2 layers are required")
        if not (0 < self.t_max < math.inf and 0 < self.step < math.inf):
            raise ValueError("t_max and step must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not math.isfinite(self.scale):
            raise ValueError("init scale must be finite")
        if self.values is not None:
            if np.shape(self.values) != (self.layers, self.dim):
                raise ValueError(f"explicit values have shape {np.shape(self.values)}, "
                                 f"expected ({self.layers}, {self.dim})")
            if not np.all(np.isfinite(self.values)):
                raise ValueError("explicit values must be finite")

    def init_scheme(self) -> InitScheme:
        return InitScheme(self.scheme, scale=self.scale, values=self.values)

    def problem(self) -> tuple[QuadraticLoss, LayerStack]:
        """The seeded loss and initial layers: data from ``seed``, layers from ``seed + 1``."""
        return (make_problem(self.n, self.dim, self.seed),
                init_layers(self.dim, self.layers, self.init_scheme(), seed=self.seed + 1))


def make_problem(n: int, dim: int, seed: int, x_scale: float = 1.0,
                 positive: bool = False) -> QuadraticLoss:
    """Random dense least-squares instance; entries uniform and seeded."""
    rng = np.random.default_rng(seed)
    if positive:
        X = (1.0 - rng.random((n, dim))) * x_scale
        y = 1.0 - rng.random(n)
    else:
        X = rng.uniform(-1.0, 1.0, (n, dim)) * x_scale
        y = rng.uniform(-1.0, 1.0, n)
    return QuadraticLoss(X, y)


def pl_constant(loss: QuadraticLoss) -> float:
    """Gradient-dominance constant of the quadratic objective.

    Equals twice the smallest nonzero eigenvalue of ``X X^T``; with it,
    ``2 mu (value - optimal_value) <= |grad|^2`` holds everywhere.
    """
    w = np.linalg.eigvalsh(loss.X @ loss.X.T)
    w_max = w[-1] if w.size else 0.0
    if w_max <= 0.0:
        raise ValueError("design matrix is identically zero")
    nonzero = w[w > EIG_CUTOFF * w_max]
    return float(2.0 * nonzero[0])


@dataclass(frozen=True, eq=False)
class RateCheck:
    """Pointwise verdict of the exponential suboptimality bound."""

    sigma: float
    mu: float
    gap0: float
    violations: int
    atol: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


def rate_check(traj: Trajectory, sigma: float, mu: float) -> RateCheck:
    """Count grid times where the gap exceeds ``exp(-2 sigma mu t) * gap0``.

    ``atol`` absorbs the float noise of ``loss - optimal_value`` once the
    gap reaches the rounding floor of the subtraction: 1e-12 times the loss
    scale, far below any gap of interest.
    """
    gaps = traj.losses - traj.optimum
    gap0 = float(gaps[0])
    atol = 1e-12 * max(float(traj.losses[0]), traj.optimum, 1.0)
    bound = np.exp(-2.0 * sigma * mu * traj.times) * gap0
    violations = int(np.sum(gaps > bound + atol))
    return RateCheck(sigma=float(sigma), mu=float(mu), gap0=gap0,
                     violations=violations, atol=float(atol))


def time_to_gap(traj: Trajectory, threshold: float) -> float | None:
    """First grid time whose suboptimality gap is at or below ``threshold``."""
    hit = np.nonzero(traj.losses - traj.optimum <= threshold)[0]
    return float(traj.times[hit[0]]) if hit.size else None


# ---------------------------------------------------------------------------
# convergence experiment


@dataclass(frozen=True, eq=False)
class ConvergenceResult:
    scale: float
    rate: RateCheck
    sigma: SigmaBound
    index: MinLayerIndex
    mu: float
    time_to_target: float | None
    trajectory: Trajectory

    def write(self, path) -> None:
        """Write ``t,loss_gap,log_loss_gap,bound``; ``bound`` is the rate-bound curve."""
        traj = self.trajectory
        gaps = traj.losses - traj.optimum
        bound = np.exp(-2.0 * self.sigma.sigma * self.mu * traj.times) * gaps[0]
        log_gap = np.log(np.maximum(gaps, 1e-300))
        write_rows_csv(path, ["t", "loss_gap", "log_loss_gap", "bound"],
                       zip(traj.times, gaps, log_gap, bound))


def run_convergence(cfg: ExperimentConfig) -> ConvergenceResult:
    """Integrate one seeded run and check the exponential rate bound.

    Uses the adaptive integrator: large initializations make the early
    dynamic stiff. ``time_to_target`` is the first time the gap reaches
    ``GAP_TARGET``.
    """
    loss, stack0 = cfg.problem()
    idx = locate_min_layers(stack0)
    sigma = sigma_lower_bound(stack0, idx)
    mu = pl_constant(loss)
    # t_max is a safety horizon; normally the run ends once the gap falls
    # three decades below the reporting target
    ctrl = StepController(mode="adaptive", h=cfg.step, t_max=cfg.t_max,
                          stop_gap=GAP_TARGET * 1e-3)
    traj = integrate(stack0, loss, ctrl)
    rc = rate_check(traj, sigma.sigma, mu)
    ttg = time_to_gap(traj, GAP_TARGET)
    return ConvergenceResult(scale=cfg.scale, rate=rc, sigma=sigma, index=idx, mu=mu,
                             time_to_target=ttg, trajectory=traj)


def convergence_scale_sweep(cfg: ExperimentConfig,
                            scales=(1.0, 1.4, 1.8)) -> list[ConvergenceResult]:
    """The same seed run at several initialization scales."""
    return [run_convergence(replace(cfg, scale=float(s))) for s in scales]


# ---------------------------------------------------------------------------
# crossings experiment


@dataclass(frozen=True, eq=False)
class CrossingsResult:
    census: SignCensus
    index: MinLayerIndex
    trajectory: Trajectory

    def write(self, path) -> None:
        """Write ``t,u_1_1,...,u_L_1``: every layer's node of the first coordinate."""
        traj = self.trajectory
        header = ["t"] + [f"u_{j}_1" for j in range(1, traj.num_layers + 1)]
        write_rows_csv(path, header, ([traj.times[k], *traj.layers[k, :, 0]]
                                      for k in range(len(traj))))


def run_crossings(cfg: ExperimentConfig) -> CrossingsResult:
    """Track per-layer node paths and census their sign changes."""
    loss, stack0 = cfg.problem()
    idx = locate_min_layers(stack0)
    ctrl = StepController(mode="fixed", h=cfg.step, t_max=cfg.t_max)
    traj = integrate(stack0, loss, ctrl)
    return CrossingsResult(census=sign_census(traj, idx), index=idx, trajectory=traj)


# ---------------------------------------------------------------------------
# constrained-entropy first-order system (implicit bias)


@dataclass(frozen=True, eq=False)
class KktSolution:
    """Stationary point of the entropy over the interpolation set."""

    nu: np.ndarray            # dual vector, length n
    theta: np.ndarray         # primal candidate, length d
    residual: float           # |X theta - y|_inf
    kkt_residual: float       # |grad Q(theta) - dual_scale X^T nu|_inf
    iterations: int


def solve_kkt(loss: QuadraticLoss, entropy, tol: float = 1e-10,
              max_iter: int = 50) -> KktSolution:
    """Damped Newton on ``F(nu) = X theta_from_xi(X^T nu) - y``.

    The iteration backtracks (halving with an Armijo decrease on ``|F|^2``)
    and treats domain violations or overflow as infinite merit. On success
    the returned theta satisfies both first-order conditions by
    construction. Raises ``NewtonError`` on stagnation or after
    ``max_iter`` iterations, ``numpy.linalg.LinAlgError`` if the Jacobian
    is singular.
    """
    X, y = loss.X, loss.y
    nu = np.zeros(loss.n)

    def eval_f(nu_):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                theta = entropy.theta_from_xi(X.T @ nu_)
                f = X @ theta - y
        except ValueError:
            return None
        return f if np.all(np.isfinite(f)) else None

    f = eval_f(nu)
    if f is None:
        raise NewtonError("initial point is outside the map's domain", math.inf)
    for it in range(max_iter):
        res = float(np.max(np.abs(f)))
        if res <= tol:
            theta = entropy.theta_from_xi(X.T @ nu)
            kkt_res = float(np.max(np.abs(
                entropy.grad(theta) - entropy.dual_scale * (X.T @ nu)
            )))
            return KktSolution(nu=nu, theta=theta, residual=res,
                               kkt_residual=kkt_res, iterations=it)
        slope = entropy.dtheta_dxi(X.T @ nu)
        with np.errstate(over="ignore", invalid="ignore"):
            J = X @ (slope[:, None] * X.T)
        if not np.all(np.isfinite(J)):
            raise NewtonError("jacobian is not finite", res)
        step = np.linalg.solve(J, -f)
        merit = float(f @ f)
        t = 1.0
        while True:
            f_new = eval_f(nu + t * step)
            if f_new is not None:
                with np.errstate(over="ignore"):
                    merit_new = float(f_new @ f_new)
                if np.isfinite(merit_new) and merit_new <= (1.0 - 1e-4 * t) * merit:
                    break
            t *= 0.5
            if t < 1e-12:
                raise NewtonError("backtracking stalled", res)
        nu = nu + t * step
        f = f_new
    raise NewtonError(f"no convergence within {max_iter} iterations",
                      float(np.max(np.abs(f))))


def _support_value(X: np.ndarray, y: np.ndarray, support: list,
                   tol: float) -> tuple[float, np.ndarray] | None:
    """L1 value and coefficients of the least-squares fit on ``support``, if it interpolates."""
    theta_s, *_ = np.linalg.lstsq(X[:, support], y, rcond=None)
    if float(np.max(np.abs(X[:, support] @ theta_s - y))) > tol:
        return None
    return float(np.sum(np.abs(theta_s))), theta_s


def min_l1_norm(X: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact minimal L1 norm over ``{theta : X theta = y}`` at desk scale.

    The minimum of this LP is attained at a basic feasible solution, and
    every feasible support with independent columns extends to a basis of
    the same value. So the search screens all ``r``-column bases at once,
    ``r`` the numerical rank of X, by batched solves of the system reduced
    to its ``r`` independent rows. It then rescans every subset of the
    bases whose screened value lies within a relative ``_L1_WINDOW`` of the
    smallest, support size ascending, then lexicographic, by a least-squares
    fit on the original X and a strict ``<``. That is the order and the
    check of a full enumeration of supports of size at most n, so the
    returned value and theta are the enumeration's, bit for bit, whenever
    the minimizer is unique. A fit interpolates when its residual is at
    most ``_L1_FEAS_TOL`` times ``1 + max|y|``. Exponential in the
    dimension; guarded accordingly.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if d > _MAX_L1_DIM:
        raise ValueError(f"support enumeration is desk-scale only (dim <= {_MAX_L1_DIM})")
    y_scale = 1.0 + float(np.max(np.abs(y))) if y.size else 1.0
    tol = _L1_FEAS_TOL * y_scale
    if not y.size or float(np.max(np.abs(y))) <= tol:  # the empty support interpolates
        return 0.0, np.zeros(d)
    U, sv, Vt = np.linalg.svd(X, full_matrices=False)
    r = int(np.sum(sv > sv.max(initial=0.0) * max(n, d) * np.finfo(float).eps))
    X_r = sv[:r, None] * Vt[:r]          # (r, d): the r independent rows
    y_r = U[:, :r].T @ y
    # one row of column indices per basis; uint8 holds any index below _MAX_L1_DIM
    m = math.comb(d, r)
    bases = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(d), r)),
                        dtype=np.uint8, count=m * r).reshape(m, r)
    values = np.empty(m)
    for lo in range(0, m, _L1_CHUNK):
        b = bases[lo:lo + _L1_CHUNK]
        A = X_r.T[b].transpose(0, 2, 1)  # (m, r, r): A[i] = X_r[:, b[i]]
        rhs = np.broadcast_to(y_r[:, None], (len(b), r, 1))
        try:
            theta = np.linalg.solve(A, rhs)[..., 0]
        except np.linalg.LinAlgError:    # an exactly singular basis in the chunk
            theta = (np.linalg.pinv(A) @ rhs)[..., 0]
        res = np.max(np.abs(np.einsum("mrn,mr->mn", X.T[b], theta) - y), axis=1)
        values[lo:lo + _L1_CHUNK] = np.where(res <= tol, np.sum(np.abs(theta), axis=1), math.inf)
    near = bases[np.isfinite(values) & (values <= np.min(values) * (1.0 + _L1_WINDOW))]
    supports = {sub for basis in near.tolist()
                for k in range(1, r + 1) for sub in itertools.combinations(basis, k)}
    best = math.inf
    best_theta: np.ndarray | None = None
    for support in sorted(supports, key=lambda sub: (len(sub), sub)):
        s = list(support)
        found = _support_value(X, y, s, tol)
        if found is not None and found[0] < best:
            best, theta_s = found
            best_theta = np.zeros(d)
            best_theta[s] = theta_s
    if best_theta is None:
        raise ValueError("no feasible support found: y is not in the range of X")
    return best, best_theta


# ---------------------------------------------------------------------------
# implicit-bias experiment


@dataclass(frozen=True, eq=False)
class BiasRow:
    alpha: float
    l1_norm: float
    l1_min: float
    linf_mismatch: float
    theta_flow: np.ndarray
    theta_kkt: np.ndarray
    flow_gap: float
    trajectory: Trajectory
    entropy: object


@dataclass(frozen=True, eq=False)
class BiasResult:
    rows: tuple
    loss: QuadraticLoss

    @property
    def max_mismatch(self) -> float:
        return max(r.linf_mismatch for r in self.rows)

    def write(self, path) -> None:
        """Write ``alpha,l1_norm,l1_min,linf_mismatch``, one row per scale."""
        write_rows_csv(path, ["alpha", "l1_norm", "l1_min", "linf_mismatch"],
                       ([r.alpha, r.l1_norm, r.l1_min, r.linf_mismatch] for r in self.rows))


def run_bias(cfg: ExperimentConfig, alphas=(1.0, 0.1, 0.01),
             model: str = "two_layer") -> BiasResult:
    """Flow limit versus entropy-constrained stationary point, per scale.

    Needs an underdetermined instance (n < dim) so the interpolation set is
    a continuum. For the two-layer model the initialization is
    ``u = alpha * 1`` against a zero layer (uniform curvature across
    coordinates, so the large-alpha limit is the plain minimum-L2
    interpolator); the tied deep model draws a positive initialization and
    positive data. The flow runs adaptively until the loss gap falls below
    ``FLOW_LIMIT_GAP`` or ``cfg.t_max`` is reached.
    """
    if cfg.n >= cfg.dim:
        raise ValueError("bias experiment expects an underdetermined instance (n < dim)")
    if model == "redundant":
        # the tied model lives on the positive orthant, so the target must
        # be the image of a positive coefficient vector to be reachable
        rng_p = np.random.default_rng(cfg.seed)
        X = 1.0 - rng_p.random((cfg.n, cfg.dim))
        loss = QuadraticLoss(X, X @ (0.5 + rng_p.random(cfg.dim)))
    elif model == "two_layer":
        loss = make_problem(cfg.n, cfg.dim, cfg.seed)
    else:
        raise ValueError(f"unknown bias model {model!r}")
    l1_min, _ = min_l1_norm(loss.X, loss.y)
    rng = np.random.default_rng(cfg.seed + 1)
    base_positive = 0.5 + 0.5 * rng.random(cfg.dim)

    rows = []
    for alpha in alphas:
        # only the end state matters here; keep stored trajectories slim
        ctrl = StepController(mode="adaptive", h=cfg.step, t_max=cfg.t_max,
                              stop_gap=FLOW_LIMIT_GAP, max_points=2000)
        if model == "two_layer":
            u0 = np.full(cfg.dim, float(alpha))
            v0 = np.zeros(cfg.dim)
            stack0 = LayerStack(np.stack([v0, u0]))
            entropy = HyperbolicEntropy(u0, v0)
            traj = integrate(stack0, loss, ctrl)
        else:
            u0 = base_positive * float(alpha)
            entropy = PowerEntropy(u0, cfg.layers)
            traj = integrate_redundant(u0, cfg.layers, loss, ctrl)
        theta_flow = traj.final_theta
        sol = solve_kkt(loss, entropy)
        mismatch = float(np.max(np.abs(theta_flow - sol.theta)))
        rows.append(BiasRow(
            alpha=float(alpha),
            l1_norm=float(np.sum(np.abs(theta_flow))),
            l1_min=l1_min,
            linf_mismatch=mismatch,
            theta_flow=theta_flow,
            theta_kkt=sol.theta,
            flow_gap=float(traj.losses[-1] - traj.optimum),
            trajectory=traj,
            entropy=entropy,
        ))
    return BiasResult(rows=tuple(rows), loss=loss)
