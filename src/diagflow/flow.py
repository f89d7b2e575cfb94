"""Gradient-flow integration for layered diagonal networks.

Trains the layers by the continuous-time dynamic

    du^j/dt = -(prod_{k != j} u^k) * grad L(theta),   theta = prod_j u^j,

with a classical fixed-step RK4 scheme by default and an optional
step-doubling adaptive mode for stiff, large-initialization runs. Along the
trajectory the accumulated dual variable

    xi(t) = -integral_0^t grad L(theta(s)) ds

is built up by trapezoidal quadrature on the full step grid (before any
snapshot decimation), together with theta, the loss and its gradient per
snapshot. Only this module calls the loss; the rest reads the ``Trajectory``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import LayerStack, leave_one_out_products, mobility, theta_of_layers

# Abort threshold on |theta|_inf: gradient flow on a quadratic cannot
# diverge, so crossing this signals discretization failure.
DIVERGENCE_LIMIT = 1e12

_MIN_STEP_FRACTION = 1e-14

# Snapshots a diagnostic holds at once (``Trajectory.blocks``), so that its
# temporaries are O(block * L * d) however long the trajectory is.
SNAPSHOT_BLOCK = 256


class DivergenceError(RuntimeError):
    """State left the finite/bounded region; retry with a smaller step."""

    def __init__(self, t: float, message: str | None = None):
        self.time = t
        super().__init__(message or f"integration diverged at t={t:.6g}; reduce the step size")


class StepUnderflowError(RuntimeError):
    """Adaptive controller drove the step below the representable floor."""

    def __init__(self, t: float):
        self.time = t
        super().__init__(f"adaptive step size underflow at t={t:.6g}")


@dataclass(frozen=True)
class StepController:
    """Integrator settings.

    ``mode`` is ``"fixed"`` (RK4 with step ``h``) or ``"adaptive"``
    (step-doubling error control starting from ``h``). ``max_points`` caps
    the number of stored snapshots; the dual-variable quadrature always runs
    on the undecimated grid. A fixed-step run without ``stop_gap`` knows its
    grid in advance, so it holds only the O(``max_points``) snapshots it
    returns; adaptive and ``stop_gap`` runs record every accepted step and
    decimate at the end. Both keep the same rows. ``stop_gap``, when set,
    ends the run early once ``loss - optimal_value`` drops to that level.
    """

    mode: str = "fixed"
    h: float = 1e-3
    rtol: float = 1e-8
    atol: float = 1e-10
    t_max: float = 10.0
    max_points: int = 5000
    stop_gap: float | None = None

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive"):
            raise ValueError(f"unknown integrator mode {self.mode!r}")
        if not (self.h > 0 and self.rtol > 0 and self.atol > 0):
            raise ValueError("step size and tolerances must be positive")
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        if self.max_points < 2:
            raise ValueError("max_points must be at least 2")


@dataclass(eq=False)
class Trajectory:
    """Recorded flow: per snapshot the time, layers, theta, dual variable xi,
    loss and loss gradient; ``optimum`` is the loss's ``optimal_value`` or 0."""

    times: np.ndarray    # (K,)
    layers: np.ndarray   # (K, L, d)
    thetas: np.ndarray   # (K, d)
    xi: np.ndarray       # (K, d)
    losses: np.ndarray   # (K,)
    grads: np.ndarray    # (K, d)
    optimum: float = 0.0

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def num_layers(self) -> int:
        return self.layers.shape[1]

    @property
    def dim(self) -> int:
        return self.layers.shape[2]

    def stack_at(self, k: int) -> LayerStack:
        return LayerStack(self.layers[k])

    @property
    def final_theta(self) -> np.ndarray:
        return self.thetas[-1]

    def blocks(self, overlap: int = 0):
        """Consecutive views of at most ``SNAPSHOT_BLOCK`` snapshots each.

        Consecutive blocks share ``overlap`` rows, so every run of
        ``overlap + 1`` neighbouring snapshots lies in exactly one block.
        An empty trajectory gives one empty block.
        """
        columns = (self.times, self.layers, self.thetas, self.xi, self.losses, self.grads)
        for start in range(0, max(len(self) - overlap, 1), SNAPSHOT_BLOCK - overlap):
            rows = slice(start, start + SNAPSHOT_BLOCK)
            yield Trajectory(*(column[rows] for column in columns), optimum=self.optimum)


def _layer_velocity(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    return -leave_one_out_products(y) * g


def layer_rhs(stack: LayerStack, loss) -> np.ndarray:
    """Right-hand side of the layer dynamic, one row per layer."""
    return _layer_velocity(stack.layers, loss.gradient(theta_of_layers(stack)))


def theta_rhs(stack: LayerStack, loss) -> np.ndarray:
    """Velocity of theta: minus the mobility diagonal times the gradient."""
    return -mobility(stack.layers) * loss.gradient(theta_of_layers(stack))


def _value_and_gradient(loss, theta: np.ndarray) -> tuple[float, np.ndarray]:
    vg = getattr(loss, "value_and_gradient", None)
    if vg is not None:
        return vg(theta)
    return loss.value(theta), loss.gradient(theta)


def _guard(y: np.ndarray, theta: np.ndarray, t: float, positive: bool) -> None:
    if not (np.isfinite(y).all() and np.isfinite(theta).all()):
        raise DivergenceError(t, f"non-finite state at t={t:.6g}; reduce the step size")
    if np.abs(theta).max() > DIVERGENCE_LIMIT:
        raise DivergenceError(t)
    if positive and (y <= 0).any():
        raise DivergenceError(t, f"state left the positive orthant at t={t:.6g}; reduce the step size")


def _stride(k: int, max_points: int) -> int:
    """Keep every ``stride``-th of ``k`` rows, plus the last, to hold at most ``max_points``."""
    return math.ceil(k / (max_points - 1)) if k > max_points else 1


def _decimate(columns: tuple[list, ...], max_points: int) -> list[np.ndarray]:
    k = len(columns[0])
    idx = sorted({*range(0, k, _stride(k, max_points)), k - 1})
    stacked = []
    for column in columns:
        stacked.append(np.array([column[i] for i in idx]))
        column.clear()  # free the recorded rows before stacking the next column
    return stacked


def _next_step(t: float, h: float, t_end: float) -> float | None:
    """The step ``_drive`` takes from ``t`` (clipped to end at ``t_end``); None once done."""
    return min(h, t_end - t) if t < t_end - 1e-12 * t_end else None


def _kept_steps(ctrl: StepController) -> tuple[int, int | None]:
    """Stride and last step of the rows ``_decimate`` keeps, or ``(1, None)``.

    Known up front only when the time grid does not depend on the state: a
    fixed-step run without ``stop_gap``, counted by ``_drive``'s recurrence.
    """
    if ctrl.mode != "fixed" or ctrl.stop_gap is not None:
        return 1, None
    t, h, steps = 0.0, ctrl.h, 0
    while (h := _next_step(t, h, ctrl.t_max)) is not None:
        t, steps = t + h, steps + 1
    return _stride(steps + 1, ctrl.max_points), steps


def integrate(stack0: LayerStack, loss, ctrl: StepController) -> Trajectory:
    """Run gradient flow on the layers from ``stack0`` until ``ctrl.t_max``.

    Snapshots are taken at every ``stride``-th accepted step plus the last,
    with the stride that caps them at ``ctrl.max_points``; xi is accumulated
    by the trapezoidal rule on the full accepted grid. Deterministic given
    its inputs.

    Raises ``DivergenceError`` when the state leaves the finite region and,
    in adaptive mode, ``StepUnderflowError`` when no acceptable step exists.
    """
    return _drive(stack0.layers, loss, ctrl, theta_of=theta_of_layers, velocity=_layer_velocity)


def integrate_redundant(u0: np.ndarray, num_layers: int, loss, ctrl: StepController) -> Trajectory:
    """Run gradient flow for the tied parameterization ``theta = u**L``.

    All ``L`` layers share the single weight vector ``u``, so the dynamic is
    ``du/dt = -L * u**(L-1) * grad L(theta)``. Snapshots replicate ``u``
    across the layer axis. Requires ``u0 > 0`` componentwise; the flow is
    aborted if the state leaves the positive orthant (which can only happen
    through discretization error).
    """
    u0 = np.asarray(u0, dtype=float)
    if num_layers < 3:
        raise ValueError("redundant flow expects at least 3 layers")
    if u0.ndim != 1 or not np.all(u0 > 0):
        raise ValueError("u0 must be a strictly positive vector")
    L = num_layers
    # the state is the one row u; theta is the product of its L copies
    traj = _drive(u0[None, :], loss, ctrl,
                  theta_of=lambda y: y.repeat(L, axis=0).prod(axis=0),
                  velocity=lambda y, g: -L * y ** (L - 1) * g,
                  positive=True)
    return replace(traj, layers=np.repeat(traj.layers, L, axis=1))


def _rk4_step(y, h, k1, rhs):
    k2 = rhs(y + (0.5 * h) * k1)
    k3 = rhs(y + (0.5 * h) * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _doubling_step(y, h, k1, rhs, ctrl):
    """Two RK4 half steps, and their error ratio against one full step."""
    big = _rk4_step(y, h, k1, rhs)
    mid = _rk4_step(y, 0.5 * h, k1, rhs)
    half = _rk4_step(mid, 0.5 * h, rhs(mid), rhs)
    delta = (half - big) / 15.0
    scale = ctrl.atol + ctrl.rtol * np.maximum(np.abs(y), np.abs(half))
    ratio = float(np.max(np.abs(delta) / scale))
    return half, (ratio if np.isfinite(ratio) else np.inf)


def _drive(y0, loss, ctrl, theta_of, velocity, positive=False):
    """Integrate ``dy/dt = velocity(y, grad L(theta_of(y)))`` under ``ctrl``.

    Fixed mode accepts every RK4 step; adaptive mode proposes step-doubling
    steps, accepts those within tolerance, and rescales ``h`` after each.
    When the step count is known up front, only the rows ``_decimate`` would
    keep are appended; otherwise every accepted step is, and ``_decimate``
    thins them at the end (on the kept rows it is the identity).
    """

    def rhs(y):
        return velocity(y, loss.gradient(theta_of(y)))

    adaptive = ctrl.mode == "adaptive"
    t, h = 0.0, ctrl.h
    y = np.array(y0, dtype=float)
    theta = theta_of(y)
    val, g = _value_and_gradient(loss, theta)
    xi = np.zeros(y.shape[1])
    columns = ([t], [y], [theta], [xi], [val], [g])  # the Trajectory rows
    stride, last = _kept_steps(ctrl)
    step = 0
    optimum = getattr(loss, "optimal_value", 0.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while (h := _next_step(t, h, ctrl.t_max)) is not None:
            k1 = velocity(y, g)
            if adaptive:
                y_new, ratio = _doubling_step(y, h, k1, rhs, ctrl)
            else:
                y_new, ratio = _rk4_step(y, h, k1, rhs), 0.0
            if ratio <= 1.0:
                y, t = y_new, t + h
                theta = theta_of(y)
                val, g_new = _value_and_gradient(loss, theta)
                _guard(y, theta, t, positive)
                xi = xi - (0.5 * h) * (g + g_new)
                g = g_new
                step += 1
                if step % stride == 0 or step == last:
                    for column, v in zip(columns, (t, y, theta, xi, val, g)):
                        column.append(v)
                if ctrl.stop_gap is not None and val - optimum <= ctrl.stop_gap:
                    break
            if adaptive:
                factor = 5.0 if ratio == 0.0 else 0.9 * ratio ** -0.2
                h *= min(max(factor, 0.2), 5.0)
                if h < _MIN_STEP_FRACTION * max(t, 1.0):
                    raise StepUnderflowError(t)
    return Trajectory(*_decimate(columns, ctrl.max_points), optimum=optimum)
