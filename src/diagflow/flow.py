"""Gradient-flow integration for layered diagonal networks.

Trains the layers by the continuous-time dynamic

    du^j/dt = -(prod_{k != j} u^k) * grad L(theta),   theta = prod_j u^j,

with a classical fixed-step RK4 scheme by default and an optional adaptive
mode for stiff, large-initialization runs and long plateaus. Adaptive runs
start on the Dormand–Prince 5(4) pair, whose last stage is the next step's
first (FSAL), and watch its stages with Hairer's stiffness test. A run
that fails the test, and whose loss offers ``hessian``, goes on for good
with RODAS4, an L-stable Rosenbrock pair of order 4(3) that uses the flow's
Jacobian. That Jacobian is kept in factors. A RODAS4 attempt on a state
of up to ``_DENSE_W_ENTRIES`` entries builds its linear system densely and
inverts it once; on a larger one, its linear algebra grows as d^3 + d L^3
with the coordinates d and layers L, not as (L d)^3. Either way an
attempted step costs six loss evaluations.

Each flow hands the driver two hooks that describe its parameterization
and take no loss quantity: ``factors(y, p) -> theta`` writes the
velocity's factors P into ``p`` and returns theta, and ``jacobian(y)``
gives dtheta/dy and dP/dy for RODAS4. Both flows take both hooks from
``model``, where both maps live, so this module only integrates. A stage
of every stepper is ``P * grad L(theta)``, minus the velocity, written in
place into a row of the run's stage buffer; the steppers subtract it, so
no step forms ``-grad L``. Theta stays in the hook's buffer at a step's
inner stages and is copied once per new state, the copy that is recorded
and that the loss may keep. A fixed-step run also keeps its states in two
buffers that it reuses in turn, and its RK4 step writes its new point's
stage where the next step reads its first. The accumulated dual variable

    xi(t) = -integral_0^t grad L(theta(s)) ds

is the state's last row (velocity factor 1), integrated by every stepper
with its own weights and recorded with theta, the loss and its gradient.
Only this module calls the loss; the rest reads the ``Trajectory``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (LayerStack, check_tied, leave_one_out_products, product_factors,
                    product_jacobian, theta_of_layers, tied_hooks)

# Abort threshold on |theta|_inf: gradient flow on a quadratic cannot
# diverge, so crossing this signals discretization failure.
DIVERGENCE_LIMIT = 1e12
_THETA_SQUARED_LIMIT = DIVERGENCE_LIMIT ** 2

_MIN_STEP_FRACTION = 1e-14

# Adaptive mode's per-component error tolerances, relative and absolute.
_RTOL, _ATOL = 1e-8, 1e-10

# Hairer's stiffness test (dopri5.f): an accepted Dormand–Prince step fails
# it when its estimate of h * lambda exceeds _STIFF_H_LAMBDA, near the
# boundary of the pair's stability region. _STIFF_FAILS failures, with no
# run of _STIFF_RESET passes between them, make the run stiff.
_STIFF_H_LAMBDA, _STIFF_FAILS, _STIFF_RESET = 3.25, 15, 6

# Snapshots a diagnostic holds at once (``Trajectory.blocks``), so that its
# temporaries are O(block * L * d) however long the trajectory is.
SNAPSHOT_BLOCK = 256

# The largest RODAS4 state, in entries, whose W ``_w_solver`` builds and
# inverts densely. Per attempt (one solver, six solves), dense against
# Woodbury, medians of 5 by timeit: 32 vs 78 us at 12 entries, 73-74 vs
# 93-110 us at 40, 88-89 vs 90-98 us at 48, 115 vs 101 us at 56 (2 vCPUs,
# Python 3.11, numpy 2.4.6, one BLAS thread).
_DENSE_W_ENTRIES = 48


class DivergenceError(RuntimeError):
    """State left the finite/bounded region; retry with a smaller step.

    ``time`` is where the step of size ``h`` ended, and ``max_abs_theta``
    the largest |theta| component there (NaN when theta is not finite).
    """

    def __init__(self, t: float, h: float, max_abs_theta: float, message: str | None = None):
        self.time, self.h, self.max_abs_theta = t, h, max_abs_theta
        super().__init__(message or f"integration diverged at t={t:.6g}; reduce the step size")

    def __reduce__(self):  # pickle rebuilds an exception from its constructor's arguments
        return type(self), (self.time, self.h, self.max_abs_theta, str(self))


class StepUnderflowError(RuntimeError):
    """Adaptive controller drove the step ``h`` below the floor at ``time``."""

    def __init__(self, t: float, h: float):
        self.time, self.h = t, h
        super().__init__(f"adaptive step size underflow at t={t:.6g} (h={h:.3g})")

    def __reduce__(self):
        return type(self), (self.time, self.h)


@dataclass(frozen=True)
class StepController:
    """Integrator settings.

    ``mode`` is ``"fixed"`` (RK4 with step ``h``) or ``"adaptive"``
    (from ``h``, to ``_RTOL`` = 1e-8 and ``_ATOL`` = 1e-10: Dormand–Prince
    5(4) with FSAL, then RODAS4 if the run fails the stiffness test and the
    loss has ``hessian``; the switch rule is ``_drive``'s). ``max_points``
    caps the number of stored snapshots by the snapshot rule of
    ``_Columns``; xi is a state row, so decimation never coarsens it.
    ``stop_gap``, when set, ends the run early
    once ``loss - optimal_value`` drops to that level.
    """

    mode: str = "fixed"
    h: float = 1e-3
    t_max: float = 10.0
    max_points: int = 5000
    stop_gap: float | None = None

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive"):
            raise ValueError(f"unknown integrator mode {self.mode!r}")
        if not 0 < self.h < math.inf:
            raise ValueError("step size must be positive and finite")
        if not 0 < self.t_max < math.inf:
            raise ValueError("t_max must be positive and finite")
        if self.max_points < 2:
            raise ValueError("max_points must be at least 2")
        if self.stop_gap is not None and not 0 <= self.stop_gap < math.inf:
            raise ValueError("stop_gap must be None or finite and non-negative")


@dataclass(eq=False)
class Trajectory:
    """Recorded flow: per snapshot the time, layers, theta, dual variable xi,
    loss and loss gradient; ``optimum`` is the loss's ``optimal_value`` or 0.
    ``tied`` says that the flow was the tied one, ``theta = u**L``, whose L
    layers are copies of one weight vector: its mobility is L times that of
    L independent layers with the same values."""

    times: np.ndarray    # (K,)
    layers: np.ndarray   # (K, L, d)
    thetas: np.ndarray   # (K, d)
    xi: np.ndarray       # (K, d)
    losses: np.ndarray   # (K,)
    grads: np.ndarray    # (K, d)
    optimum: float = 0.0
    tied: bool = False

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
        Each block keeps ``optimum`` and ``tied``. An empty trajectory gives
        one empty block.
        """
        columns = (self.times, self.layers, self.thetas, self.xi, self.losses, self.grads)
        for start in range(0, max(len(self) - overlap, 1), SNAPSHOT_BLOCK - overlap):
            rows = slice(start, start + SNAPSHOT_BLOCK)
            yield Trajectory(*(column[rows] for column in columns), self.optimum, self.tied)


def _w_solver(c: float, q: np.ndarray, p: np.ndarray, B: np.ndarray, H: np.ndarray):
    """``r -> W^-1 r`` for ``W = c I - J`` and a Jacobian in factors.

    On states of shape ``(m, d)`` (m rows of d coordinates), the factored
    Jacobian is ``J = -diag(q) (1 1^T kron H) diag(p) - B``, where ``H`` is
    the loss's d x d Hessian and ``B`` couples only the m entries of one
    coordinate, as the blocks ``B[i]``. A state of at most
    ``_DENSE_W_ENTRIES`` entries takes ``_dense_w_solver``, a larger one
    ``_woodbury_w_solver``. Raises ``LinAlgError`` when the solver's
    factorization is singular.
    """
    return (_dense_w_solver if p.size <= _DENSE_W_ENTRIES else _woodbury_w_solver)(c, q, p, B, H)


def _dense_w_solver(c, q, p, B, H):
    """``_w_solver`` by one inverse of W, built densely in ``p.ravel()``'s order:
    O((m d)^3) per solver and one mat-vec per solve. ``c I + B`` is added as
    one addend, entry ``[i, a, b]`` to ``W[a, i, b, i]``, through
    ``_w_blocks``'s index into the flat W."""
    m, d = p.shape
    W = q[:, :, None, None] * H[:, None, :] * p               # (m, d, m, d)
    W.reshape(-1)[_w_blocks(m, d)] += c * np.eye(m) + B
    w_inv = np.linalg.inv(W.reshape(m * d, m * d))

    def solve(r: np.ndarray) -> np.ndarray:
        return w_inv.dot(r.ravel()).reshape(r.shape)

    return solve


@functools.cache
def _w_blocks(m: int, d: int) -> np.ndarray:
    """``(d, m, m)`` indices into a flat ``(m, d, m, d)`` array, read-only as every
    caller shares them: ``[i, a, b]`` is the position of ``[a, i, b, i]``,
    coordinate i's m x m block."""
    i, a, b = np.ogrid[:d, :m, :m]
    index = ((a * d + i) * m + b) * d + i
    index.setflags(write=False)
    return index


def _woodbury_w_solver(c, q, p, B, H):
    """``_w_solver`` by the Woodbury identity, without forming W.

    ``W = A + U_q H U_p^T``, with ``A = c I + B`` block diagonal by
    coordinate and ``U_q`` (``U_p``) the (m d) x d matrix that takes
    coordinate i to entry (j, i) with weight ``q[j, i]`` (``p[j, i]``), so
    it takes d inverses of m x m blocks and one d x d solve: O(d m^3 + d^3)
    per solver and O(d m^2 + d^2) per solve. A singular block of ``A`` raises,
    even where W is not singular.
    """
    m, d = p.shape
    a_inv = np.linalg.inv(c * np.eye(m) + B)           # (d, m, m)
    a_inv_q = np.einsum("ijk,ki->ij", a_inv, q)         # A_i^-1 q_i, (d, m)
    s = np.einsum("ji,ij->i", p, a_inv_q)               # U_p^T A^-1 U_q = diag(s)
    core = np.linalg.solve(np.eye(d) + H * s, H)        # (I + H diag(s))^-1 H

    def solve(r: np.ndarray) -> np.ndarray:
        x = np.einsum("ijk,ki->ji", a_inv, r)           # A^-1 r
        return x - a_inv_q.T * (core @ (p * x).sum(axis=0))

    return solve


def layer_rhs(stack: LayerStack, loss) -> np.ndarray:
    """Right-hand side of the layer dynamic, one row per layer."""
    return -leave_one_out_products(stack.layers) * loss.gradient(theta_of_layers(stack.layers))


def _guard(y: np.ndarray, theta: np.ndarray, t: float, h: float, positive: bool) -> None:
    """Raise ``DivergenceError`` when the state ``y`` at ``theta`` is not finite,
    ``max |theta|`` exceeds ``DIVERGENCE_LIMIT`` or, when ``positive``, a layer
    entry is not positive (xi may be negative).

    The fast path passes a state with ``theta . theta + xi . xi`` at most the
    limit's square, two dot products: the sum bounds ``max |theta|^2`` and is
    NaN or inf when theta or xi, y's last row, is not finite (theta is not
    finite under both maps when a layer is not). The slow path below makes
    every verdict, so a finite state that the sum sends there (theta at the
    limit with a larger sum of squares, xi above the limit) passes.
    """
    xi = y[-1]
    left = positive and (y[:-1] <= 0).any()
    if theta.dot(theta) + xi.dot(xi) <= _THETA_SQUARED_LIMIT and not left:
        return
    top = float(np.abs(theta).max())
    if not (np.isfinite(y).all() and np.isfinite(theta).all()):
        raise DivergenceError(t, h, top, f"non-finite state at t={t:.6g}; reduce the step size")
    if top > DIVERGENCE_LIMIT:
        raise DivergenceError(t, h, top)
    if left:
        raise DivergenceError(t, h, top,
                              f"state left the positive orthant at t={t:.6g}; reduce the step size")


def _next_step(t: float, h: float, t_end: float) -> float | None:
    """The step ``_drive`` takes from ``t`` (clipped to end at ``t_end``); None once done."""
    return min(h, t_end - t) if t < t_end - 1e-12 * t_end else None


class _Columns:
    """The snapshot rule, and the six ``Trajectory`` columns of the rows it keeps.

    The rule: of the ``K`` rows of a run (the initial state, step 0, and
    each accepted step), keep every ``stride``-th plus the last, where the
    stride is 1 if ``K <= max_points`` and ``ceil(K / (max_points - 1))``
    otherwise, so that at most ``max_points`` rows are kept. When the time
    grid does not depend on the state (a fixed-step run without
    ``stop_gap``), ``K`` is counted up front by ``_drive``'s own recurrence,
    only the kept rows are written, and the arrays hold exactly that many.
    Otherwise every row is written, into arrays that start at 256 rows and
    double as they fill, and ``kept`` thins them at the end. On the rows of
    a counted grid that thinning is the identity, so both paths keep the
    same rows.

    ``on_row``, when given, sees each kept row exactly once, in order, as
    the tuple ``(t, layers, theta, xi, loss, gradient)`` of views it must
    not keep, as the row is written; a run that raises has delivered no row
    past its last accepted one. Any other grid is known only at the end, when
    the ``Trajectory`` holds it, so there ``on_row`` raises ``ValueError``.
    """

    def __init__(self, state: tuple, ctrl: StepController, on_row=None):
        """``state`` is step 0's ``(t, y, theta, loss, gradient)``, as ``add`` takes it."""
        self.max_points, self.on_row = ctrl.max_points, on_row
        self.stride, self.last, capacity = 1, None, 256
        if ctrl.mode == "fixed" and ctrl.stop_gap is None:
            t, h, steps = 0.0, ctrl.h, 0
            while (h := _next_step(t, h, ctrl.t_max)) is not None:
                t, steps = t + h, steps + 1
            self.stride, self.last = self._stride(steps + 1), steps
            capacity = math.ceil(steps / self.stride) + 1
        elif on_row is not None:
            raise ValueError("on_row needs a fixed-step run without stop_gap")
        row = self._row(*state)
        self.arrays = [np.empty((capacity, *np.shape(v))) for v in row]
        self.count = self.step = 0
        self._write(row)

    def _stride(self, k: int) -> int:
        return math.ceil(k / (self.max_points - 1)) if k > self.max_points else 1

    @staticmethod
    def _row(t, y, theta, value, gradient) -> tuple:
        """The ``Trajectory`` row at the state ``y``: its layers, then xi's row."""
        return t, y[:-1], theta, y[-1], value, gradient

    def add(self, t, y, theta, value, gradient) -> None:
        """The next accepted step, written if the rule keeps it; its row's views
        are taken only then."""
        self.step += 1
        if self.step % self.stride == 0 or self.step == self.last:
            self._write(self._row(t, y, theta, value, gradient))

    def _write(self, row: tuple) -> None:
        if self.count == len(self.arrays[0]):
            for i, old in enumerate(self.arrays):  # one column at a time, to bound the peak
                self.arrays[i] = np.empty((2 * len(old), *old.shape[1:]))
                self.arrays[i][:self.count] = old
        for column, v in zip(self.arrays, row):
            column[self.count] = v
        self.count += 1
        if self.on_row is not None:
            self.on_row(row)

    def kept(self) -> list[np.ndarray]:
        """The columns at the kept rows, thinned by the rule."""
        k = self.count
        stride = self._stride(k)
        if stride == 1 and k == len(self.arrays[0]):
            return self.arrays
        rows = np.arange(0, k, stride)
        if (k - 1) % stride:
            rows = np.append(rows, k - 1)
        return [self.arrays.pop(0)[rows] for _ in range(len(self.arrays))]


def integrate(stack0: LayerStack, loss, ctrl: StepController, on_row=None) -> Trajectory:
    """Run gradient flow on the layers from ``stack0`` until ``ctrl.t_max``.

    Snapshots follow the snapshot rule of ``_Columns``; xi is integrated
    as one more state row, by the stepper's own weights. ``on_row`` is
    ``_Columns``'s row callback. Deterministic given its inputs.

    Raises ``ValueError`` for ``on_row`` on a grid ``_Columns`` cannot count,
    ``DivergenceError`` when the state leaves the finite region and,
    in adaptive mode, ``StepUnderflowError`` when no acceptable step exists.
    """
    L, d = stack0.layers.shape
    return _drive(stack0.layers, loss, ctrl, factors=product_factors(L, (d,)),
                  jacobian=product_jacobian, on_row=on_row)


def integrate_redundant(u0: np.ndarray, num_layers: int, loss, ctrl: StepController) -> Trajectory:
    """Run gradient flow for the tied parameterization ``theta = u**L``.

    All ``L`` layers share the single weight vector ``u``, so the dynamic is
    ``du/dt = -L * u**(L-1) * grad L(theta)``. Snapshots replicate ``u``
    across the layer axis, and the trajectory is marked ``tied``: the only
    record that the L rows are one vector, since untied layers may start,
    and stay, equal. Requires ``u0 > 0`` and an integer L >= 3
    (``model.check_tied``); the flow is aborted if the state leaves the
    positive orthant (which can only happen through discretization error).
    """
    u0, L = check_tied(u0, num_layers)
    traj = _drive(u0[None, :], loss, ctrl, *tied_hooks(L, u0.shape), positive=True)
    return replace(traj, layers=np.repeat(traj.layers, L, axis=1), tied=True)


def _rk4_stepper(y0, k, rhs, evaluate):
    """Classical RK4 as ``step(y, h)``, built once per run from ``y0`` and
    ``_drive``'s stage buffer ``k``, ``rhs`` and ``evaluate``.

    Its error ratio is 0, so every step is accepted, and ``evaluate`` writes
    the new point's stage straight into ``k[0]``, the next step's first.
    Stages 2-4 go into ``k[1:4]``, each stage point into ``k[4]``, and the
    weighted sum into ``k[5]``: ``k[1:3]`` is doubled in place (``2 k`` as
    ``k + k``, the same float), then one ``np.add.reduce`` adds the rows of
    ``k[:4]`` in order, as ``((k1 + 2 k2) + 2 k3) + k4``, starting from
    -0.0, the identity that keeps every zero's sign. The step sizes ``h /
    2``, ``h`` and ``h / 6`` are 0-d float64 arrays, the values numpy would
    convert the Python floats to on every call, built once per ``h``. Each
    new state goes into the one of two buffers, ``y0`` and a spare, that the
    current state is not in.
    """
    k1, k2, k3, k4, point, total = k[:6]
    doubled, weighted, spare = k[1:3], k[:4], np.empty_like(y0)
    multiply, subtract, add, add_rows = np.multiply, np.subtract, np.add, np.add.reduce
    zero, sizes = np.array(-0.0), {}

    def step(y, h):
        nonlocal spare
        if h not in sizes:
            sizes[h] = np.array(0.5 * h), np.array(h), np.array(h / 6.0)
        half, whole, sixth = sizes[h]
        rhs(subtract(y, multiply(k1, half, point), point), k2)
        rhs(subtract(y, multiply(k2, half, point), point), k3)
        rhs(subtract(y, multiply(k3, whole, point), point), k4)
        add(doubled, doubled, doubled)
        add_rows(weighted, 0, None, total, False, zero)
        y_new, spare = subtract(y, multiply(total, sixth, total), spare), y
        return y_new, 0.0, evaluate(y_new, k1)

    return step


# Dormand–Prince 5(4) (J. Comput. Appl. Math. 6, 1980; scipy's RK45). Stage
# i > 0 is the velocity at y + h * _DP_A[i] @ k. The last row is also the
# 5th-order weights, so stage 7 is the velocity at the new point and becomes
# the next step's first (FSAL). _DP_E weighs the stages into the difference
# of the 5th- and the embedded 4th-order solution.
_DP_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])


def _error_ratio(err, y, y_new) -> float:
    """Max-norm of the flat ``err`` over ``_ATOL + _RTOL * max(|y|, |y_new|)``
    on every row but xi's, the last; infinite when not finite. It works in
    place in its scale and in ``err``, which it overwrites."""
    scale = np.abs(y[:-1])
    np.maximum(scale, np.abs(y_new[:-1]), out=scale)
    np.add(np.multiply(scale, _RTOL, scale), _ATOL, scale)
    ratios = err[:scale.size]
    np.divide(np.abs(ratios, ratios), scale.reshape(-1), ratios)
    ratio = float(ratios.max())
    return ratio if math.isfinite(ratio) else math.inf


def _dopri_step(y, h, k, rhs, evaluate):
    """One Dormand–Prince step, filling all 7 stages of ``k``.

    Its error ratio is that of the 5th- minus the 4th-order solution.
    """
    hA, flat = h * _DP_A, k.reshape(len(k), -1)  # flat: the stages as rows
    for i in range(1, 6):
        rhs(y - hA[i, :i].dot(flat[:i]).reshape(y.shape), k[i])
    y_new = y - hA[6].dot(flat[:6]).reshape(y.shape)
    state = evaluate(y_new)
    return y_new, _error_ratio((h * _DP_E).dot(flat), y, y_new), state


class _StiffnessTest:
    """Hairer's stiffness test on the stages of accepted Dormand–Prince steps.

    Stages 6 and 7 are velocities at two points ``h * (a7 - a6) @ k``
    apart, so ``|k7 - k6| / |(a7 - a6) @ k|`` estimates h times the
    Jacobian's spectral radius along the step; xi's row, left out, would dilute it.
    A norm is ``math.sqrt(v.dot(v))``, ``np.linalg.norm``'s formula for a vector.
    """

    _A76 = _DP_A[6] - _DP_A[5]

    def __init__(self):
        self.fails = self.passes = 0

    def stiff(self, k) -> bool:
        """Score the accepted step whose stages are ``k``; True once the run is stiff."""
        flat = k[:, :-1].reshape(len(k), -1)
        chord, stages = self._A76.dot(flat[:6]), flat[6] - flat[5]
        if math.sqrt(stages.dot(stages)) > _STIFF_H_LAMBDA * math.sqrt(chord.dot(chord)) > 0:
            self.fails, self.passes = self.fails + 1, 0
        else:
            self.passes += 1
            if self.passes == _STIFF_RESET:
                self.fails = 0
        return self.fails == _STIFF_FAILS


# RODAS4 (Hairer & Wanner, Solving ODEs II, §IV.7; rodas.f method 1): an
# L-stable, stiffly accurate Rosenbrock pair of order 4(3). With W = I / (h
# gamma) - J and J the Jacobian at y, stage i solves W K_i = f(y + _RO_A[i]
# @ K) + (_RO_C[i] / h) @ K. Stage 6's point is stage 5's plus K_5, and
# y_new is stage 6's point plus K_6, so K_6 is the error estimate. As the
# stages hold -f, ``_rodas_step`` solves for -K_i, by the same W.
_RO_GAMMA = 0.25
_RO_A = np.array([
    [0, 0, 0, 0, 0],
    [1.544, 0, 0, 0, 0],
    [0.9466785280815826, 0.2557011698983284, 0, 0, 0],
    [3.314825187068521, 2.896124015972201, 0.9986419139977817, 0, 0],
    [1.221224509226641, 6.019134481288629, 12.53708332932087, -0.6878860361058950, 0],
    [1.221224509226641, 6.019134481288629, 12.53708332932087, -0.6878860361058950, 1],
])
_RO_C = np.array([
    [0, 0, 0, 0, 0],
    [-5.6688, 0, 0, 0, 0],
    [-2.430093356833875, -0.2063599157091915, 0, 0, 0],
    [-0.1073529058151375, -9.594562251023355, -20.47028614809616, 0, 0],
    [7.496443313967647, -10.24680431464352, -33.99990352819905, 11.70890893206160, 0],
    [8.083246795921522, -7.981132988064893, -31.52159432874371, 16.31930543123136,
     -6.058818238834054],
])


def _rodas_step(y, h, k, rhs, evaluate, jacobian):
    """One RODAS4 step, given the Jacobian at ``y`` as ``(p, B, H)`` (``_w_solver``'s).

    Minus the velocities at the stage points go into ``k[1:6]``. Its error ratio
    is that of ``K_6``; it is infinite when ``W`` cannot be solved, so that
    the step is retried smaller.
    """
    try:
        solve = _w_solver(1.0 / (h * _RO_GAMMA), *jacobian)
    except np.linalg.LinAlgError:
        return y, np.inf, None
    K = np.empty((6, *y.shape))
    flat, C = K.reshape(6, -1), _RO_C / h
    K[0] = solve(k[0])
    for i in range(1, 6):
        f = rhs(y - _RO_A[i, :i].dot(flat[:i]).reshape(y.shape), k[i])
        K[i] = solve(f + C[i, :i].dot(flat[:i]).reshape(y.shape))
    y_new = y - _RO_A[5].dot(flat[:5]).reshape(y.shape) - K[5]
    state = evaluate(y_new)
    return y_new, _error_ratio(flat[5], y, y_new), state


def _drive(y0, loss, ctrl, factors, jacobian, positive=False, on_row=None):
    """Integrate ``dy/dt = -p * grad L(theta)``, ``theta = factors(y, p)``, under ``ctrl``.

    The state ``y`` is ``y0`` with xi's row appended, from 0, and is recorded
    as the layers ``y[:-1]`` and xi ``y[-1]``. The first flow hook,
    ``factors(y, out)``, reads the first ``len(y0)`` rows of ``y``, writes the
    velocity's factors P there into ``out``, the rows ``p[:-1]`` of the run's
    buffer ``p``, whose last row stays 1, and returns theta in a buffer that
    its next call may overwrite. ``rhs(y, out)`` hands that buffer to
    ``gradient`` and writes ``p * grad L(theta)``, minus the velocity at
    ``y``, into ``out``, a row of the stage buffer ``k``, and every stepper
    subtracts its stages. ``evaluate(y, out=k[-1])`` copies theta once, so
    the loss may keep the theta of ``value_and_gradient``, and writes the
    stage at ``y`` into ``out``.

    The steppers share one protocol: ``step(y, h)`` starts with the stage
    at ``y`` in ``k[0]``, writes its other stages into rows of ``k`` by
    ``rhs``, evaluates the loss at its new point once, by ``evaluate``,
    and returns ``(y_new, error_ratio, (theta, value, gradient))``. An
    adaptive step leaves the new point's stage in ``k[-1]`` and, when its
    ratio is at most 1, is accepted and hands ``k[-1]`` on as the next
    ``k[0]`` (FSAL). Fixed mode's RK4 stepper, built once per run, is
    always accepted, so it writes that stage into ``k[0]`` itself and no
    stage is copied; it writes each new state into the one of two reused
    buffers that the current state is not in, so a state lives until the
    step after next. Its steps cost three ``gradient`` calls and one
    ``value_and_gradient``. Adaptive mode's steps cost five
    and one per attempt, after which the controller rescales ``h`` by
    ``0.9 * ratio ** -(1 / (q + 1))``, clipped to [0.2, 5], with q the
    order of the step's error estimate. ``_error_ratio`` leaves xi's row
    out of the norm.

    The switch rule: adaptive runs start on Dormand–Prince (q = 4). When
    the loss has ``hessian(theta)``, every accepted step is scored by
    ``_StiffnessTest``, and a run that it finds stiff goes on with RODAS4
    (q = 3) for good. Its Jacobian, with H the loss's Hessian and g its
    gradient, is ``_w_solver``'s form

        J = -diag(P) (1 1^T kron H) diag(dtheta/dy) - (dP/dy) g,

    from the second hook, ``jacobian(y[:-1]) -> (dtheta/dy, dP/dy)``: at
    ``y0``'s m rows, an ``(m, d)`` array and one ``(m, m)`` block per
    coordinate. P is dtheta/dy, as for any map that acts coordinate by
    coordinate. Xi's row, on which nothing depends, is ``-H
    diag(dtheta/dy)``, so the buffers ``q``, ``right`` and ``B_xi`` take
    ``[dtheta/dy; 1]``, ``[dtheta/dy; 0]`` and the blocks times g with a
    zero row and column. With the Hessian they are taken once per accepted
    state, and each attempt builds one ``_w_solver`` from them. A run that
    never turns stiff keeps every float of a Dormand–Prince run. The step
    floor binds only after a rejected step. The snapshot rule, and
    ``on_row``, are ``_Columns``'s.
    """
    gradient, hessian = loss.gradient, getattr(loss, "hessian", None)
    value_and_gradient = getattr(loss, "value_and_gradient", None)
    if value_and_gradient is None:
        def value_and_gradient(theta):
            return loss.value(theta), gradient(theta)

    y = np.vstack([y0, np.zeros((1, y0.shape[1]))])
    k, p = np.empty((len(_DP_A), *y.shape)), np.ones_like(y)
    k_first, k_last, p_rows = k[0], k[-1], p[:-1]  # views

    def rhs(y, out):
        return np.multiply(p, gradient(factors(y, p_rows)), out)

    def evaluate(y, out=k_last):
        theta = factors(y, p_rows).copy()
        value, g = value_and_gradient(theta)
        np.multiply(p, g, out)
        return theta, value, g

    def dopri_step(y, h):
        return _dopri_step(y, h, k, rhs, evaluate)

    def rodas_step(y, h):  # y is the accepted state, at theta and g
        nonlocal jac
        if jac is None:  # once per accepted state: a retry from y reuses it
            right[:-1], curvature = jacobian(y[:-1])
            q[:-1] = right[:-1]
            np.multiply(curvature, g[:, None, None], B_xi[:, :-1, :-1])
            jac = (q, right, B_xi, hessian(theta))
        return _rodas_step(y, h, k, rhs, evaluate, jac)

    adaptive = ctrl.mode == "adaptive"
    stiffness = _StiffnessTest() if adaptive and hessian is not None else None
    t, h, jac, exponent = 0.0, ctrl.h, None, -0.2
    q, right, B_xi = np.ones_like(y), np.zeros_like(y), np.zeros((y.shape[1], len(y), len(y)))
    step = dopri_step if adaptive else _rk4_stepper(y, k, rhs, evaluate)
    optimum = getattr(loss, "optimal_value", 0.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        theta, val, g = evaluate(y, k_first)
        columns = _Columns((t, y, theta, val, g), ctrl, on_row)
        while (h := _next_step(t, h, ctrl.t_max)) is not None:
            y_new, ratio, state = step(y, h)
            if ratio <= 1.0:
                y, t = y_new, t + h
                theta, val, g = state
                jac = None
                _guard(y, theta, t, h, positive)
                columns.add(t, y, theta, val, g)
                if ctrl.stop_gap is not None and val - optimum <= ctrl.stop_gap:
                    break
                if not adaptive:  # RK4 left the next first stage in k[0]
                    continue
                if stiffness is not None and stiffness.stiff(k):
                    step, exponent, stiffness = rodas_step, -0.25, None
                k_first[...] = k_last
            # the step-size controller, which only adaptive steps reach
            factor = 5.0 if ratio == 0.0 else 0.9 * ratio ** exponent
            h *= min(max(factor, 0.2), 5.0)
            if ratio > 1.0 and h < _MIN_STEP_FRACTION * max(t, 1.0):
                raise StepUnderflowError(t, h)
    return Trajectory(*columns.kept(), optimum=optimum)
