"""Closed-form mirror maps and mirror-structure residuals.

Two parameterizations admit an explicit convex entropy whose gradient
inverts the map from the accumulated dual variable xi to theta:

* the two-layer diagonal network ``theta = u * v`` (hyperbolic-sine map),
* the tied deep network ``theta = u**L`` on the positive orthant
  (power map), for L >= 3.

For deeper untied networks no explicit entropy is computed here; the
first-order mirror identity is certified directly on trajectories via
``mirror_residual_general``, which needs no entropy at all and holds for
either flow, untied or tied (``Trajectory.tied``).

A closed-form map says which trajectories it describes by two attributes,
which are all that ``mirror_residual_closed_form`` checks: ``tied``, the
flow it belongs to, and ``layers0``, the ``(L, d)`` initial layers it was
built from. A new map needs both and nothing else from this module.

Entropy normalizations are fixed by the defining identity
``grad Q(theta) = dual_scale * xi_from_theta(theta)``; the finite-difference
tests pin that identity rather than any particular constant convention.
"""

from __future__ import annotations

import numpy as np

from .conservation import SingularMobilityError
from .flow import Trajectory
from .model import check_tied, mobility

DELTA0_RTOL = 1e-12


class HyperbolicEntropy:
    """Mirror map of the two-layer diagonal network ``theta = u * v``.

    Built from the initialization: ``delta0 = |u0^2 - v0^2|`` (must be
    strictly positive in every coordinate) and the log-ratio shift
    ``log |(u0 + v0) / (u0 - v0)|``. The dual map sends xi to
    ``delta0/2 * sinh(2 xi + shift)``. It is symmetric in u0 and v0,
    coordinate by coordinate.
    """

    dual_scale = 1.0
    tied = False

    def __init__(self, u0, v0):
        u0 = np.asarray(u0, dtype=float)
        v0 = np.asarray(v0, dtype=float)
        if u0.shape != v0.shape or u0.ndim != 1:
            raise ValueError("u0 and v0 must be equal-length vectors")
        if not (np.isfinite(u0).all() and np.isfinite(v0).all()):
            raise ValueError("u0 and v0 must be finite")
        delta0 = np.abs(u0 ** 2 - v0 ** 2)
        floor = DELTA0_RTOL * np.maximum(u0 ** 2, v0 ** 2)
        if np.any(delta0 <= 0) or np.any(delta0 < floor):
            raise ValueError(
                "|u0| and |v0| coincide (or nearly so) in some coordinate; "
                "the map is singular there"
            )
        self.u0 = u0
        self.v0 = v0
        self.layers0 = np.stack([u0, v0])
        self.delta0 = delta0
        self.shift = np.log(np.abs((u0 + v0) / (u0 - v0)))

    def theta_from_xi(self, xi):
        return 0.5 * self.delta0 * np.sinh(2.0 * np.asarray(xi) + self.shift)

    def xi_from_theta(self, theta):
        return 0.5 * (np.arcsinh(2.0 * np.asarray(theta) / self.delta0) - self.shift)

    def dtheta_dxi(self, xi):
        return self.delta0 * np.cosh(2.0 * np.asarray(xi) + self.shift)

    def grad(self, theta):
        """Gradient of the entropy; coincides with ``xi_from_theta``."""
        return self.xi_from_theta(theta)

    def value(self, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        d0 = self.delta0
        core = (
            2.0 * theta * np.arcsinh(2.0 * theta / d0)
            - np.sqrt(4.0 * theta ** 2 + d0 ** 2)
            + d0
        )
        return float(0.25 * np.sum(core) - 0.5 * (self.shift @ theta))


class PowerEntropy:
    """Mirror map of the tied deep network ``theta = u**L``, L >= 3.

    Defined on the positive orthant from a strictly positive initialization.
    The dual map absorbs the ``L(L-2)`` rescaling, so it sends the raw
    accumulated dual variable xi to
    ``(u0**-(L-2) - L(L-2) xi)**(-L/(L-2))``; the entropy gradient equals
    ``L(L-2)`` times ``xi_from_theta`` (exposed as ``dual_scale``).
    """

    tied = True

    def __init__(self, u0, num_layers: int):
        self.u0, self.num_layers = check_tied(u0, num_layers)
        self.layers0 = np.tile(self.u0, (self.num_layers, 1))
        self.dual_scale = float(self.num_layers * (self.num_layers - 2))

    def _base(self, xi):
        L = self.num_layers
        base = self.u0 ** (-(L - 2)) - self.dual_scale * np.asarray(xi)
        if np.any(base <= 0):
            raise ValueError("xi outside the map's domain (theta would leave the positive orthant)")
        return base

    def theta_from_xi(self, xi):
        L = self.num_layers
        return self._base(xi) ** (-L / (L - 2))

    def xi_from_theta(self, theta):
        return self.grad(theta) / self.dual_scale

    def dtheta_dxi(self, xi):
        L = self.num_layers
        return L ** 2 * self._base(xi) ** (-(2 * L - 2) / (L - 2))

    def grad(self, theta):
        theta = self._check_positive(theta)
        L = self.num_layers
        return self.u0 ** (-(L - 2)) - theta ** (-(L - 2) / L)

    def value(self, theta) -> float:
        theta = self._check_positive(theta)
        L = self.num_layers
        return float(
            self.u0 ** (-(L - 2)) @ theta - 0.5 * L * np.sum(theta ** (2.0 / L))
        )

    @staticmethod
    def _check_positive(theta):
        theta = np.asarray(theta, dtype=float)
        if np.any(theta <= 0):
            raise ValueError("theta must be strictly positive componentwise")
        return theta


def _check_match(traj: Trajectory, entropy) -> None:
    """``ValueError`` unless ``entropy`` describes ``traj``: the same flow
    (``tied``), the same ``(L, d)`` layer shape and, per coordinate, the
    same initial values in any layer order; ``TypeError`` for an object
    without ``layers0``."""
    if not hasattr(entropy, "layers0"):
        raise TypeError(f"unsupported entropy type {type(entropy).__name__}")
    if traj.tied != entropy.tied:
        raise ValueError("the entropy belongs to the other flow, tied or untied")
    if traj.layers.shape[1:] != entropy.layers0.shape:
        raise ValueError("layer count or dimension differs between trajectory and entropy")
    if not np.allclose(np.sort(traj.layers[0], axis=0), np.sort(entropy.layers0, axis=0)):
        raise ValueError("entropy was built from a different initialization")


def mirror_residual_closed_form(traj: Trajectory, entropy) -> float:
    """Max over the grid of ``|xi_from_theta(theta(t)) - xi(t)|_inf``.

    Certifies the closed-form mirror identity for a trajectory of the flow
    the map was built for, from its initial layers (``_check_match``).
    """
    _check_match(traj, entropy)
    res = entropy.xi_from_theta(traj.thetas) - traj.xi
    return float(np.max(np.abs(res)))


def mirror_residual_general(traj: Trajectory) -> float:
    """Max residual of the first-order mirror identity, either flow.

    Evaluates ``|d theta/dt / m(t) + grad L(theta(t))|_inf`` at interior grid
    points, with the time derivative by second-order (non-uniform) central
    differences, ``m`` the mobility diagonal and the recorded ``traj.grads``;
    certifying the identity requires no knowledge of the entropy or the loss.
    On a tied trajectory ``m`` is L times the mobility of its L recorded
    copies, since there ``d theta/dt = -L**2 u**(2L-2) grad L``.
    """
    if len(traj) < 3:
        raise ValueError("need at least 3 grid points for central differences")
    return float(np.max([_first_order_residual(part) for part in traj.blocks(overlap=2)]))


def _first_order_residual(traj: Trajectory) -> float:
    t = traj.times
    th = traj.thetas
    m = mobility(traj.layers)
    if traj.tied:
        m *= traj.num_layers
    if np.any(m[1:-1] == 0.0):
        raise SingularMobilityError(
            "mobility diagonal vanishes: the mirror residual is undefined where two zero "
            "nodes share a coordinate; use at most one zero node per coordinate")
    hp = t[2:] - t[1:-1]
    hm = t[1:-1] - t[:-2]
    num = (
        (hm ** 2)[:, None] * th[2:]
        + ((hp ** 2 - hm ** 2))[:, None] * th[1:-1]
        - (hp ** 2)[:, None] * th[:-2]
    )
    dtheta = num / (hm * hp * (hm + hp))[:, None]
    res = dtheta / m[1:-1] + traj.grads[1:-1]
    return np.max(np.abs(res))
