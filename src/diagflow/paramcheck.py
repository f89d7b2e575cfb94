"""Certification of the product parameterization ``theta = u^1 * ... * u^L``.

Every function takes the weights as an ``(L, d)`` layer array ``u``, as the
flow does. Derivatives of theta are taken with respect to the ``L*d`` nodes
in coordinate-major order: column ``i*L + j`` of the Jacobian and of each
coordinate Hessian is node ``u[j, i]``, so coordinate ``i``'s ``L`` nodes form
the contiguous block ``i``. This module checks, numerically, the
structural facts the mirror-flow argument rests on:

* blocks have disjoint supports, so second-derivative/gradient products
  commute across output coordinates exactly;
* the Jacobian keeps full row rank ``d`` wherever every coordinate has at
  most one zero node (the working manifold), and the flow never leaves that
  set when started inside it.

The disjoint supports also make the flows generated by the coordinate
gradient fields act on separate variables, so their domains are symmetric
under composition by construction; there is nothing finite to check for
that and no test is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conservation import locate_min_layers
from .flow import Trajectory
from .model import InitScheme, init_layers, leave_one_out_products

RANK_TOL = 1e-10


def _checked(u: np.ndarray, i: int | None = None) -> np.ndarray:
    """``u`` as a float ``(L, d)`` array; ``i``, if given, must be a coordinate."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise ValueError(f"layers have shape {u.shape}, expected (L, d)")
    if i is not None and not 0 <= i < u.shape[1]:
        raise IndexError(f"coordinate {i} out of range [0, {u.shape[1]})")
    return u


def coordinate_gradient(u: np.ndarray, i: int) -> np.ndarray:
    """Gradient of output coordinate i; supported on block i only."""
    return jacobian(_checked(u, i))[i]


def coordinate_hessian(u: np.ndarray, i: int) -> np.ndarray:
    """Hessian of output coordinate i; zero outside block i, zero diagonal."""
    u = _checked(u, i)
    L, d = u.shape
    H = np.zeros((L * d, L * d))
    for a in range(L):
        for b in range(a + 1, L):
            keep = [m for m in range(L) if m != a and m != b]
            v = float(np.prod(u[keep, i]))
            H[i * L + a, i * L + b] = v
            H[i * L + b, i * L + a] = v
    return H


def commuting_defect(u: np.ndarray, i1: int, i2: int) -> float:
    """Inf-norm of the commutator of second-derivative/gradient products.

    Identically zero for the product map: distinct blocks share no
    variables, and the self-commutator cancels termwise.
    """
    g1 = coordinate_gradient(u, i1)
    g2 = coordinate_gradient(u, i2)
    h1 = coordinate_hessian(u, i1)
    h2 = coordinate_hessian(u, i2)
    return float(np.max(np.abs(h1 @ g2 - h2 @ g1)))


def jacobian(u: np.ndarray) -> np.ndarray:
    """Jacobian of theta, shape (d, L*d): ``J[i, i*L + j] = prod_{k != j} u[k, i]``."""
    u = _checked(u)
    L, d = u.shape
    J = np.zeros((d, d, L))
    J[np.arange(d), np.arange(d)] = leave_one_out_products(u).T
    return J.reshape(d, L * d)


def jacobian_rank(u: np.ndarray) -> int:
    """Numerical rank via singular values at or above ``RANK_TOL * s_max``."""
    s = np.linalg.svd(jacobian(u), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s >= RANK_TOL * s[0]))


def on_manifold(layers: np.ndarray) -> bool:
    """True iff every coordinate of ``(..., L, d)`` layers has at most one zero node."""
    return bool(((np.asarray(layers) == 0.0).sum(axis=-2) <= 1).all())


def trajectory_on_manifold(traj: Trajectory) -> bool:
    """Manifold membership of every recorded snapshot."""
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    return on_manifold(traj.layers)


@dataclass(frozen=True, eq=False)
class Certificate:
    """What ``certify`` measured at one shape, with the value each field must have."""

    max_defect: float            # commuting defect at random points: exactly 0
    ranks_ok: bool               # rank == dim at every sampled point on the manifold
    rank_one_block: int          # two zero nodes in block 1: dim - 1
    rank_two_blocks: int | None  # and two in block 2 (dim >= 2): dim - 2
    control_defect: float        # control map sharing a variable: clearly nonzero
    init_on_manifold: bool       # a uniform init with unique minimal nodes is on it


def certify(num_layers: int, dim: int, samples: int, seed: int) -> Certificate:
    """Certify the product map at one shape from ``samples`` seeded draws.

    Each draw fills the nodes in the Jacobian's column order. Every other
    rank sample has one zero node in each coordinate. The control map
    ``(w1 w2, w1 w3)`` shares ``w1`` across outputs, so its commutator is
    nonzero: it shows that the defect check can fail.
    """
    rng = np.random.default_rng(seed)
    L, d = num_layers, dim

    max_defect = 0.0
    for _ in range(samples):
        u = rng.uniform(-2.0, 2.0, L * d).reshape(d, L).T
        i1, i2 = rng.integers(0, d, size=2)
        max_defect = max(max_defect, commuting_defect(u, int(i1), int(i2)))

    ranks_ok = True
    for k in range(samples):
        u = (rng.uniform(0.2, 2.0, L * d) * rng.choice([-1.0, 1.0], L * d)).reshape(d, L).T
        if k % 2 == 1:
            u[rng.integers(0, L, size=d), np.arange(d)] = 0.0
        ranks_ok &= jacobian_rank(u) == d

    u = rng.uniform(0.2, 2.0, L * d).reshape(d, L).T
    u[:2, 0] = 0.0
    rank_one_block = jacobian_rank(u)
    rank_two_blocks = None
    if d >= 2:
        u[:2, 1] = 0.0
        rank_two_blocks = jacobian_rank(u)

    wc = rng.uniform(0.5, 1.5, 3)
    g1 = np.array([wc[1], wc[0], 0.0])
    g2 = np.array([wc[2], 0.0, wc[0]])
    h1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    h2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    control_defect = float(np.max(np.abs(h1 @ g2 - h2 @ g1)))

    stack0 = init_layers(d, L, InitScheme("uniform"), seed=seed)
    bridge = locate_min_layers(stack0).holds and on_manifold(stack0.layers)
    return Certificate(max_defect, bool(ranks_ok), rank_one_block, rank_two_blocks,
                       control_defect, bridge)
