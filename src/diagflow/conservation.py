"""Conserved quantities and sign structure of the layer flow.

Along the gradient flow every layer shares one drift: the squared-weight
differences ``u^j(t)**2 - u^j(0)**2`` coincide across layers ``j`` (their
common time derivative is ``-2 * theta * grad L(theta)``). Two workhorse
consequences are implemented here:

* a node that does not carry the minimal initial absolute value of its
  coordinate can never reach zero, so only minimal nodes may change sign;
* after permuting the minimal nodes into the first layer, the whole theta
  trajectory is a closed-form function of that layer and the initialization,
  and the flow's mobility matrix admits a time-independent positive lower
  bound computed from the initialization alone.

The uniqueness precondition for all of this is that each coordinate's
minimal-absolute-value node is unique across layers at initialization;
``locate_min_layers`` checks it by exact float equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .flow import Trajectory
from .model import LayerStack


class TiedMinimumError(ValueError):
    """The unique-minimal-node condition fails at initialization."""


class SingularMobilityError(RuntimeError):
    """The mobility diagonal has a zero entry and cannot be inverted."""


@dataclass(frozen=True, eq=False)
class MinLayerIndex:
    """Per-coordinate location of the minimal-|weight| node at t=0."""

    layer: np.ndarray   # (d,) int, argmin over layers of |u(0)|
    unique: np.ndarray  # (d,) bool, exactly one argmin

    @property
    def holds(self) -> bool:
        return bool(np.all(self.unique))


@dataclass(frozen=True, eq=False)
class PermutedStack:
    """Layers reordered so the first one gathers all minimal nodes.

    ``deltas[j-1]`` is ``v^j(0)**2 - v^1(0)**2`` and ``signs[j-1]`` is
    ``sign(v^j(0))`` for the non-minimal layers j = 2..L; both are constant
    along the flow and strictly positive / nonzero under the uniqueness
    condition.
    """

    stack: LayerStack     # the permuted layers v^1..v^L
    deltas: np.ndarray    # (L-1, d)
    signs: np.ndarray     # (L-1, d)


@dataclass(frozen=True, eq=False)
class SigmaBound:
    """Initialization-dependent lower bound on the mobility diagonal."""

    sigma: float
    per_coordinate: np.ndarray  # (d,)


def locate_min_layers(stack0: LayerStack) -> MinLayerIndex:
    """Find each coordinate's minimal-|weight| layer and detect ties.

    Tie detection uses exact float equality; a violation is reported in the
    result, not raised.
    """
    a = np.abs(stack0.layers)
    m = a.min(axis=0)
    layer = np.argmin(a, axis=0)
    unique = (a == m).sum(axis=0) == 1
    return MinLayerIndex(layer=layer, unique=unique)


def conservation_defect(traj: Trajectory) -> np.ndarray:
    """Max deviation of the shared squared-weight drift, per layer pair.

    Entry (j, k) is ``max_{t,i} |(u^j_i(t)^2 - u^j_i(0)^2)
    - (u^k_i(t)^2 - u^k_i(0)^2)|``; exactly zero on a perfect flow.
    """
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    sq0 = traj.layers[0] ** 2
    defect = np.zeros((traj.num_layers, traj.num_layers))
    for part in traj.blocks():
        drift = part.layers ** 2
        drift -= sq0
        # one pair at a time keeps the temporaries at (block, d), not (block, L, L, d)
        for j, k in itertools.combinations(range(traj.num_layers), 2):
            worst = np.max(np.abs(drift[:, j] - drift[:, k]))
            defect[j, k] = defect[k, j] = np.maximum(defect[j, k], worst)
    return defect


@dataclass(frozen=True, eq=False)
class SignCensus:
    """Which nodes changed sign or touched zero along the snapshots."""

    flagged: np.ndarray  # (L, d) bool
    violations: tuple    # ((coordinate, layer), ...) for non-minimal nodes

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


def sign_census(traj: Trajectory, idx: MinLayerIndex) -> SignCensus:
    """Census of sign changes at snapshot resolution.

    A crossing is a negative sign product between consecutive snapshots; a
    node evaluating exactly to zero at any snapshot also counts. The census
    sees the recorded (possibly decimated) snapshots, not every integrator
    step, so double crossings between snapshots are invisible.
    A violation is any flagged node outside its coordinate's minimal layer.
    """
    flagged = np.zeros(traj.layers.shape[1:], bool)
    for part in traj.blocks(overlap=1):
        u = part.layers
        s = np.sign(u)
        flagged |= (s[:-1] * s[1:] < 0).any(axis=0) | (u == 0.0).any(axis=0)
    violations = []
    for j, i in zip(*np.nonzero(flagged)):
        if j != idx.layer[i]:
            violations.append((int(i), int(j)))
    return SignCensus(flagged=flagged, violations=tuple(violations))


def min_layer_permutation(stack0: LayerStack, idx: MinLayerIndex) -> PermutedStack:
    """Swap each coordinate's minimal node into the first layer.

    The displaced first-layer node moves into the vacated slot, so theta is
    unchanged up to float product reordering.
    """
    if not idx.holds:
        raise TiedMinimumError("tied minimal nodes: permutation is ill-defined")
    v = stack0.layers.copy()
    cols = np.arange(stack0.dim)
    v[0, cols] = stack0.layers[idx.layer, cols]
    v[idx.layer, cols] = stack0.layers[0, cols]
    deltas = v[1:] ** 2 - v[0] ** 2
    signs = np.sign(v[1:])
    return PermutedStack(stack=LayerStack(v), deltas=deltas, signs=signs)


def reconstruct_theta(v1_t: np.ndarray, perm: PermutedStack) -> np.ndarray:
    """Rebuild theta(t) from the minimal layer's current value alone.

    Uses ``theta = sign(prod_{j>=2} v^j(0)) * v^1(t)
    * prod_{j>=2} sqrt(v^1(t)^2 + deltas_j)``; the signed ``v^1(t)`` factor
    keeps the reconstruction valid after minimal nodes cross zero.
    ``v1_t`` has shape ``(..., d)``: one snapshot or a stack of them.
    """
    v1_t = np.asarray(v1_t, dtype=float)
    rad = v1_t[..., None, :] ** 2 + perm.deltas
    if np.any(rad < 0):
        raise ValueError("negative radicand: inputs inconsistent with the initialization")
    return np.prod(perm.signs, axis=0) * v1_t * np.prod(np.sqrt(rad), axis=-2)


def reconstruction_error(traj: Trajectory, idx: MinLayerIndex) -> float:
    """Max gap between the reconstructed and the recorded theta trajectory.

    Gathers the minimal layer's values at every snapshot and rebuilds theta
    through ``reconstruct_theta``; small on an accurate flow.
    """
    perm = min_layer_permutation(traj.stack_at(0), idx)
    cols = np.arange(traj.dim)
    return float(np.max([
        np.max(np.abs(reconstruct_theta(part.layers[:, idx.layer, cols], perm) - part.thetas))
        for part in traj.blocks()
    ]))


def sigma_lower_bound(stack0: LayerStack, idx: MinLayerIndex) -> SigmaBound:
    """Time-independent lower bound on the mobility diagonal.

    Per coordinate i: ``prod_{k != k_i} (u^k_i(0)^2 - u^{k_i}_i(0)^2)`` with
    ``k_i`` the minimal layer; sigma is the minimum over coordinates and is
    strictly positive under the uniqueness condition.
    """
    if not idx.holds:
        raise TiedMinimumError("tied minimal nodes: the lower bound degenerates to zero")
    sq0 = stack0.layers ** 2
    cols = np.arange(stack0.dim)
    diffs = sq0 - sq0[idx.layer, cols]
    diffs[idx.layer, cols] = 1.0
    per = np.prod(diffs, axis=0)
    return SigmaBound(sigma=float(per.min()), per_coordinate=per)
