import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diagflow import (
    TiedMinimumError,
    InitScheme,
    LayerStack,
    PermutedStack,
    QuadraticLoss,
    StepController,
    Trajectory,
    conservation_defect,
    init_layers,
    integrate,
    locate_min_layers,
    make_problem,
    min_layer_permutation,
    mirror_residual_general,
    mobility,
    reconstruct_theta,
    reconstruction_error,
    sigma_lower_bound,
    sign_census,
    theta_of_layers,
)
from diagflow.flow import SNAPSHOT_BLOCK


@pytest.fixture(scope="module")
def deep_run():
    loss = make_problem(7, 5, 100, x_scale=0.5)
    stack0 = init_layers(5, 4, InitScheme("uniform"), seed=101)
    traj = integrate(stack0, loss, StepController(t_max=10.0))
    return stack0, traj


def test_locate_min_layers_tie_detection():
    idx = locate_min_layers(LayerStack([[1.0, 1.0], [1.0, 2.0]]))
    assert not idx.unique[0] and idx.unique[1]
    assert not idx.holds

    idx = locate_min_layers(LayerStack([[-1.0, 2.0], [2.0, 1.0]]))
    assert idx.holds
    assert np.array_equal(idx.layer, [0, 1])


def test_random_initialization_avoids_ties():
    violations = 0
    for seed in range(1000):
        stack = init_layers(4, 3, InitScheme("uniform"), seed=seed)
        if not locate_min_layers(stack).holds:
            violations += 1
    assert violations == 0


def _single_point_trajectory(stack):
    return Trajectory(
        times=np.zeros(1),
        layers=stack.layers[None],
        thetas=stack.theta[None],
        xi=np.zeros((1, stack.dim)),
        losses=np.zeros(1),
        grads=np.zeros((1, stack.dim)),
    )


def test_conservation_defect_at_initialization_only():
    stack = LayerStack([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    defect = conservation_defect(_single_point_trajectory(stack))
    assert np.array_equal(defect, np.zeros((3, 3)))


def test_conservation_defect_zero_on_equilibrium():
    loss = QuadraticLoss(np.array([[1.0]]), np.array([6.0]))
    traj = integrate(LayerStack([[2.0], [3.0]]), loss, StepController(t_max=1.0))
    assert np.array_equal(conservation_defect(traj), np.zeros((2, 2)))


def test_conservation_defect_known_pairwise_values():
    # coordinate 1 drifts by (3, 0, 0) across the layers, coordinate 2 by (0, 8, 0)
    layers = np.array([[[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]],
                       [[2.0, 1.0], [2.0, 3.0], [3.0, 1.0]]])
    traj = Trajectory(times=np.arange(2.0), layers=layers, thetas=layers.prod(axis=1),
                      xi=np.zeros((2, 2)), losses=np.zeros(2), grads=np.zeros((2, 2)))
    expected = np.array([[0.0, 8.0, 3.0], [8.0, 0.0, 8.0], [3.0, 8.0, 0.0]])
    assert np.array_equal(conservation_defect(traj), expected)
    assert np.array_equal(conservation_defect(replace(traj, layers=layers[..., :1])),
                          [[0.0, 3.0, 3.0], [3.0, 0.0, 0.0], [3.0, 0.0, 0.0]])


def test_conservation_defect_small_along_flow(deep_run):
    _, traj = deep_run
    defect = conservation_defect(traj)
    assert defect.shape == (4, 4)
    assert np.array_equal(defect, defect.T)
    assert defect.max() <= 1e-6


def test_sign_census_clean_on_equilibrium():
    loss = QuadraticLoss(np.array([[1.0]]), np.array([6.0]))
    stack = LayerStack([[2.0], [3.0]])
    traj = integrate(stack, loss, StepController(t_max=1.0))
    census = sign_census(traj, locate_min_layers(stack))
    assert census.ok
    assert census.flagged.sum() == 0


def test_sign_census_only_minimal_layers_cross(deep_run):
    stack0, traj = deep_run
    census = sign_census(traj, locate_min_layers(stack0))
    assert census.ok


def test_sign_census_random_sweep():
    for seed in range(8):
        L = [2, 3, 4, 5][seed % 4]
        loss = make_problem(6, 4, 300 + seed, x_scale=0.5)
        stack0 = init_layers(4, L, InitScheme("uniform"), seed=400 + seed)
        idx = locate_min_layers(stack0)
        assert idx.holds
        traj = integrate(stack0, loss, StepController(t_max=3.0))
        assert sign_census(traj, idx).ok


def test_permutation_identity_when_first_layer_minimal():
    stack = LayerStack([[0.1, -0.2], [1.0, 2.0], [3.0, 4.0]])
    perm = min_layer_permutation(stack, locate_min_layers(stack))
    assert np.array_equal(perm.stack.layers, stack.layers)


def test_permutation_scalar_swap():
    stack = LayerStack([[5.0], [2.0]])
    perm = min_layer_permutation(stack, locate_min_layers(stack))
    assert np.array_equal(perm.stack.layers, [[2.0], [5.0]])
    assert np.array_equal(perm.deltas, [[21.0]])
    assert np.array_equal(perm.signs, [[1.0]])


def test_permutation_preserves_theta():
    rng = np.random.default_rng(42)
    for _ in range(50):
        L = int(rng.integers(2, 6))
        stack = LayerStack(rng.uniform(-2, 2, (L, 4)))
        idx = locate_min_layers(stack)
        if not idx.holds:
            continue
        perm = min_layer_permutation(stack, idx)
        # the swap only reorders factors; the product agrees to rounding
        np.testing.assert_allclose(perm.stack.theta, stack.theta, rtol=1e-13)


def test_permutation_requires_unique_minima():
    stack = LayerStack([[1.0], [1.0]])
    with pytest.raises(TiedMinimumError):
        min_layer_permutation(stack, locate_min_layers(stack))


def test_reconstruct_theta_at_initialization():
    rng = np.random.default_rng(43)
    stack = LayerStack(rng.uniform(-2, 2, (4, 6)))
    idx = locate_min_layers(stack)
    perm = min_layer_permutation(stack, idx)
    rec = reconstruct_theta(perm.stack.layers[0], perm)
    np.testing.assert_allclose(rec, stack.theta, rtol=1e-12)


def test_reconstruct_theta_two_layer_form():
    stack = LayerStack([[0.3, -0.1], [1.5, -2.0]])
    perm = min_layer_permutation(stack, locate_min_layers(stack))
    v1 = np.array([0.4, 0.2])
    expected = np.sign(perm.stack.layers[1]) * v1 * np.sqrt(v1**2 + perm.deltas[0])
    np.testing.assert_allclose(reconstruct_theta(v1, perm), expected, rtol=1e-15)


@given(st.integers(2, 5), st.integers(1, 4), st.data())
def test_reconstruct_theta_matches_layer_product(num_layers, dim, data):
    L, d = num_layers, dim

    def draw(shape, elements):
        return data.draw(arrays(float, shape, elements=elements))
    # per coordinate: a minimal magnitude m, the others sqrt(m**2 + gap) with
    # gap >= 0.05, random signs, and the minimal node in a random layer;
    # subnormal nodes would make theta's relative error meaningless
    m = draw(d, st.floats(0.0, 2.0, allow_subnormal=False))
    mags = np.vstack([m, np.sqrt(m ** 2 + draw((L - 1, d), st.floats(0.05, 4.0)))])
    signs = draw((L, d), st.sampled_from([-1.0, 1.0]))
    order = np.stack([data.draw(st.permutations(range(L))) for _ in range(d)], axis=1)
    stack0 = LayerStack(np.take_along_axis(mags * signs, order, axis=0))
    idx = locate_min_layers(stack0)
    assert idx.holds
    perm = min_layer_permutation(stack0, idx)
    cols = np.arange(d)
    # a later state: the minimal node moves to v1 (possibly through zero), every
    # other node by the shared drift v1**2 - m**2 of the conservation law
    v1 = draw(d, st.floats(-3.0, 3.0, allow_subnormal=False))
    drift = v1 ** 2 - stack0.layers[idx.layer, cols] ** 2
    layers = np.sign(stack0.layers) * np.sqrt(stack0.layers ** 2 + drift)
    layers[idx.layer, cols] = v1
    np.testing.assert_allclose(reconstruct_theta(v1, perm), theta_of_layers(layers), rtol=1e-10)


def test_reconstruction_error_small_along_flow(deep_run):
    stack0, traj = deep_run
    assert reconstruction_error(traj, locate_min_layers(stack0)) <= 1e-6


def test_reconstruct_theta_negative_radicand():
    perm = PermutedStack(
        stack=LayerStack([[0.1], [1.0]]),
        deltas=np.array([[-1.0]]),
        signs=np.array([[1.0]]),
    )
    with pytest.raises(ValueError):
        reconstruct_theta(np.array([0.5]), perm)


def test_mobility_diagonal_values():
    assert np.array_equal(
        mobility(np.array([[1.0, 2.0], [3.0, 4.0]])), [10.0, 20.0]
    )
    assert np.array_equal(
        mobility(np.array([[1.0], [2.0], [3.0]])), [49.0]
    )


def test_sigma_lower_bound_values():
    stack = LayerStack([[1.0], [2.0], [3.0]])
    bound = sigma_lower_bound(stack, locate_min_layers(stack))
    assert bound.sigma == 24.0

    stack = LayerStack([[1.0, 3.0], [2.0, 2.0]])
    bound = sigma_lower_bound(stack, locate_min_layers(stack))
    assert np.array_equal(bound.per_coordinate, [3.0, 5.0])
    assert bound.sigma == 3.0


def test_sigma_lower_bound_requires_uniqueness():
    stack = LayerStack([[1.0], [-1.0]])
    with pytest.raises(TiedMinimumError):
        sigma_lower_bound(stack, locate_min_layers(stack))


def test_mobility_dominates_sigma_bound_along_flow(deep_run):
    stack0, traj = deep_run
    idx = locate_min_layers(stack0)
    bound = sigma_lower_bound(stack0, idx)
    slack = 1e-9 * max(1.0, float(bound.per_coordinate.max()))
    for k in range(0, len(traj), 50):
        m = mobility(traj.layers[k])
        assert np.all(m >= bound.per_coordinate - slack)
        assert m.min() >= bound.sigma - slack


def test_mobility_bound_sweep():
    # the time-independent lower bound holds along many independent flows
    for seed in range(6):
        L = [2, 3, 4, 5][seed % 4]
        loss = make_problem(6, 4, 800 + seed, x_scale=0.5)
        stack0 = init_layers(4, L, InitScheme("uniform"), seed=900 + seed)
        idx = locate_min_layers(stack0)
        bound = sigma_lower_bound(stack0, idx)
        traj = integrate(stack0, loss, StepController(t_max=2.0))
        for k in range(0, len(traj), 25):
            assert mobility(traj.layers[k]).min() >= bound.sigma - 1e-9


# The diagnostics as whole-trajectory formulas, before they walked the
# snapshots in blocks: the reference the block-wise versions must equal bit
# for bit.
def _whole_defect(traj):
    sq = traj.layers ** 2
    drift = sq - sq[0]
    defect = np.zeros((traj.num_layers, traj.num_layers))
    for j, k in itertools.combinations(range(traj.num_layers), 2):
        defect[j, k] = defect[k, j] = np.max(np.abs(drift[:, j] - drift[:, k]))
    return defect


def _whole_flagged(traj):
    u = traj.layers
    s = np.sign(u)
    crossed = (s[:-1] * s[1:] < 0).any(axis=0) if len(traj) > 1 else np.zeros(u.shape[1:], bool)
    return crossed | (u == 0.0).any(axis=0)


def _whole_reconstruction(traj, idx):
    perm = min_layer_permutation(traj.stack_at(0), idx)
    v1 = traj.layers[:, idx.layer, np.arange(traj.dim)]
    return float(np.max(np.abs(reconstruct_theta(v1, perm) - traj.thetas)))


def _whole_mirror_residual(traj):
    t, th = traj.times, traj.thetas
    m = mobility(traj.layers)
    hp = t[2:] - t[1:-1]
    hm = t[1:-1] - t[:-2]
    num = (
        (hm ** 2)[:, None] * th[2:]
        + ((hp ** 2 - hm ** 2))[:, None] * th[1:-1]
        - (hp ** 2)[:, None] * th[:-2]
    )
    dtheta = num / (hm * hp * (hm + hp))[:, None]
    return float(np.max(np.abs(dtheta / m[1:-1] + traj.grads[1:-1])))


def test_blockwise_diagnostics_equal_whole_trajectory_formulas():
    B = SNAPSHOT_BLOCK
    loss = make_problem(6, 4, 31)
    stack0 = init_layers(4, 3, InitScheme("uniform"), seed=32)
    idx = locate_min_layers(stack0)
    assert idx.holds
    # 2.75 blocks of snapshots, the last block partial
    traj = integrate(stack0, loss, StepController(h=1e-3, t_max=2.75 * B * 1e-3, max_points=10**6))
    layers = traj.layers.copy()
    # a non-minimal node crosses zero between the last row of one block and
    # the first row of the next, and nowhere else
    j = (idx.layer[0] + 1) % 3
    assert np.all(layers[:, j, 0] > 0) or np.all(layers[:, j, 0] < 0)
    layers[B:, j, 0] *= -1.0
    # a minimal node touches zero in the last, partial block
    layers[2 * B + B // 2, idx.layer[1], 1] = 0.0
    # the largest mirror residual sits at the last row of the first block,
    # whose central difference needs the first row of the next
    grads = traj.grads.copy()
    grads[B - 1] += 1e6
    traj = replace(traj, layers=layers, grads=grads)
    parts = list(traj.blocks())
    assert len(parts) == 3 and 0 < len(parts[-1]) < B

    assert np.array_equal(conservation_defect(traj), _whole_defect(traj))
    census = sign_census(traj, idx)
    assert np.array_equal(census.flagged, _whole_flagged(traj))
    assert census.flagged[j, 0] and census.flagged[idx.layer[1], 1]
    assert census.violations == ((0, j),)
    assert reconstruction_error(traj, idx) == _whole_reconstruction(traj, idx)
    assert mirror_residual_general(traj) == _whole_mirror_residual(traj) > 1e5
