import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diagflow import (
    FlatParams,
    InitScheme,
    LayerStack,
    QuadraticLoss,
    StepController,
    commuting_defect,
    coordinate_gradient,
    coordinate_hessian,
    init_layers,
    integrate,
    jacobian,
    jacobian_rank,
    locate_min_layers,
    make_problem,
    on_manifold,
    theta_of_flat,
    theta_of_layers,
    trajectory_on_manifold,
)


def test_flattening_is_coordinate_major():
    stack = LayerStack([[1.0, 2.0], [3.0, 4.0]])
    fp = FlatParams.from_stack(stack)
    assert np.array_equal(fp.w, [1.0, 3.0, 2.0, 4.0])
    assert np.array_equal(theta_of_flat(fp), [3.0, 8.0])


@given(st.integers(2, 6), st.integers(1, 5), st.data())
def test_flattening_roundtrip(num_layers, dim, data):
    # bounded nodes: products of up to 6 factors cannot overflow
    layers = data.draw(arrays(float, (num_layers, dim), elements=st.floats(-1e3, 1e3)))
    stack = LayerStack(layers)
    fp = FlatParams.from_stack(stack)
    assert np.array_equal(fp.to_stack().layers, stack.layers)
    assert np.array_equal(FlatParams.from_stack(fp.to_stack()).w, fp.w)
    assert np.array_equal(fp.blocks[:, 0], stack.layers[0])
    assert np.array_equal(theta_of_flat(fp), theta_of_layers(stack))


def test_flat_zero_kills_block():
    fp = FlatParams(np.array([0.0, 5.0, 2.0, 3.0]), 2, 2)
    assert np.array_equal(theta_of_flat(fp), [0.0, 6.0])


def test_flat_params_validation():
    with pytest.raises(ValueError):
        FlatParams(np.ones(5), 2, 2)
    fp = FlatParams(np.ones(4), 2, 2)
    with pytest.raises(IndexError):
        coordinate_gradient(fp, 2)
    with pytest.raises(IndexError):
        coordinate_hessian(fp, -1)


def test_coordinate_gradient_leave_one_out():
    fp = FlatParams(np.array([2.0, 3.0]), 2, 1)
    assert np.array_equal(coordinate_gradient(fp, 0), [3.0, 2.0])


def test_coordinate_gradient_support_and_fd():
    rng = np.random.default_rng(1)
    for _ in range(30):
        L = int(rng.integers(2, 6))
        d = int(rng.integers(1, 5))
        fp = FlatParams(rng.uniform(0.3, 2.0, L * d) * rng.choice([-1, 1], L * d), L, d)
        i = int(rng.integers(0, d))
        g = coordinate_gradient(fp, i)
        mask = np.zeros(L * d, bool)
        mask[i * L : (i + 1) * L] = True
        assert np.all(g[~mask] == 0.0)
        h = 1e-6
        for j in range(L * d):
            up, dn = fp.w.copy(), fp.w.copy()
            up[j] += h
            dn[j] -= h
            fd = (theta_of_flat(FlatParams(up, L, d))[i] - theta_of_flat(FlatParams(dn, L, d))[i]) / (2 * h)
            np.testing.assert_allclose(g[j], fd, rtol=1e-6, atol=1e-9)


def test_coordinate_hessian_bilinear_case():
    fp = FlatParams(np.array([2.0, 3.0]), 2, 1)
    assert np.array_equal(coordinate_hessian(fp, 0), [[0.0, 1.0], [1.0, 0.0]])


def test_coordinate_hessian_matches_gradient_differences():
    rng = np.random.default_rng(2)
    L, d = 4, 3
    fp = FlatParams(rng.uniform(0.3, 1.5, L * d), L, d)
    i = 1
    H = coordinate_hessian(fp, i)
    assert np.array_equal(H, H.T)
    assert np.all(np.diag(H) == 0.0)
    h = 1e-6
    for j in range(L * d):
        up, dn = fp.w.copy(), fp.w.copy()
        up[j] += h
        dn[j] -= h
        fd = (coordinate_gradient(FlatParams(up, L, d), i)
              - coordinate_gradient(FlatParams(dn, L, d), i)) / (2 * h)
        np.testing.assert_allclose(H[:, j], fd, rtol=1e-5, atol=1e-8)


def test_hessian_support_confined_to_block():
    rng = np.random.default_rng(3)
    for L in (2, 3, 5):
        for d in (1, 2, 4):
            fp = FlatParams(rng.uniform(-2, 2, L * d), L, d)
            for i in range(d):
                H = coordinate_hessian(fp, i)
                outside = np.ones(L * d, bool)
                outside[i * L : (i + 1) * L] = False
                assert np.all(H[outside] == 0.0)
                assert np.all(H[:, outside] == 0.0)


def test_commuting_defect_is_exactly_zero():
    rng = np.random.default_rng(4)
    for _ in range(60):
        L = int(rng.integers(2, 6))
        d = int(rng.integers(1, 5))
        fp = FlatParams(rng.uniform(-2, 2, L * d), L, d)
        i1, i2 = rng.integers(0, d, size=2)
        assert commuting_defect(fp, int(i1), int(i2)) == 0.0


def test_control_counterexample_has_nonzero_commutator():
    # map (w1 w2, w1 w3): outputs share w1, so the commutator is nonzero
    rng = np.random.default_rng(5)
    w = rng.uniform(0.5, 1.5, 3)
    g1 = np.array([w[1], w[0], 0.0])
    g2 = np.array([w[2], 0.0, w[0]])
    h1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
    h2 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=float)
    defect = np.max(np.abs(h1 @ g2 - h2 @ g1))
    assert defect == max(abs(w[1]), abs(w[2]))
    assert defect > 1e-3


def test_jacobian_rank_full_on_manifold():
    rng = np.random.default_rng(6)
    L, d = 3, 4
    for k in range(40):
        w = rng.uniform(0.2, 2.0, L * d) * rng.choice([-1, 1], L * d)
        blocks = w.reshape(d, L)
        if k % 2:
            blocks[np.arange(d), rng.integers(0, L, size=d)] = 0.0
        fp = FlatParams(blocks.reshape(-1), L, d)
        assert on_manifold(fp)
        assert jacobian_rank(fp) == d


def test_jacobian_rank_drops_off_manifold():
    L, d = 3, 4
    w = np.full(L * d, 1.5)
    w[0] = w[1] = 0.0  # two zeros in the first block
    fp = FlatParams(w, L, d)
    assert not on_manifold(fp)
    assert jacobian_rank(fp) == d - 1
    assert jacobian_rank(FlatParams(np.zeros(L * d), L, d)) == 0


def test_jacobian_rank_counts_violated_blocks():
    # rank is exactly d minus the number of blocks holding >= 2 zeros
    rng = np.random.default_rng(7)
    L, d = 4, 5
    for _ in range(20):
        blocks = rng.uniform(0.3, 1.7, (d, L))
        bad = rng.integers(0, d + 1)
        which = rng.choice(d, size=bad, replace=False)
        for i in which:
            cols = rng.choice(L, size=int(rng.integers(2, L + 1)), replace=False)
            blocks[i, cols] = 0.0
        fp = FlatParams(blocks.reshape(-1), L, d)
        assert jacobian_rank(fp) == d - bad


def test_jacobian_block_structure():
    fp = FlatParams(np.array([1.0, 2.0, 3.0, 4.0]), 2, 2)
    J = jacobian(fp)
    assert np.array_equal(J, [[2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 4.0, 3.0]])


def test_on_manifold_cases():
    assert on_manifold(FlatParams(np.ones(6), 3, 2))
    w = np.ones(6)
    w[0] = 0.0
    w[4] = 0.0  # one zero in each block
    assert on_manifold(FlatParams(w, 3, 2))
    w[1] = 0.0  # second zero in the first block
    assert not on_manifold(FlatParams(w, 3, 2))


def test_unique_minimum_init_lies_on_manifold():
    for seed in range(50):
        stack = init_layers(4, 3, InitScheme("uniform"), seed=seed)
        assert locate_min_layers(stack).holds
        assert on_manifold(FlatParams.from_stack(stack))


def test_flow_stays_on_manifold():
    for seed in range(5):
        loss = make_problem(6, 4, 600 + seed, x_scale=0.5)
        stack0 = init_layers(4, 3, InitScheme("uniform"), seed=700 + seed)
        traj = integrate(stack0, loss, StepController(t_max=2.0))
        assert trajectory_on_manifold(traj)


def test_flow_on_manifold_equilibrium_and_violation():
    loss = QuadraticLoss(np.array([[1.0]]), np.array([6.0]))
    traj = integrate(LayerStack([[2.0], [3.0]]), loss, StepController(t_max=0.5))
    assert trajectory_on_manifold(traj)

    bad_loss = QuadraticLoss(np.array([[1.0]]), np.array([0.0]))
    bad = integrate(LayerStack([[0.0], [0.0]]), bad_loss, StepController(t_max=0.01))
    assert not trajectory_on_manifold(bad)
