import numpy as np
import pytest

from diagflow import (
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
    theta_of_layers,
    trajectory_on_manifold,
)


def _node(column, L):
    # column i*L + j of the Jacobian and Hessian is the node u[j, i]
    return column % L, column // L


def test_jacobian_column_order():
    # integer nodes: every product is exact, whatever order it is taken in
    rng = np.random.default_rng(0)
    L, d = 4, 3
    u = rng.integers(-5, 6, (L, d)).astype(float)
    J = jacobian(u)
    for i in range(d):
        for j in range(L):
            assert J[i, i * L + j] == np.prod(np.delete(u[:, i], j))


def test_flat_zero_kills_block():
    u = np.array([[0.0, 2.0], [5.0, 3.0]])
    assert np.array_equal(theta_of_layers(u), [0.0, 6.0])
    assert np.array_equal(jacobian(u), [[5.0, 0.0, 0.0, 0.0], [0.0, 0.0, 3.0, 2.0]])


def test_flat_params_validation():
    with pytest.raises(ValueError):
        jacobian(np.ones(4))  # a flat vector, not (L, d) layers
    u = np.ones((2, 2))
    with pytest.raises(IndexError):
        coordinate_gradient(u, 2)
    with pytest.raises(IndexError):
        coordinate_hessian(u, -1)


def test_coordinate_gradient_leave_one_out():
    assert np.array_equal(coordinate_gradient(np.array([[2.0], [3.0]]), 0), [3.0, 2.0])


def test_coordinate_gradient_support_and_fd():
    rng = np.random.default_rng(1)
    for _ in range(30):
        L = int(rng.integers(2, 6))
        d = int(rng.integers(1, 5))
        u = rng.uniform(0.3, 2.0, (L, d)) * rng.choice([-1, 1], (L, d))
        i = int(rng.integers(0, d))
        g = coordinate_gradient(u, i)
        mask = np.zeros(L * d, bool)
        mask[i * L : (i + 1) * L] = True
        assert np.all(g[~mask] == 0.0)
        h = 1e-6
        for c in range(L * d):
            up, dn = u.copy(), u.copy()
            up[_node(c, L)] += h
            dn[_node(c, L)] -= h
            fd = (theta_of_layers(up)[i] - theta_of_layers(dn)[i]) / (2 * h)
            np.testing.assert_allclose(g[c], fd, rtol=1e-6, atol=1e-9)


def test_coordinate_hessian_bilinear_case():
    assert np.array_equal(coordinate_hessian(np.array([[2.0], [3.0]]), 0), [[0.0, 1.0], [1.0, 0.0]])


def test_coordinate_hessian_matches_gradient_differences():
    rng = np.random.default_rng(2)
    L, d = 4, 3
    u = rng.uniform(0.3, 1.5, (L, d))
    i = 1
    H = coordinate_hessian(u, i)
    assert np.array_equal(H, H.T)
    assert np.all(np.diag(H) == 0.0)
    h = 1e-6
    for c in range(L * d):
        up, dn = u.copy(), u.copy()
        up[_node(c, L)] += h
        dn[_node(c, L)] -= h
        fd = (coordinate_gradient(up, i) - coordinate_gradient(dn, i)) / (2 * h)
        np.testing.assert_allclose(H[:, c], fd, rtol=1e-5, atol=1e-8)


def test_hessian_support_confined_to_block():
    rng = np.random.default_rng(3)
    for L in (2, 3, 5):
        for d in (1, 2, 4):
            u = rng.uniform(-2, 2, (L, d))
            for i in range(d):
                H = coordinate_hessian(u, i)
                outside = np.ones(L * d, bool)
                outside[i * L : (i + 1) * L] = False
                assert np.all(H[outside] == 0.0)
                assert np.all(H[:, outside] == 0.0)


def test_commuting_defect_is_exactly_zero():
    rng = np.random.default_rng(4)
    for _ in range(60):
        L = int(rng.integers(2, 6))
        d = int(rng.integers(1, 5))
        u = rng.uniform(-2, 2, (L, d))
        i1, i2 = rng.integers(0, d, size=2)
        assert commuting_defect(u, int(i1), int(i2)) == 0.0


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
        u = rng.uniform(0.2, 2.0, (L, d)) * rng.choice([-1, 1], (L, d))
        if k % 2:
            u[rng.integers(0, L, size=d), np.arange(d)] = 0.0
        assert on_manifold(u)
        assert jacobian_rank(u) == d


def test_jacobian_rank_drops_off_manifold():
    L, d = 3, 4
    u = np.full((L, d), 1.5)
    u[:2, 0] = 0.0  # two zeros in the first coordinate
    assert not on_manifold(u)
    assert jacobian_rank(u) == d - 1
    assert jacobian_rank(np.zeros((L, d))) == 0


def test_jacobian_rank_counts_violated_blocks():
    # rank is exactly d minus the number of coordinates holding >= 2 zeros
    rng = np.random.default_rng(7)
    L, d = 4, 5
    for _ in range(20):
        u = rng.uniform(0.3, 1.7, (L, d))
        bad = rng.integers(0, d + 1)
        which = rng.choice(d, size=bad, replace=False)
        for i in which:
            rows = rng.choice(L, size=int(rng.integers(2, L + 1)), replace=False)
            u[rows, i] = 0.0
        assert jacobian_rank(u) == d - bad


def test_jacobian_block_structure():
    J = jacobian(np.array([[1.0, 3.0], [2.0, 4.0]]))
    assert np.array_equal(J, [[2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 4.0, 3.0]])


def test_on_manifold_cases():
    assert on_manifold(np.ones((3, 2)))
    u = np.ones((3, 2))
    u[0, 0] = 0.0
    u[1, 1] = 0.0  # one zero in each coordinate
    assert on_manifold(u)
    assert on_manifold(np.stack([np.ones((3, 2)), u]))  # (K, L, d) snapshots
    u[1, 0] = 0.0  # second zero in the first coordinate
    assert not on_manifold(u)
    assert not on_manifold(np.stack([np.ones((3, 2)), u]))


def test_unique_minimum_init_lies_on_manifold():
    for seed in range(50):
        stack = init_layers(4, 3, InitScheme("uniform"), seed=seed)
        assert locate_min_layers(stack).holds
        assert on_manifold(stack.layers)


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
