import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diagflow import (
    InitScheme,
    LayerStack,
    QuadraticLoss,
    init_layers,
    leave_one_out_products,
    mobility,
    theta_of_layers,
)
from diagflow.model import leave_two_out_products, product_factors


def test_theta_direct_products():
    assert theta_of_layers(np.array([[2.0], [3.0], [4.0]])) == np.array([24.0])
    got = theta_of_layers(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(got, [3.0, 8.0])


def test_theta_absorbing_zero():
    stack = LayerStack([[1.0, 0.0], [5.0, 7.0], [2.0, -3.0]])
    assert stack.theta[1] == 0.0


def test_theta_permutation_invariant():
    # two-layer products commute exactly; deeper reorderings only up to
    # rounding of the sequential product
    rng = np.random.default_rng(0)
    u = rng.uniform(-2, 2, (2, 5))
    assert np.array_equal(theta_of_layers(u), theta_of_layers(u[::-1]))
    for _ in range(50):
        L = rng.integers(3, 6)
        layers = rng.uniform(-2, 2, (L, 4))
        perm = rng.permutation(L)
        a = theta_of_layers(layers)
        b = theta_of_layers(layers[perm])
        np.testing.assert_allclose(a, b, rtol=1e-13)


def test_layer_stack_validation():
    with pytest.raises(ValueError):
        LayerStack(np.ones((1, 3)))
    with pytest.raises(ValueError):
        LayerStack(np.ones(4))
    with pytest.raises(ValueError):
        LayerStack([[np.inf, 1.0], [1.0, 1.0]])


def test_leave_one_out_handles_zeros():
    v = np.array([[2.0, 0.0], [3.0, 5.0], [4.0, 7.0]])
    loo = leave_one_out_products(v)
    assert np.array_equal(loo[:, 0], [12.0, 8.0, 6.0])
    assert np.array_equal(loo[:, 1], [35.0, 0.0, 0.0])


# magnitudes in [0.1, 10] or exact zeros: products of up to 6 factors stay
# far from underflow, so a zero in the output comes only from a zero factor
_node = st.one_of(st.just(0.0), st.floats(0.1, 10.0), st.floats(-10.0, -0.1))


@given(st.integers(1, 3), st.integers(1, 6), st.integers(1, 4), st.data())
def test_leave_one_out_matches_brute_force(batch, num_layers, dim, data):
    # the flow's (L, d) state, and a batch (L, B, d) of them
    for shape in ((num_layers, dim), (num_layers, batch, dim)):
        v = data.draw(arrays(float, shape, elements=_node))
        got = leave_one_out_products(v)
        brute = np.stack([np.prod(np.delete(v, j, axis=0), axis=0)
                          for j in range(num_layers)])
        np.testing.assert_allclose(got, brute, rtol=1e-12, atol=0.0)
        assert np.array_equal(got == 0.0, brute == 0.0)


def _sequential_leave_one_out(v):
    # reference: the sequential prefix/suffix loop, one slice at a time
    out = np.empty_like(v)
    acc = np.ones_like(v[0])
    for j in range(v.shape[0]):
        out[j] = acc
        acc = acc * v[j]
    acc = np.ones_like(v[0])
    for j in range(v.shape[0] - 1, -1, -1):
        out[j] = out[j] * acc
        acc = acc * v[j]
    return out


# any non-NaN float, with signed zeros and infinities drawn often: products
# round, overflow and give 0 * inf = NaN, so only the loop's order matches
_any_node = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
                      st.floats(-10.0, 10.0), st.floats(allow_nan=False))


@given(st.integers(1, 3), st.integers(1, 6), st.integers(1, 4), st.data())
def test_leave_one_out_equals_sequential_loop_bit_for_bit(batch, num_layers, dim, data):
    for shape in ((num_layers, dim), (num_layers, batch, dim)):
        v = data.draw(arrays(float, shape, elements=_any_node))
        with np.errstate(over="ignore", invalid="ignore"):
            got = leave_one_out_products(v)
            want = _sequential_leave_one_out(v)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@given(st.integers(2, 6), st.integers(1, 4), st.data())
def test_product_factors_equal_theta_and_leave_one_out_products(num_layers, dim, data):
    # one hook, one set of buffers: a non-finite stack, then a finite one,
    # so that nothing the first call leaves in the buffers reaches the second
    factors, p = product_factors(num_layers, (dim,)), np.empty((num_layers, dim))
    stacks = [data.draw(arrays(float, (num_layers, dim), elements=_any_node)),
              data.draw(arrays(float, (num_layers, dim), elements=st.floats(-10.0, 10.0)))]
    stacks[0][data.draw(st.integers(0, num_layers - 1)), data.draw(st.integers(0, dim - 1))] = np.inf
    for y in stacks:
        with np.errstate(over="ignore", invalid="ignore"):
            theta = factors(y, p)
            want = theta_of_layers(y), _sequential_leave_one_out(y)
        for got, expected in zip((theta, p), want):
            assert np.array_equal(got, expected, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(expected))


def _pair_loop_leave_two_out(u):
    # reference: coordinate_hessian's former pair loop, one coordinate at a time
    L, d = u.shape
    out = np.zeros((L, L, d))
    for i in range(d):
        for a in range(L):
            for b in range(a + 1, L):
                keep = [m for m in range(L) if m != a and m != b]
                v = float(np.prod(u[keep, i]))
                out[a, b, i] = v
                out[b, a, i] = v
    return out


@given(st.integers(2, 7), st.integers(1, 4), st.data())
def test_leave_two_out_equals_pair_loop_bit_for_bit(num_layers, dim, data):
    u = data.draw(arrays(float, (num_layers, dim), elements=_any_node))
    with np.errstate(over="ignore", invalid="ignore"):
        got = leave_two_out_products(u)
        want = _pair_loop_leave_two_out(u)
    assert got.shape == (num_layers, num_layers, dim)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@given(st.integers(1, 4), st.integers(1, 10), st.integers(1, 4), st.data())
def test_mobility_of_snapshots_equals_each_snapshot_bit_for_bit(num_snapshots, num_layers, dim, data):
    # a (K, L, d) trajectory, as the diagnostics pass it, against K (L, d) states
    layers = data.draw(arrays(float, (num_snapshots, num_layers, dim), elements=_any_node))
    with np.errstate(over="ignore", invalid="ignore"):
        got = mobility(layers)
        want = np.stack([mobility(snapshot) for snapshot in layers])
    assert np.array_equal(got, want, equal_nan=True)


def test_loss_identity_design():
    loss = QuadraticLoss(np.eye(2), np.zeros(2))
    assert loss.value(np.array([1.0, 2.0])) == 5.0
    assert np.array_equal(loss.gradient(np.array([1.0, 2.0])), [2.0, 4.0])


def test_loss_zero_residual_and_gradient():
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, (4, 4)) + 2 * np.eye(4)
    theta = rng.uniform(-1, 1, 4)
    loss = QuadraticLoss(X, X @ theta)
    assert loss.value(theta) == 0.0
    assert np.array_equal(loss.gradient(theta), np.zeros(4))


def test_loss_value_matches_componentwise_sum():
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, (4, 3))
    y = rng.uniform(-1, 1, 4)
    theta = rng.uniform(-1, 1, 3)
    loss = QuadraticLoss(X, y)
    direct = sum((float(X[i] @ theta) - y[i]) ** 2 for i in range(4))
    np.testing.assert_allclose(loss.value(theta), direct, rtol=1e-14)


def _fd_gradient(loss, theta, h=1e-6):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (loss.value(theta + e) - loss.value(theta - e)) / (2 * h)
    return g


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 9))
        loss = QuadraticLoss(rng.uniform(-1, 1, (n, d)), rng.uniform(-1, 1, n))
        theta = rng.uniform(-1, 1, d)
        g = loss.gradient(theta)
        fd = _fd_gradient(loss, theta)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)


def test_gap_nonnegative_and_tight_at_projection():
    rng = np.random.default_rng(4)
    loss = QuadraticLoss(rng.uniform(-1, 1, (6, 3)), rng.uniform(-1, 1, 6))
    assert loss.optimal_value > 0  # inconsistent overdetermined system
    for _ in range(200):
        theta = rng.uniform(-3, 3, 3)
        assert loss.gap(theta) >= -1e-12
    # the gap closes exactly when X theta hits the projection of y
    assert abs(loss.gap(loss.least_squares_solution)) <= 1e-12
    # and stays away from zero when it does not
    assert loss.gap(loss.least_squares_solution + np.array([0.1, 0, 0])) > 1e-4


def test_optimal_value_zero_for_consistent_system():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, (3, 6))
    loss = QuadraticLoss(X, X @ rng.uniform(-1, 1, 6))
    assert loss.optimal_value <= 1e-28


def test_loss_dimension_mismatch():
    loss = QuadraticLoss(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        loss.value(np.zeros(4))
    with pytest.raises(ValueError):
        loss.gradient(np.zeros(2))
    with pytest.raises(ValueError):
        QuadraticLoss(np.eye(3), np.zeros(4))
    # one non-finite entry would make optimal_value NaN
    for X, y in [([[1.0, np.nan]], [0.0]), ([[1.0, 2.0]], [np.inf])]:
        with pytest.raises(ValueError, match="X and y must be finite"):
            QuadraticLoss(X, y)
    # float64 arrays, other dtypes and lists get the same message
    for theta in (np.zeros((1, 3)), np.zeros(4, dtype=int), [0.0, 1.0], np.zeros(3)[::2]):
        for call in (loss.value, loss.gradient, loss.value_and_gradient, loss.hessian):
            with pytest.raises(ValueError, match=r"theta has shape \(.*\), expected \(3,\)"):
                call(theta)
    # a float64 view passes as it is, other input is converted
    assert np.array_equal(loss.gradient(np.arange(6.0)[::2]), [0.0, 4.0, 8.0])
    assert np.array_equal(loss.gradient([0, 1, 2]), [0.0, 2.0, 4.0])


@pytest.mark.parametrize("n, d", [(5, 3), (4, 7), (8, 6), (6, 3), (48, 64), (1, 1)])
def test_gradient_is_twice_the_transposed_product_bit_for_bit(n, d):
    # 2 X^T is kept as a transposed view of 2 X, the layout of X.T, so BLAS
    # sums in X.T's order and scaling by 2 is exact
    rng = np.random.default_rng(n * 100 + d)
    X, y = rng.uniform(-1, 1, (n, d)), rng.uniform(-1, 1, n)
    loss = QuadraticLoss(X, y)
    for theta in rng.uniform(-2, 2, (20, d)):
        r = X @ theta - y
        want = 2.0 * (X.T @ r)
        value, g = loss.value_and_gradient(theta)
        assert value == float(r @ r)
        assert np.array_equal(g.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(loss.gradient(theta).view(np.uint64), want.view(np.uint64))


def test_init_explicit_passthrough():
    vals = np.array([[1.0, -2.0], [0.5, 3.0]])
    stack = init_layers(2, 2, InitScheme("explicit", values=vals), seed=0)
    assert np.array_equal(stack.layers, vals)


def test_init_zero_first_scale_is_exact_factor():
    a = init_layers(6, 4, InitScheme("zero_first", scale=1.0), seed=9)
    b = init_layers(6, 4, InitScheme("zero_first", scale=1.4), seed=9)
    assert np.array_equal(a.layers[0], np.zeros(6))
    assert np.array_equal(b.layers[0], np.zeros(6))
    assert np.array_equal(b.layers[1:], a.layers[1:] * 1.4)
    assert np.all((a.layers[1:] >= 0.5) & (a.layers[1:] < 1.5))


def test_init_deterministic():
    for kind in ("uniform", "zero_first", "positive"):
        a = init_layers(5, 3, InitScheme(kind), seed=7)
        b = init_layers(5, 3, InitScheme(kind), seed=7)
        assert np.array_equal(a.layers, b.layers)


def test_init_uniform_and_positive_ranges():
    u = init_layers(200, 2, InitScheme("uniform"), seed=0)
    assert np.all(np.abs(u.layers) <= 1.0)
    p = init_layers(200, 2, InitScheme("positive"), seed=0)
    assert np.all((p.layers > 0.0) & (p.layers <= 1.0))


def test_init_validation():
    with pytest.raises(ValueError):
        InitScheme("gaussian")
    with pytest.raises(ValueError):
        InitScheme("explicit")
    with pytest.raises(ValueError):
        init_layers(0, 2, InitScheme("uniform"), seed=0)
    with pytest.raises(ValueError):
        init_layers(3, 1, InitScheme("uniform"), seed=0)
    with pytest.raises(ValueError):
        init_layers(3, 2, InitScheme("explicit", values=np.ones((3, 3))), seed=0)
