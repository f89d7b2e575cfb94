import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diagflow import (
    HyperbolicEntropy,
    LayerStack,
    PowerEntropy,
    QuadraticLoss,
    SingularMobilityError,
    StepController,
    Trajectory,
    build_diagnostics,
    init_layers,
    InitScheme,
    integrate,
    integrate_redundant,
    make_problem,
    mirror_residual_closed_form,
    mirror_residual_general,
)


def random_pair(rng, d):
    """Initialization with well-separated |u| and |v| per coordinate."""
    u = rng.uniform(0.5, 1.5, d) * rng.choice([-1.0, 1.0], d)
    v = rng.uniform(0.05, 0.4, d) * rng.choice([-1.0, 1.0], d)
    return u, v


# ---------------------------------------------------------------------------
# hyperbolic (two-layer) map


def test_hyperbolic_maps_zero_to_initial_theta():
    rng = np.random.default_rng(0)
    u, v = random_pair(rng, 6)
    e = HyperbolicEntropy(u, v)
    np.testing.assert_allclose(e.theta_from_xi(np.zeros(6)), u * v, rtol=1e-12, atol=1e-14)


def test_hyperbolic_symmetric_case():
    e = HyperbolicEntropy(np.array([1.0]), np.array([0.0]))
    assert np.array_equal(e.delta0, [1.0])
    assert np.array_equal(e.shift, [0.0])
    xi = np.array([0.37])
    assert e.theta_from_xi(xi) == 0.5 * np.sinh(2 * xi)


@given(st.integers(1, 4), st.booleans(), st.data())
def test_hyperbolic_roundtrip(dim, swap, data):
    def draw(lo, hi):
        return data.draw(arrays(float, dim, elements=st.floats(lo, hi)))
    signs = [data.draw(arrays(float, dim, elements=st.sampled_from([-1.0, 1.0])))
             for _ in range(2)]
    # |v0| <= 0.9 |u0| (zero included) keeps delta0 >= 0.19 u0**2
    u0 = draw(0.5, 1.5) * signs[0]
    v0 = draw(0.0, 0.9) * np.abs(u0) * signs[1]
    e = HyperbolicEntropy(*((v0, u0) if swap else (u0, v0)))
    xi = draw(-2.0, 2.0)
    np.testing.assert_allclose(e.xi_from_theta(e.theta_from_xi(xi)), xi, rtol=0, atol=1e-12)
    theta = draw(-10.0, 10.0)
    np.testing.assert_allclose(e.theta_from_xi(e.xi_from_theta(theta)), theta,
                               rtol=1e-12, atol=1e-12)


def test_hyperbolic_inverse_at_origin():
    e = HyperbolicEntropy(np.array([1.3, 1.0]), np.array([0.2, 0.0]))
    np.testing.assert_allclose(e.xi_from_theta(e.u0 * e.v0), np.zeros(2), atol=1e-15)
    assert e.xi_from_theta(np.zeros(2))[1] == 0.0  # zero shift coordinate


def test_hyperbolic_entropy_zero_at_origin():
    rng = np.random.default_rng(2)
    u, v = random_pair(rng, 4)
    e = HyperbolicEntropy(u, v)
    assert abs(e.value(np.zeros(4))) <= 1e-12


def _fd_grad(fn, theta, h):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        g[i] = (fn(theta + step) - fn(theta - step)) / (2 * h)
    return g


def test_hyperbolic_gradient_is_dual_map():
    rng = np.random.default_rng(3)
    u, v = random_pair(rng, 5)
    e = HyperbolicEntropy(u, v)
    for _ in range(20):
        theta = rng.uniform(-2, 2, 5)
        fd = _fd_grad(e.value, theta, 1e-6)
        np.testing.assert_allclose(fd, e.grad(theta), rtol=1e-6, atol=1e-9)
        assert np.array_equal(e.grad(theta), e.xi_from_theta(theta))


def test_hyperbolic_convexity_and_monotone_gradient():
    rng = np.random.default_rng(4)
    u, v = random_pair(rng, 4)
    e = HyperbolicEntropy(u, v)
    for _ in range(100):
        a = rng.uniform(-3, 3, 4)
        b = rng.uniform(-3, 3, 4)
        assert e.value(0.5 * (a + b)) <= 0.5 * (e.value(a) + e.value(b)) + 1e-12
        assert (e.grad(a) - e.grad(b)) @ (a - b) >= -1e-12


def test_hyperbolic_rejects_coinciding_magnitudes():
    with pytest.raises(ValueError):
        HyperbolicEntropy(np.array([1.0, 2.0]), np.array([-1.0, 0.5]))
    with pytest.raises(ValueError):
        HyperbolicEntropy(np.array([1.0]), np.array([1.0 + 1e-14]))
    # a non-finite u0 or v0 would map every xi to NaN
    for u0, v0 in [([np.nan], [0.0]), ([np.inf], [0.0]), ([1.0], [-np.inf])]:
        with pytest.raises(ValueError, match="u0 and v0 must be finite"):
            HyperbolicEntropy(u0, v0)


def test_hyperbolic_slope():
    e = HyperbolicEntropy(np.array([1.2]), np.array([0.3]))
    xi = np.array([0.25])
    h = 1e-6
    fd = (e.theta_from_xi(xi + h) - e.theta_from_xi(xi - h)) / (2 * h)
    np.testing.assert_allclose(e.dtheta_dxi(xi), fd, rtol=1e-8)


# ---------------------------------------------------------------------------
# power (tied deep) map


def test_power_maps_zero_to_initial_theta():
    u0 = np.array([0.7, 1.2, 0.9])
    e = PowerEntropy(u0, 4)
    np.testing.assert_allclose(e.theta_from_xi(np.zeros(3)), u0**4, rtol=1e-14)


def test_power_direct_substitution():
    e = PowerEntropy(np.array([1.0]), 3)
    got = float(e.theta_from_xi(np.array([0.1]))[0])
    assert got == pytest.approx((1.0 - 0.3) ** -3, rel=1e-14)
    assert got == pytest.approx(2.915452, abs=1e-6)


@given(st.integers(1, 4), st.integers(3, 6), st.data())
def test_power_roundtrip(dim, num_layers, data):
    def draw(lo, hi):
        return data.draw(arrays(float, dim, elements=st.floats(lo, hi)))
    L = num_layers
    u0 = draw(0.3, 2.0)
    e = PowerEntropy(u0, L)
    theta = draw(0.01, 10.0)
    np.testing.assert_allclose(e.theta_from_xi(e.xi_from_theta(theta)), theta, rtol=1e-12)
    # xi inside the domain: the base u0**-(L-2) - L(L-2) xi drawn in [0.1, 10]
    xi = (u0 ** -(L - 2) - draw(0.1, 10.0)) / (L * (L - 2))
    np.testing.assert_allclose(e.xi_from_theta(e.theta_from_xi(xi)), xi, rtol=0, atol=1e-12)


def test_power_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    for L in (3, 4, 5):
        u0 = rng.uniform(0.5, 1.5, 4)
        e = PowerEntropy(u0, L)
        for _ in range(10):
            theta = rng.uniform(0.2, 2.5, 4)
            fd = _fd_grad(e.value, theta, 1e-6)
            expected = u0 ** (-(L - 2.0)) - theta ** (-(1.0 - 2.0 / L))
            np.testing.assert_allclose(fd, expected, rtol=1e-6)
            np.testing.assert_allclose(e.grad(theta), expected, rtol=1e-14)
            np.testing.assert_allclose(e.grad(theta), e.dual_scale * e.xi_from_theta(theta), rtol=1e-12)


def test_power_entropy_value():
    e = PowerEntropy(np.array([1.0]), 4)
    assert e.value(np.array([1.0])) == -1.0


def test_power_convex_on_positive_orthant():
    rng = np.random.default_rng(7)
    e = PowerEntropy(rng.uniform(0.5, 1.5, 3), 5)
    for _ in range(100):
        a = rng.uniform(0.05, 3.0, 3)
        b = rng.uniform(0.05, 3.0, 3)
        assert e.value(0.5 * (a + b)) <= 0.5 * (e.value(a) + e.value(b)) + 1e-12


def test_power_domain_errors():
    e = PowerEntropy(np.array([1.0, 1.0]), 3)
    with pytest.raises(ValueError):
        e.theta_from_xi(np.array([0.0, 1.0]))  # base hits zero/negative
    with pytest.raises(ValueError):
        e.xi_from_theta(np.array([1.0, -0.2]))
    with pytest.raises(ValueError):
        e.value(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        PowerEntropy(np.array([1.0, 0.0]), 3)
    with pytest.raises(ValueError):
        PowerEntropy(np.ones(2), 2)
    with pytest.raises(ValueError, match="strictly positive"):
        PowerEntropy(np.array([1.0, np.nan]), 3)


def test_power_slope():
    e = PowerEntropy(np.array([0.9]), 4)
    xi = np.array([0.05])
    h = 1e-7
    fd = (e.theta_from_xi(xi + h) - e.theta_from_xi(xi - h)) / (2 * h)
    np.testing.assert_allclose(e.dtheta_dxi(xi), fd, rtol=1e-7)


# ---------------------------------------------------------------------------
# residuals along trajectories


def equilibrium_run():
    loss = QuadraticLoss(np.array([[1.0]]), np.array([6.0]))
    stack = LayerStack([[2.0], [3.0]])
    return stack, integrate(stack, loss, StepController(t_max=1.0))


def test_closed_form_residual_zero_at_equilibrium():
    stack, traj = equilibrium_run()
    e = HyperbolicEntropy(stack.layers[0], stack.layers[1])
    assert mirror_residual_closed_form(traj, e) <= 1e-12


def test_closed_form_residual_two_layer_flow():
    rng = np.random.default_rng(8)
    for seed in range(3):
        d = 3
        loss = make_problem(d + 2, d, 500 + seed)
        u, v = random_pair(rng, d)
        stack0 = LayerStack(np.stack([u, v]))
        traj = integrate(stack0, loss, StepController(t_max=5.0, max_points=10**6))
        e = HyperbolicEntropy(u, v)
        assert mirror_residual_closed_form(traj, e) <= 1e-5


def test_closed_form_residual_redundant_flow():
    loss = make_problem(4, 3, 9, x_scale=0.5, positive=True)
    u0 = np.array([0.9, 1.1, 0.8])
    traj = integrate_redundant(u0, 4, loss, StepController(t_max=5.0, max_points=10**6))
    e = PowerEntropy(u0, 4)
    assert mirror_residual_closed_form(traj, e) <= 1e-5


def test_closed_form_residual_rejects_mismatches():
    stack, traj = equilibrium_run()
    with pytest.raises(ValueError):
        mirror_residual_closed_form(traj, PowerEntropy(np.array([1.0]), 3))
    with pytest.raises(ValueError):
        mirror_residual_closed_form(traj, HyperbolicEntropy(np.array([5.0]), np.array([1.0])))
    loss3 = make_problem(4, 2, 10)
    stack3 = init_layers(2, 3, InitScheme("uniform"), seed=11)
    traj3 = integrate(stack3, loss3, StepController(t_max=0.5))
    with pytest.raises(ValueError):
        mirror_residual_closed_form(traj3, HyperbolicEntropy(np.array([1.0, 1.0]), np.array([0.0, 0.0])))
    with pytest.raises(TypeError):
        mirror_residual_closed_form(traj, object())



def _tied_instance():
    loss = make_problem(4, 3, 9, x_scale=0.5, positive=True)
    return loss, np.array([0.9, 1.1, 0.8]), StepController(h=1e-3, t_max=2.0)


@pytest.mark.parametrize("num_layers", [3, 4, 5])
def test_general_residual_tied_flow(num_layers):
    # the tied flow's mobility is L times that of its L recorded copies
    loss, u0, ctrl = _tied_instance()
    traj = integrate_redundant(u0, num_layers, loss, ctrl)
    assert mirror_residual_general(traj) <= 1e-4
    assert build_diagnostics(traj).value("mirror", "general_residual") <= 1e-4


@pytest.mark.parametrize("num_layers", [3, 4, 5])
def test_power_entropy_rejects_an_untied_run_from_tied_layers(num_layers):
    loss, u0, ctrl = _tied_instance()
    traj = integrate(LayerStack(np.tile(u0, (num_layers, 1))), loss, ctrl)
    with pytest.raises(ValueError):
        mirror_residual_closed_form(traj, PowerEntropy(u0, num_layers))


def test_hyperbolic_check_takes_the_layers_in_any_order_per_coordinate():
    # the map is symmetric in u0 and v0 coordinate by coordinate
    rng = np.random.default_rng(20)
    loss = make_problem(6, 4, 21)
    u, v = random_pair(rng, 4)
    swap = np.array([True, False, True, False])
    stack0 = LayerStack(np.stack([np.where(swap, v, u), np.where(swap, u, v)]))
    traj = integrate(stack0, loss, StepController(t_max=2.0))
    assert mirror_residual_closed_form(traj, HyperbolicEntropy(u, v)) <= 1e-5

def _euler_two_layer(stack0, loss, h, t_max):
    """Explicit-Euler reference trajectory with the same xi bookkeeping."""
    y = stack0.layers.copy()
    xi = np.zeros(stack0.dim)
    g = loss.gradient(np.prod(y, axis=0))
    times, snaps, thetas, xis, losses = [0.0], [y.copy()], [np.prod(y, axis=0)], [xi.copy()], [loss.value(np.prod(y, axis=0))]
    grads = [g]
    t = 0.0
    while t < t_max - 1e-12:
        y = y + h * (-np.stack([y[1], y[0]]) * g)
        t += h
        theta = np.prod(y, axis=0)
        g_new = loss.gradient(theta)
        xi = xi - 0.5 * h * (g + g_new)
        g = g_new
        times.append(t)
        snaps.append(y.copy())
        thetas.append(theta)
        xis.append(xi.copy())
        losses.append(loss.value(theta))
        grads.append(g)
    return Trajectory(np.array(times), np.array(snaps), np.array(thetas),
                      np.array(xis), np.array(losses), np.array(grads),
                      optimum=loss.optimal_value)


def test_residual_first_order_under_euler_but_tiny_under_rk4():
    rng = np.random.default_rng(12)
    loss = make_problem(5, 3, 13)
    u, v = random_pair(rng, 3)
    stack0 = LayerStack(np.stack([u, v]))
    e = HyperbolicEntropy(u, v)
    r_euler = mirror_residual_closed_form(_euler_two_layer(stack0, loss, 1e-3, 1.0), e)
    r_euler_half = mirror_residual_closed_form(_euler_two_layer(stack0, loss, 5e-4, 1.0), e)
    traj = integrate(stack0, loss, StepController(h=1e-3, t_max=1.0, max_points=10**6))
    r_rk4 = mirror_residual_closed_form(traj, e)
    assert 1.5 < r_euler / r_euler_half < 3.0  # first-order in the step
    assert r_rk4 < r_euler / 20.0


def test_z_variable_factorization_reproduces_theta():
    # integrate the decoupled sum/difference system and rebuild theta from it
    rng = np.random.default_rng(14)
    loss = make_problem(5, 3, 15)
    u, v = random_pair(rng, 3)
    stack0 = LayerStack(np.stack([u, v]))
    traj = integrate(stack0, loss, StepController(h=1e-3, t_max=2.0, max_points=10**6))

    z = np.stack([u + v, u - v])

    def z_rhs(z):
        theta = (z[0] ** 2 - z[1] ** 2) / 4.0
        g = loss.gradient(theta)
        return np.stack([-z[0] * g, z[1] * g])

    h = 1e-3
    thetas = [(z[0] ** 2 - z[1] ** 2) / 4.0]
    for _ in range(2000):
        k1 = z_rhs(z)
        k2 = z_rhs(z + 0.5 * h * k1)
        k3 = z_rhs(z + 0.5 * h * k2)
        k4 = z_rhs(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        thetas.append((z[0] ** 2 - z[1] ** 2) / 4.0)
    assert np.max(np.abs(np.array(thetas) - traj.thetas)) <= 1e-6


def test_general_residual_zero_at_equilibrium():
    # tiny but not exactly zero: accumulated grid times differ in their
    # last bits, so the difference quotient of a constant is O(eps/h)
    _, traj = equilibrium_run()
    assert mirror_residual_general(traj) <= 1e-12


def test_general_residual_deep_flow():
    rng = np.random.default_rng(16)
    loss = make_problem(6, 4, 17, x_scale=0.15)
    layers = rng.uniform(0.7, 1.3, (5, 4)) * rng.choice([-1.0, 1.0], (5, 4))
    traj = integrate(LayerStack(layers), loss, StepController(h=1e-3, t_max=5.0, max_points=10**6))
    assert mirror_residual_general(traj) <= 1e-4


def test_general_residual_shrinks_with_step():
    rng = np.random.default_rng(18)
    loss = make_problem(5, 3, 19, x_scale=0.15)
    layers = rng.uniform(0.7, 1.3, (4, 3)) * rng.choice([-1.0, 1.0], (4, 3))
    stack0 = LayerStack(layers)
    r1 = mirror_residual_general(integrate(stack0, loss, StepController(h=1e-3, t_max=3.0, max_points=10**6)))
    r2 = mirror_residual_general(integrate(stack0, loss, StepController(h=5e-4, t_max=3.0, max_points=10**6)))
    assert 2.5 < r1 / r2 < 6.0


def test_general_residual_needs_enough_points():
    _, traj = equilibrium_run()
    short = Trajectory(traj.times[:2], traj.layers[:2], traj.thetas[:2],
                       traj.xi[:2], traj.losses[:2], traj.grads[:2], traj.optimum)
    with pytest.raises(ValueError):
        mirror_residual_general(short)


def test_general_residual_singular_mobility():
    loss = QuadraticLoss(np.array([[1.0]]), np.array([0.0]))
    stack = LayerStack([[0.0], [0.0]])  # stationary with vanishing mobility
    traj = integrate(stack, loss, StepController(t_max=0.01))
    with pytest.raises(SingularMobilityError):
        mirror_residual_general(traj)
