"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Criteria with runtime caps time their computation and fail
when over budget.
"""

import time

import numpy as np
import pytest

from diagflow import (
    ExperimentConfig,
    HyperbolicEntropy,
    InitScheme,
    LayerStack,
    PowerEntropy,
    StepController,
    certify,
    conservation_defect,
    convergence_scale_sweep,
    init_layers,
    integrate,
    locate_min_layers,
    make_problem,
    mirror_residual_closed_form,
    mirror_residual_general,
    pl_constant,
    rate_check,
    reconstruction_error,
    run_bias,
    sigma_lower_bound,
    sign_census,
)
from diagflow.cli import main as cli_main


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:2d} {label}: {status}{suffix}")


@pytest.fixture(scope="module")
def seeded_runs():
    """Twenty seeded flows, L in {2,3,4,5}, d <= 8, T=10, h=1e-3."""
    runs = []
    rng = np.random.default_rng(123)
    start = time.perf_counter()
    for i in range(20):
        layers = [2, 3, 4, 5][i % 4]
        d = int(rng.integers(3, 9))
        loss = make_problem(d + 2, d, 1000 + i, x_scale=0.5)
        stack0 = init_layers(d, layers, InitScheme("uniform"), seed=2000 + i)
        idx = locate_min_layers(stack0)
        assert idx.holds
        traj = integrate(stack0, loss, StepController(h=1e-3, t_max=10.0))
        runs.append((loss, stack0, idx, traj))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_1_conservation(seeded_runs):
    runs, elapsed = seeded_runs
    worst = max(float(conservation_defect(traj).max()) for _, _, _, traj in runs)
    ok = worst <= 1e-6 and elapsed <= 30.0
    _report(1, "conservation defect <= 1e-6 over 20 runs", ok,
            f"max defect {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed <= 30.0


def test_criterion_2_no_crossing_census():
    violations = 0
    flagged_total = 0
    for seed in range(50):
        layers = [2, 3, 4, 5][seed % 4]
        loss = make_problem(6, 4, 3000 + seed, x_scale=0.5)
        stack0 = init_layers(4, layers, InitScheme("uniform"), seed=4000 + seed)
        idx = locate_min_layers(stack0)
        assert idx.holds
        traj = integrate(stack0, loss, StepController(h=1e-3, t_max=3.0))
        census = sign_census(traj, idx)
        violations += len(census.violations)
        flagged_total += int(census.flagged.sum())
    ok = violations == 0 and flagged_total > 0
    _report(2, "sign changes confined to minimal layers, 50 seeds", ok,
            f"{flagged_total} crossings observed, {violations} violations")
    assert violations == 0
    assert flagged_total > 0  # the census is not vacuous


def test_criterion_3_reconstruction(seeded_runs):
    runs, _ = seeded_runs
    worst = max(reconstruction_error(traj, idx) for _, _, idx, traj in runs)
    ok = worst <= 1e-6
    _report(3, "minimal-layer reconstruction <= 1e-6", ok, f"max error {worst:.2e}")
    assert worst <= 1e-6


def test_criterion_4_mirror_identity_two_layer():
    rng = np.random.default_rng(1)
    worst = 0.0
    for s in range(10):
        d = int(rng.integers(2, 7))
        loss = make_problem(d + 2, d, 9000 + s, x_scale=0.7)
        u = rng.uniform(0.5, 1.5, d) * rng.choice([-1.0, 1.0], d)
        v = rng.uniform(0.05, 0.4, d) * rng.choice([-1.0, 1.0], d)
        traj = integrate(LayerStack(np.stack([u, v])), loss,
                         StepController(h=1e-3, t_max=5.0, max_points=10**6))
        worst = max(worst, mirror_residual_closed_form(traj, HyperbolicEntropy(u, v)))
    ok = worst <= 1e-5
    _report(4, "closed-form mirror identity (2 layers) <= 1e-5", ok,
            f"max residual {worst:.2e}")
    assert worst <= 1e-5


def test_two_layer_mirror_identity_is_fourth_order():
    # criterion 4's runs: xi is the state's last row, so RK4 integrates it
    # with the layers at O(h^4) (measured 8.0e-12 at h = 1e-3, halving
    # ratios 15.9-16.2 from h = 4e-3; a trapezoid xi gave 2.7e-6 and 4.0)
    residuals = {}
    for h in (4e-3, 2e-3, 1e-3):
        rng = np.random.default_rng(1)
        residuals[h] = []
        for s in range(10):
            d = int(rng.integers(2, 7))
            loss = make_problem(d + 2, d, 9000 + s, x_scale=0.7)
            u = rng.uniform(0.5, 1.5, d) * rng.choice([-1.0, 1.0], d)
            v = rng.uniform(0.05, 0.4, d) * rng.choice([-1.0, 1.0], d)
            traj = integrate(LayerStack(np.stack([u, v])), loss,
                             StepController(h=h, t_max=5.0, max_points=10**6))
            residuals[h].append(mirror_residual_closed_form(traj, HyperbolicEntropy(u, v)))
    # at h = 1e-3 the error is already near rounding, so the ratio is taken above it
    ratios = [a / b for a, b in zip(residuals[4e-3], residuals[2e-3])]
    assert max(residuals[1e-3]) <= 2e-11, residuals[1e-3]
    assert all(12.0 <= r <= 20.0 for r in ratios), ratios


def test_criterion_5_mirror_identity_general_depth():
    rng = np.random.default_rng(0)
    worst = 0.0
    ratios = []
    for s in range(10):
        layers = [3, 4, 5][s % 3]
        d = int(rng.integers(3, 7))
        loss = make_problem(d + 2, d, 8000 + s, x_scale=0.15)
        stack0 = LayerStack(rng.uniform(0.7, 1.3, (layers, d)) * rng.choice([-1.0, 1.0], (layers, d)))
        r1 = mirror_residual_general(integrate(
            stack0, loss, StepController(h=1e-3, t_max=5.0, max_points=10**6)))
        r2 = mirror_residual_general(integrate(
            stack0, loss, StepController(h=5e-4, t_max=5.0, max_points=10**6)))
        worst = max(worst, r1)
        ratios.append(r1 / r2)
    ratios_ok = all(3.2 <= r <= 4.8 for r in ratios)
    ok = worst <= 1e-4 and ratios_ok
    _report(5, "general-depth mirror residual <= 1e-4, ~4x step halving", ok,
            f"max residual {worst:.2e}, halving ratios {min(ratios):.2f}..{max(ratios):.2f}")
    assert worst <= 1e-4
    assert ratios_ok


def _fd_grad(fn, theta, h=1e-6):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        g[i] = (fn(theta + step) - fn(theta - step)) / (2 * h)
    return g


def test_criterion_6_entropy_gradients():
    rng = np.random.default_rng(6)
    d = 5
    u = rng.uniform(0.6, 1.4, d) * rng.choice([-1.0, 1.0], d)
    v = rng.uniform(0.05, 0.4, d) * rng.choice([-1.0, 1.0], d)
    hyp = HyperbolicEntropy(u, v)
    worst_h = 0.0
    for _ in range(100):
        theta = rng.uniform(-2.5, 2.5, d)
        fd = _fd_grad(hyp.value, theta)
        worst_h = max(worst_h, np.max(np.abs(fd - hyp.grad(theta))) / np.max(np.abs(hyp.grad(theta))))

    pow_worst = 0.0
    for layers in (3, 4, 5):
        ent = PowerEntropy(rng.uniform(0.5, 1.5, d), layers)
        for _ in range(100):
            theta = rng.uniform(0.2, 2.5, d)
            fd = _fd_grad(ent.value, theta)
            expected = ent.u0 ** (-(layers - 2.0)) - theta ** (-(1.0 - 2.0 / layers))
            pow_worst = max(pow_worst, np.max(np.abs(fd - expected)) / np.max(np.abs(expected)))
            np.testing.assert_allclose(ent.grad(theta), expected, rtol=1e-12, atol=1e-15)
    ok = worst_h <= 1e-6 and pow_worst <= 1e-6
    _report(6, "entropy gradients match dual maps to 1e-6", ok,
            f"hyperbolic {worst_h:.2e}, power {pow_worst:.2e}")
    assert worst_h <= 1e-6
    assert pow_worst <= 1e-6


def test_criterion_7_parameterization_certification():
    # every shape L = 2..5, d = 1..4, 100 samples each for the defect and the ranks
    certs = {(layers, d): certify(layers, d, samples=100, seed=7)
             for layers in range(2, 6) for d in range(1, 5)}
    max_defect = max(c.max_defect for c in certs.values())
    ranks_ok = all(c.ranks_ok for c in certs.values())
    drops_ok = all(c.rank_one_block == d - 1
                   and c.rank_two_blocks == (d - 2 if d >= 2 else None)
                   for (_, d), c in certs.items())
    control = min(c.control_defect for c in certs.values())
    init_ok = all(c.init_on_manifold for c in certs.values())

    ok = max_defect == 0.0 and ranks_ok and drops_ok and control > 1e-3 and init_ok
    _report(7, "product map certification", ok,
            f"defect {max_defect:.1e}, ranks ok {ranks_ok}, control {control:.2e}")
    assert max_defect == 0.0
    assert ranks_ok
    assert drops_ok
    assert control > 1e-3
    assert init_ok


def test_criterion_8_rate_bound_and_pl_inequality(seeded_runs):
    runs, _ = seeded_runs
    rng = np.random.default_rng(8)
    total_violations = 0
    pl_ok = True
    for loss, stack0, idx, traj in runs:
        mu = pl_constant(loss)
        sigma = sigma_lower_bound(stack0, idx).sigma
        total_violations += rate_check(traj, sigma, mu).violations
        thetas = rng.normal(size=(10_000, loss.dim)) * rng.choice([0.1, 1.0, 5.0], size=(10_000, 1))
        r = thetas @ loss.X.T - loss.y
        gaps = np.einsum("ij,ij->i", r, r) - loss.optimal_value
        grads_sq = np.einsum("ij,ij->i", 2.0 * r @ loss.X, 2.0 * r @ loss.X)
        pl_ok &= bool(np.all(2.0 * mu * gaps <= grads_sq * (1 + 1e-9) + 1e-9))
    ok = total_violations == 0 and pl_ok
    _report(8, "exponential rate bound and PL inequality", ok,
            f"{total_violations} bound violations, PL sampled ok {pl_ok}")
    assert total_violations == 0
    assert pl_ok


def test_criterion_9_initialization_scale_ordering():
    start = time.perf_counter()
    cfg = ExperimentConfig(n=10, dim=8, layers=6, seed=2, t_max=400.0,
                           scheme="zero_first")
    results = convergence_scale_sweep(cfg, scales=(1.0, 1.4, 1.8))
    elapsed = time.perf_counter() - start
    times = [r.time_to_target for r in results]
    sigmas = [r.sigma.sigma for r in results]
    times_ok = all(t is not None for t in times) and times[0] > times[1] > times[2]
    sigmas_ok = sigmas[0] < sigmas[1] < sigmas[2]
    violations = sum(r.rate.violations for r in results)
    ok = times_ok and sigmas_ok and violations == 0 and elapsed <= 60.0
    detail = (f"times {', '.join(f'{t:.2f}' for t in times)}; "
              f"sigmas {', '.join(f'{s:.3g}' for s in sigmas)}; {elapsed:.1f}s")
    _report(9, "larger initialization converges strictly faster", ok, detail)
    assert times_ok
    assert sigmas_ok
    assert violations == 0
    assert elapsed <= 60.0


def test_criterion_10_implicit_bias():
    mismatch_worst = 0.0
    l1_rel_worst = 0.0
    l2_rel_worst = 0.0
    monotone = True
    for seed in range(5):
        cfg = ExperimentConfig(n=3, dim=6, layers=2, seed=seed, t_max=1e4)
        sweep = run_bias(cfg, alphas=(1.0, 0.1, 0.01))
        large = run_bias(cfg, alphas=(10.0,))
        mismatch_worst = max(mismatch_worst, sweep.max_mismatch, large.max_mismatch)
        excesses = [r.l1_norm - r.l1_min for r in sweep.rows]
        monotone &= excesses[0] >= excesses[1] >= excesses[2] >= -1e-12
        small = sweep.rows[-1]
        l1_rel_worst = max(l1_rel_worst, (small.l1_norm - small.l1_min) / small.l1_min)
        theta_l2 = sweep.loss.least_squares_solution
        rel = np.linalg.norm(large.rows[0].theta_flow - theta_l2) / np.linalg.norm(theta_l2)
        l2_rel_worst = max(l2_rel_worst, rel)
    ok = mismatch_worst <= 1e-3 and l1_rel_worst <= 0.05 and l2_rel_worst <= 0.05 and monotone
    _report(10, "implicit bias: flow limit, L1 and L2 regimes", ok,
            f"mismatch {mismatch_worst:.2e}, L1 excess {l1_rel_worst:.2%}, "
            f"L2 distance {l2_rel_worst:.2%}")
    assert mismatch_worst <= 1e-3
    assert l1_rel_worst <= 0.05
    assert l2_rel_worst <= 0.05
    assert monotone


def test_criterion_11_cli_determinism(tmp_path):
    pairs = []
    for name, flags in [
        ("simulate", ["simulate", "--layers", "3", "--dim", "3", "--samples",
                      "5", "--seed", "1", "--tmax", "2.0"]),
        ("convergence", ["convergence", "--layers", "4", "--dim", "5",
                         "--samples", "8", "--seed", "1", "--tmax", "200",
                         "--init-scale", "1.2"]),
    ]:
        out1 = tmp_path / f"{name}_1.csv"
        out2 = tmp_path / f"{name}_2.csv"
        assert cli_main([*flags, "--output", str(out1)]) == 0
        assert cli_main([*flags, "--output", str(out2)]) == 0
        pairs.append(out1.read_bytes() == out2.read_bytes())
    ok = all(pairs)
    _report(11, "repeated CLI runs are byte-identical", ok)
    assert ok
