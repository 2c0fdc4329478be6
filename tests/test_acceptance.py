"""Acceptance suite.

Each test implements one numbered acceptance criterion at its stated
tolerance and runtime budget and prints a PASS line on success (run
with ``pytest -s`` to see them).  The shared 64x64 deblurring instance
uses unit dynamic range, the default 9x9 blur with deviation 4, noise
level 1e-3 and seed 0; its step sizes sit exactly on the critical
boundary (tau=0.4, gamma1=0.6, gamma2=0.01).
"""

import dataclasses
import time

import numpy as np
import pytest

from pdsplit import (
    DisplacementMonitor,
    FejerMonitor,
    ImageGrid,
    PDProblem,
    QuadraticDataFit,
    RelaxationSchedule,
    SweepGrid,
    TVConfig,
    TVInstance,
    add_gaussian_noise,
    boundary_sigmas,
    build_gaussian_blur,
    build_gradient_ops,
    drs_iterate,
    dual_resolvent,
    equivalence_deviation,
    fixed_point_transport,
    as_pd_problem,
    gradient_norm_sq,
    hvector,
    identity_op,
    l1_operator,
    monotone_linear,
    pd_iterate,
    pd_resolvent,
    power_iteration_sqnorm,
    project_box,
    prox_l1,
    run_tv_solver,
    scalar_precond,
    step_condition,
    sweep,
    zero_inclusion_residual,
)
from pdsplit.cli import write_trace_csv
from pdsplit.drs import DRSProblem

from conftest import normal

N_GRID = 64
TAU = 0.4
GAMMA1, GAMMA2 = 0.6, 0.01
EPS = 1e-8


def report(k, message):
    print(f"\nACCEPTANCE {k} PASS: {message}")


# ---------------------------------------------------------------------------
# shared instance fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tv_instance():
    from pdsplit import synthetic_image

    clean = synthetic_image(N_GRID, N_GRID, 1.0)
    blur = build_gaussian_blur(N_GRID, N_GRID, 9, 4.0)
    blurred = ImageGrid(
        blur.forward(clean.pixels.ravel()).reshape(clean.shape), 1.0
    )
    observed = add_gaussian_noise(blurred, 1e-3, seed=0)
    return clean, blur, observed


def tv_config(lam, eps=EPS, max_iter=400000):
    dsq = gradient_norm_sq(N_GRID)
    s1, s2, s3 = boundary_sigmas(TAU, GAMMA1, GAMMA2, dsq, dsq)
    return TVConfig(tau=TAU, sigma1=s1, sigma2=s2, sigma3=s3, alpha=0.01,
                    relaxation=lam, eps=eps, max_iter=max_iter, seed=0)


@pytest.fixture(scope="module")
def anchor(tv_instance):
    """High-precision pre-solve whose limit anchors the monotonicity
    checks."""
    _, blur, observed = tv_instance
    run = run_tv_solver(tv_config(1.9, eps=1e-12), observed, blur)
    assert run.converged
    return run


@pytest.fixture(scope="module")
def monitored_run(tv_instance, anchor):
    """Fresh unit-relaxation solve with both seminorm monitors attached
    and per-iteration objectives recorded; criterion 7 reuses it."""
    _, blur, observed = tv_instance
    fm = FejerMonitor(anchor.problem, anchor.state)
    dm = DisplacementMonitor(anchor.problem)
    t0 = time.perf_counter()
    run = run_tv_solver(tv_config(1.0), observed, blur, monitors=(fm, dm),
                        record_objective=True)
    elapsed = time.perf_counter() - t0
    assert run.converged
    return fm, dm, run, elapsed


@pytest.fixture(scope="module")
def relaxation_runs(tv_instance, monitored_run):
    """Criterion-7 runs with per-iteration objectives recorded: the
    monitored unit-relaxation run and a fresh one at 1.9."""
    _, blur, observed = tv_instance
    _, _, run1, t1 = monitored_run
    t0 = time.perf_counter()
    run9 = run_tv_solver(tv_config(1.9), observed, blur,
                         record_objective=True)
    return {1.0: (run1, t1), 1.9: (run9, time.perf_counter() - t0)}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def grid_prox_oracle(x, kappa, lo=-10.0, hi=10.0, step=1e-4):
    grid = np.arange(lo, hi + step, step)
    out = np.empty_like(x)
    for j, xj in enumerate(x):
        out[j] = grid[np.argmin(kappa * np.abs(grid)
                                + 0.5 * (grid - xj) ** 2)]
    return out


def grid_box_oracle(x, lo, hi, step=1e-4):
    grid = np.arange(lo, hi + step, step)
    out = np.empty_like(x)
    for j, xj in enumerate(x):
        out[j] = grid[np.argmin((grid - xj) ** 2)]
    return out


def test_criterion_01_prox_resolvent_oracles():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()

    for _ in range(100):
        x = rng.uniform(-5, 5, size=8)
        kappa = float(rng.uniform(0.0, 2.0))
        got = prox_l1(x, kappa)
        np.testing.assert_allclose(got, grid_prox_oracle(x, kappa),
                                   atol=2e-4)

    for _ in range(100):
        x = rng.uniform(-3, 3, size=8)
        lo, hi = sorted(rng.uniform(-2, 2, size=2))
        got = project_box(x, lo, hi)
        np.testing.assert_allclose(got, grid_box_oracle(x, lo, hi),
                                   atol=2e-4)

    # the FFT solve the TV solver runs, against a dense solve of
    # (Id + tau R*R) y = x + tau R*b on random periodic blurs
    for _ in range(100):
        n1, n2 = (int(k) for k in rng.integers(1, 5, size=2))
        size = int(rng.choice(np.arange(1, min(n1, n2) + 1, 2)))
        blur = build_gaussian_blur(n1, n2, size, float(rng.uniform(0.3, 3.0)))
        n = n1 * n2
        b = rng.standard_normal(n)
        x = rng.standard_normal(n)
        tau = float(rng.uniform(0.1, 2.0))
        q = QuadraticDataFit(blur, hvector(b))
        got = q.resolvent(scalar_precond(tau, n), x)
        mat = blur.as_matrix()
        want = np.linalg.solve(np.eye(n) + tau * mat.T @ mat,
                               x + tau * mat.T @ b)
        np.testing.assert_allclose(got, want, atol=1e-10)

    # the Moreau path of the dual resolvent, without l1's closed form
    l1_moreau = dataclasses.replace(l1_operator(1.0), conj_resolvent=None)
    for _ in range(100):
        u = rng.uniform(-4, 4, size=8)
        sigma = float(rng.uniform(0.2, 3.0))
        got = dual_resolvent(l1_moreau, scalar_precond(sigma, 8), u)
        np.testing.assert_allclose(got, np.clip(u, -1.0, 1.0), atol=1e-10)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"four oracle suites, 100 instances each ({elapsed:.1f}s)")


def test_criterion_02_operator_norm_reproduction():
    t0 = time.perf_counter()
    d1, _ = build_gradient_ops(256, 256)
    est = power_iteration_sqnorm(normal(d1), tol=3e-8, max_iter=100000,
                                 seed=0)
    elapsed = time.perf_counter() - t0
    assert abs(est - 3.9998) <= 1e-3
    assert elapsed < 5.0
    report(2, f"squared difference-operator norm {est:.5f} "
              f"= 3.9998 +/- 1e-3 ({elapsed:.1f}s)")


def test_criterion_03_drs_equivalence():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 65))
        q1 = rng.standard_normal((dim, dim)) / np.sqrt(dim)
        q2 = rng.standard_normal((dim, dim)) / np.sqrt(dim)
        p = DRSProblem(
            A=monotone_linear(q1 @ q1.T + 0.3 * np.eye(dim),
                              offset=rng.standard_normal(dim)),
            B=monotone_linear(q2 @ q2.T + 0.3 * np.eye(dim),
                              offset=rng.standard_normal(dim)),
            upsilon=scalar_precond(float(rng.uniform(0.4, 2.0)), dim),
        )
        x0 = hvector(rng.standard_normal(dim))
        u0 = hvector(rng.standard_normal(dim))
        sched = RelaxationSchedule.from_sequence(
            rng.uniform(0.0, 2.0, size=100)
        )
        worst = max(worst, equivalence_deviation(p, x0, u0, sched, 100))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0
    report(3, f"max sequence deviation {worst:.2e} over 20 instances "
              f"x 100 iterations ({elapsed:.1f}s)")


def test_criterion_04_critical_scalar_convergence():
    t0 = time.perf_counter()
    p = PDProblem(
        A=monotone_linear(1.0, -1.0),
        blocks=((monotone_linear(1.0, 0.0), identity_op(1)),),
        upsilon=scalar_precond(1.0, 1),
        sigmas=(scalar_precond(1.0, 1),),
    )
    cond = step_condition(p)
    assert cond.critical
    limits = {}
    for lam in (1.0, 1.5, 1.9):
        res = pd_iterate(p, p.initial_state(),
                         RelaxationSchedule.constant(lam), 1e-8, 20000)
        assert res.converged
        post = pd_resolvent(p, res.state)
        assert zero_inclusion_residual(p, post) < 1e-7
        limits[lam] = (float(res.state[0]), float(res.state[1]))
    spread = max(
        abs(a - b)
        for la in limits.values() for lb in limits.values()
        for a, b in zip(la, lb)
    )
    elapsed = time.perf_counter() - t0
    assert spread <= 1e-6
    assert elapsed < 1.0
    report(4, f"critical scalar instance solved for three relaxations, "
              f"limit spread {spread:.1e} ({elapsed:.2f}s)")


def test_criterion_05_fejer_monotonicity(monitored_run, anchor):
    fm, _, run, elapsed = monitored_run
    d0 = fm.values[0]
    assert d0 > 0
    assert fm.max_single_step_increase <= 1e-9 * d0
    assert elapsed < 120.0
    report(5, f"anchored seminorm distances never increase "
              f"(max step {fm.max_single_step_increase:.2e} vs bound "
              f"{1e-9 * d0:.2e}; run {elapsed:.0f}s)")


def test_criterion_06_vanishing_displacement(monitored_run):
    _, dm, run, _ = monitored_run
    ratio = dm.final / dm.initial
    assert ratio < 1e-3
    report(6, f"displacement seminorm fell to {ratio:.1e} of its "
              f"initial value at eps={EPS:g}")


def test_criterion_07_relaxation_trend(relaxation_runs):
    run1, t1 = relaxation_runs[1.0]
    run9, t9 = relaxation_runs[1.9]
    assert run1.converged and run9.converged
    reduction = 1.0 - run9.iterations / run1.iterations
    assert reduction >= 0.20
    assert t1 + t9 < 300.0
    report(7, f"relaxation 1.9 needed {run9.iterations} iterations vs "
              f"{run1.iterations} at 1.0 ({100 * reduction:.1f}% fewer; "
              f"{t1 + t9:.0f}s total)")


def test_trace_objective_is_the_restored_objective(tv_instance,
                                                   relaxation_runs):
    # the last recorded objective is that of the restored image, by
    # the solve's own data fit and by the direct residual alike
    _, blur, observed = tv_instance
    for lam in (1.0, 1.9):
        run, _ = relaxation_runs[lam]
        last = run.objectives[-1]
        x = run.image.pixels
        assert last == pytest.approx(run.objective, rel=1e-12)
        r = blur.forward(x.ravel()) - observed.pixels.ravel()
        tv = (np.abs(np.diff(x, axis=0)).sum()
              + np.abs(np.diff(x, axis=1)).sum())
        assert last == pytest.approx(0.5 * float(r @ r) + 0.01 * float(tv),
                                     rel=1e-12)


def test_criterion_08_distinct_sigma_trend(tv_instance):
    instance = TVInstance(n1=N_GRID, n2=N_GRID, peak=1.0, alpha=0.01,
                          eps=EPS, max_iter=400000)
    grid = SweepGrid(
        tau_values=(TAU,),
        gamma1_values=(0.5, 0.6, 0.65),
        gamma2_values=(0.001, 0.005, 0.01),
        lambda_values=(1.9,),
        include_equal_sigma=True,
    )
    rows = sweep(dataclasses.replace(grid, seeds=(0,)).configs(instance),
                 instance, 2)
    assert all(r["converged"] for r in rows)

    def is_equal_sigma(r):
        return (abs(r["sigma1"] - r["sigma2"]) < 1e-12
                and abs(r["sigma2"] - r["sigma3"]) < 1e-12)

    equal_rows = [r for r in rows if is_equal_sigma(r)]
    distinct_rows = [r for r in rows if not is_equal_sigma(r)]
    assert len(equal_rows) == 1 and len(distinct_rows) == 9
    best = min(r["iterations"] for r in distinct_rows)
    ref = equal_rows[0]["iterations"]
    assert best <= ref
    report(8, f"best distinct-sigma cell used {best} iterations vs "
              f"{ref} for the equal-sigma cell "
              f"({100 * (1 - best / ref):.2f}% fewer)")


def test_critical_cell_needs_no_more_iterations_than_half_steps(
        tv_instance):
    # the acceptance cell on the critical boundary against the same
    # cell with every sigma halved, and with tau alone halved: both sit
    # at half the boundary
    _, blur, observed = tv_instance
    critical = tv_config(1.9, eps=1e-5)
    cells = {
        "critical": critical,
        "0.5 sigma": dataclasses.replace(
            critical, sigma1=0.5 * critical.sigma1,
            sigma2=0.5 * critical.sigma2, sigma3=0.5 * critical.sigma3),
        "0.5 tau": dataclasses.replace(critical, tau=0.5 * TAU),
    }
    iterations = {}
    for name, cfg in cells.items():
        run = run_tv_solver(cfg, observed, blur)
        assert run.converged
        iterations[name] = run.iterations
    assert iterations["critical"] <= min(iterations["0.5 sigma"],
                                         iterations["0.5 tau"])
    print(f"\nCRITICAL GAIN PASS: iterations {iterations}")


def test_criterion_09_fixed_point_transport():
    rng = np.random.default_rng(909)
    t0 = time.perf_counter()
    worst_zir, worst_rt = 0.0, 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 17))
        q1 = rng.standard_normal((dim, dim)) / np.sqrt(dim)
        q2 = rng.standard_normal((dim, dim)) / np.sqrt(dim)
        p = DRSProblem(
            A=monotone_linear(q1 @ q1.T + 0.5 * np.eye(dim),
                              offset=rng.standard_normal(dim)),
            B=monotone_linear(q2 @ q2.T + 0.5 * np.eye(dim),
                              offset=rng.standard_normal(dim)),
            upsilon=scalar_precond(float(rng.uniform(0.5, 1.5)), dim),
        )
        res = drs_iterate(p, hvector(rng.standard_normal(dim)),
                          RelaxationSchedule.constant(1.0), 1e-12, 100000)
        assert res.converged
        state = fixed_point_transport(p, res.state)
        back = state[:dim] - p.upsilon.apply(state[dim:])
        worst_rt = max(worst_rt, float(np.max(np.abs(back - res.state))))
        pd = as_pd_problem(p)
        post = pd_resolvent(pd, state)
        worst_zir = max(worst_zir, zero_inclusion_residual(pd, post))
    elapsed = time.perf_counter() - t0
    assert worst_zir <= 1e-10
    assert worst_rt <= 1e-12
    report(9, f"transported fixed points: worst inclusion residual "
              f"{worst_zir:.1e}, worst round trip {worst_rt:.1e} "
              f"({elapsed:.1f}s)")


def test_criterion_10_determinism(tv_instance, relaxation_runs,
                                  tmp_path_factory):
    _, blur, observed = tv_instance
    out = tmp_path_factory.mktemp("traces")
    for lam in (1.0, 1.9):
        first, _ = relaxation_runs[lam]
        rerun = run_tv_solver(tv_config(lam), observed, blur,
                              record_objective=True)
        a = out / f"first_{lam}.csv"
        b = out / f"rerun_{lam}.csv"
        write_trace_csv(a, first)
        write_trace_csv(b, rerun)
        assert a.read_bytes() == b.read_bytes()
    report(10, "reruns with identical seeds produced byte-identical "
               "trace CSVs for both relaxations")
