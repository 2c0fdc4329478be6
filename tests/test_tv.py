import dataclasses
import math
import multiprocessing
import os
import signal

import numpy as np
import pytest

from pdsplit import (
    ImageGrid,
    Monitor,
    QuadraticDataFit,
    SweepGrid,
    TVConfig,
    TVInstance,
    add_gaussian_noise,
    boundary_sigmas,
    build_gaussian_blur,
    build_gradient_ops,
    build_problem,
    equal_critical_sigma,
    gradient_norm_sq,
    hvector,
    pd_resolvent,
    psnr,
    run_tv_solver,
    step_condition,
    sweep,
    synthetic_image,
    tv_objective,
    zero_inclusion_residual,
)
from pdsplit.tv import _usable_cpus, gaussian_kernel

from conftest import adjoint_gap


def small_instance(n=24, peak=1.0, seed=0, noise=1e-3):
    clean = synthetic_image(n, n, peak)
    R = build_gaussian_blur(n, n, 9, 4.0)
    blurred = ImageGrid(R.forward(clean.pixels.ravel()).reshape(clean.shape),
                        peak)
    observed = add_gaussian_noise(blurred, noise, seed)
    return clean, R, observed


def boundary_config(n, tau=0.4, lam=1.0, eps=1e-8, max_iter=200000,
                    alpha=0.01, seed=0):
    dsq = gradient_norm_sq(n)
    s1, s2, s3 = boundary_sigmas(tau, 0.6, 0.01, dsq, dsq)
    return TVConfig(tau=tau, sigma1=s1, sigma2=s2, sigma3=s3, alpha=alpha,
                    relaxation=lam, eps=eps, max_iter=max_iter, seed=seed)


class TestGradientOps:
    def test_constant_image_has_zero_gradient(self):
        d1, d2 = build_gradient_ops(8, 8)
        c = np.full(64, 3.7)
        assert np.abs(d1.forward(c)).max() == 0.0
        assert np.abs(d2.forward(c)).max() == 0.0

    def test_adjoint_identity(self, rng):
        d1, d2 = build_gradient_ops(12, 9)
        assert adjoint_gap(d1, rng) <= 1e-12
        assert adjoint_gap(d2, rng) <= 1e-12

    def test_norm_formula_matches_dense(self):
        for n1, n2 in [(4, 7), (6, 6)]:
            d1, d2 = build_gradient_ops(n1, n2)
            m1 = np.linalg.svd(d1.as_matrix(), compute_uv=False)[0] ** 2
            m2 = np.linalg.svd(d2.as_matrix(), compute_uv=False)[0] ** 2
            assert m1 == pytest.approx(gradient_norm_sq(n1), rel=1e-12)
            assert m2 == pytest.approx(gradient_norm_sq(n2), rel=1e-12)

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            build_gradient_ops(1, 8)


class TestGaussianBlur:
    def test_impulse_response_is_kernel(self):
        from pdsplit.tv import gaussian_kernel

        n = 16
        R = build_gaussian_blur(n, n, size=5, std=1.5)
        delta = np.zeros((n, n))
        delta[8, 8] = 1.0
        out = R.forward(delta.ravel()).reshape(n, n)
        kern = gaussian_kernel(5, 1.5)
        np.testing.assert_allclose(out[6:11, 6:11], kern, atol=1e-12)

    def test_preserves_constants(self):
        R = build_gaussian_blur(12, 12, 9, 4.0)
        c = np.full(144, 7.5)
        np.testing.assert_allclose(R.forward(c), c, atol=1e-10)

    def test_fft_matches_spatial_convolution(self, rng):
        n = 16
        size, std = 5, 1.5
        from pdsplit.tv import gaussian_kernel

        R = build_gaussian_blur(n, n, size, std)
        x = rng.standard_normal((n, n))
        got = R.forward(x.ravel()).reshape(n, n)
        kern = gaussian_kernel(size, std)
        want = np.zeros_like(x)
        h = size // 2
        for a in range(size):
            for b in range(size):
                want += kern[a, b] * np.roll(
                    np.roll(x, h - a, axis=0), h - b, axis=1
                )
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_self_adjoint(self, rng):
        R = build_gaussian_blur(10, 10, 9, 4.0)
        assert adjoint_gap(R, rng, trials=50) <= 1e-10

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            build_gaussian_blur(16, 16, size=4, std=4.0)


class TestNoise:
    def test_zero_level_is_identity(self):
        img = synthetic_image(8, 8, 255.0)
        out = add_gaussian_noise(img, 0.0, 3)
        assert out is img

    def test_deterministic_per_seed(self):
        img = synthetic_image(8, 8, 255.0)
        a = add_gaussian_noise(img, 1e-2, 42)
        b = add_gaussian_noise(img, 1e-2, 42)
        assert (a.pixels == b.pixels).all()

    def test_sample_variance(self):
        img = ImageGrid(np.zeros((1000, 1000)), peak=255.0)
        out = add_gaussian_noise(img, 1e-3, 0)
        want = (1e-3 * 255.0) ** 2
        assert float(out.pixels.var()) == pytest.approx(want, rel=0.02)


class TestObjectiveAndPSNR:
    def test_exact_data_constant_image_zero(self):
        n = 8
        img = ImageGrid(np.full((n, n), 5.0), peak=255.0)
        R = build_gaussian_blur(n, n, 5, 2.0)
        b = R.forward(img.pixels.ravel())
        fit = QuadraticDataFit(R, hvector(b))
        assert tv_objective(img.pixels, fit, 0.3, build_gradient_ops(n, n)) \
            == pytest.approx(0.0, abs=1e-18)

    def test_alpha_zero_is_pure_data_fit(self, rng):
        n = 8
        img = ImageGrid(rng.standard_normal((n, n)), peak=1.0)
        R = build_gaussian_blur(n, n, 5, 2.0)
        b = rng.standard_normal(n * n)
        resid = R.forward(img.pixels.ravel()) - b
        fit = QuadraticDataFit(R, hvector(b))
        assert tv_objective(img.pixels, fit, 0.0,
                            build_gradient_ops(n, n)) == pytest.approx(
            0.5 * float(resid @ resid), rel=1e-12
        )

    def test_matches_direct_recomputation(self, rng):
        n = 8
        img = ImageGrid(rng.standard_normal((n, n)), peak=1.0)
        R = build_gaussian_blur(n, n, 5, 2.0)
        b = rng.standard_normal((n, n))
        alpha = 0.37
        x = img.pixels
        resid = R.forward(x.ravel()).reshape(n, n) - b
        tv = np.abs(np.diff(x, axis=0)).sum() + np.abs(np.diff(x, axis=1)).sum()
        want = 0.5 * float((resid ** 2).sum()) + alpha * float(tv)
        fit = QuadraticDataFit(R, hvector(b))
        assert tv_objective(x, fit, alpha, build_gradient_ops(n, n)) \
            == pytest.approx(want, rel=1e-12)

    def test_psnr_single_pixel_error(self):
        n = 100
        ref = ImageGrid(np.zeros((n, n)), peak=255.0)
        bad = np.zeros((n, n))
        bad[0, 0] = 255.0
        assert psnr(ImageGrid(bad, peak=255.0), ref) == pytest.approx(40.0)

    def test_psnr_doubling_error_energy(self, rng):
        n = 32
        ref = ImageGrid(np.zeros((n, n)), peak=255.0)
        e = rng.standard_normal((n, n))
        a = psnr(ImageGrid(e, peak=255.0), ref)
        b = psnr(ImageGrid(math.sqrt(2.0) * e, peak=255.0), ref)
        assert a - b == pytest.approx(10 * math.log10(2.0), abs=1e-9)

    def test_psnr_identical_images_sentinel(self):
        img = synthetic_image(8, 8, 255.0)
        assert psnr(img, img) == math.inf


class TestBoundaryParameterizations:
    def test_boundary_sum_is_one(self):
        d1s, d2s = gradient_norm_sq(64), gradient_norm_sq(48)
        for tau in (0.1, 0.2, 0.45, 0.6):
            for g1, g2 in [(0.6, 0.01), (0.5, 0.001), (0.65, 0.05)]:
                s1, s2, s3 = boundary_sigmas(tau, g1, g2, d1s, d2s)
                assert tau * (s1 * d1s + s2 * d2s + s3) == pytest.approx(
                    1.0, rel=1e-12
                )

    def test_published_row_recovered(self):
        # tau=0.2, gamma1=0.6, gamma2=0.01 on a 256-point axis reproduces
        # the published step sizes 0.7425 / 0.4950 / 0.05
        dsq = gradient_norm_sq(256)
        s1, s2, s3 = boundary_sigmas(0.2, 0.6, 0.01, dsq, dsq)
        assert s1 == pytest.approx(0.7425, abs=5e-4)
        assert s2 == pytest.approx(0.4950, abs=5e-4)
        assert s3 == pytest.approx(0.05, abs=1e-12)

    def test_equal_critical_sigma_critical(self):
        dsq = gradient_norm_sq(64)
        s = equal_critical_sigma(0.3, dsq, dsq)
        assert 0.3 * s * (1 + 2 * dsq) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_bad_gammas(self):
        with pytest.raises(ValueError):
            boundary_sigmas(0.2, 0.0, 0.5, 4.0, 4.0)
        with pytest.raises(ValueError):
            boundary_sigmas(0.2, 0.5, 1.0, 4.0, 4.0)


class TestTVConfig:
    @pytest.mark.parametrize("bad", [
        {"eps": 0.0}, {"eps": math.inf}, {"eps": math.nan},
        {"max_iter": 0}, {"alpha": -1.0}, {"alpha": math.inf},
        {"relaxation": 2.5}, {"sigma2": 0.0}, {"sigma2": math.nan},
    ], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
    def test_rejects_bad_value(self, bad):
        steps = {"tau": 0.4, "sigma1": 0.1, "sigma2": 0.1, "sigma3": 0.1}
        TVConfig(**steps)
        with pytest.raises(ValueError):
            TVConfig(**{**steps, **bad})

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match="^seed must be nonnegative"):
            TVConfig(0.4, 0.1, 0.1, 0.1, seed=-1)

    def test_defaults_are_the_instance_defaults(self):
        cfg, inst = TVConfig(0.4, 0.1, 0.1, 0.1), TVInstance()
        for name in ("alpha", "eps", "max_iter", "blur_size", "blur_std",
                     "noise_std_rel"):
            assert getattr(cfg, name) == getattr(inst, name)


class TestBuildProblem:
    def test_rejects_boundary_violation(self):
        _, R, observed = small_instance(n=16)
        dsq = gradient_norm_sq(16)
        s1, s2, s3 = boundary_sigmas(0.4, 0.6, 0.01, dsq, dsq)
        cfg = TVConfig(tau=0.4, sigma1=s1 * 1.05, sigma2=s2, sigma3=s3)
        with pytest.raises(ValueError):
            build_problem(cfg, observed, R)

    def test_assembled_condition_is_critical(self):
        _, R, observed = small_instance(n=16)
        cfg = boundary_config(16)
        problem = build_problem(cfg, observed, R)
        cond = step_condition(problem)
        assert cond.critical
        assert 1 - 1e-3 <= cond.norm_sq_estimate <= 1 + 1e-4

    def test_condition_matches_closed_form_on_random_grids(self, rng):
        for _ in range(20):
            n1, n2 = (int(n) for n in rng.integers(3, 41, size=2))
            observed = ImageGrid(rng.uniform(0.0, 1.0, (n1, n2)), peak=1.0)
            R = build_gaussian_blur(n1, n2, size=1, std=1.0)
            tau = float(rng.uniform(0.1, 2.0))
            # the three block terms share a random total of at most 1
            share = rng.dirichlet(np.ones(3)) * rng.uniform(0.5, 1.0)
            g1, g2 = gradient_norm_sq(n1), gradient_norm_sq(n2)
            cfg = TVConfig(tau=tau, sigma1=share[0] / (tau * g1),
                           sigma2=share[1] / (tau * g2),
                           sigma3=share[2] / tau)
            est = step_condition(build_problem(cfg, observed, R))
            want = tau * (cfg.sigma1 * g1 + cfg.sigma2 * g2 + cfg.sigma3)
            assert est.norm_sq_estimate == pytest.approx(want, abs=1e-9)


class TestRunSolver:
    def test_exact_data_no_blur_recovers_observation(self, rng):
        # identity forward operator, interior data, no penalty: the
        # unique solution is the observation itself
        n = 12
        pixels = rng.uniform(0.3, 0.7, size=(n, n))
        observed = ImageGrid(pixels, peak=1.0)
        ident = build_gaussian_blur(n, n, size=1, std=1.0)
        cfg = boundary_config(n, tau=0.4, lam=1.0, eps=1e-10, alpha=0.0)
        run = run_tv_solver(cfg, observed, ident)
        assert run.converged
        np.testing.assert_allclose(run.image.pixels, pixels, atol=1e-8)

    def test_deblurring_improves_psnr(self):
        clean, R, observed = small_instance(n=24)
        cfg = boundary_config(24, lam=1.9, eps=1e-8)
        run = run_tv_solver(cfg, observed, R)
        assert run.converged
        assert psnr(run.image, clean) > psnr(observed, clean)

    def test_objective_eventually_nonincreasing(self):
        clean, R, observed = small_instance(n=16)
        cfg = boundary_config(16, lam=1.0, eps=1e-8)
        run = run_tv_solver(cfg, observed, R, record_objective=True)
        assert run.converged
        objs = run.objectives[-100:].tolist()
        for a, b in zip(objs[:-1], objs[1:]):
            assert b <= a + 1e-10 * (1.0 + abs(a))

    def test_transported_solution_feasible_and_certified(self):
        _, R, observed = small_instance(n=16)
        cfg = boundary_config(16, lam=1.9, eps=1e-8)
        run = run_tv_solver(cfg, observed, R)
        assert run.converged
        post = pd_resolvent(run.problem, run.state)
        x = post[:run.problem.dim]
        assert x.min() >= -1e-9
        assert x.max() <= observed.peak + 1e-9
        assert zero_inclusion_residual(run.problem, post) <= 10 * cfg.eps

    def test_nonconvergence_flagged(self):
        _, R, observed = small_instance(n=16)
        cfg = boundary_config(16, eps=1e-12, max_iter=5)
        run = run_tv_solver(cfg, observed, R)
        assert not run.converged
        assert run.iterations == 5

    def test_relaxations_share_the_limit(self):
        # deep solves from both relaxations land on the same restored
        # image; the over-relaxed run also gets there in fewer steps
        _, R, observed = small_instance(n=24)
        runs = {}
        for lam in (1.0, 1.9):
            cfg = boundary_config(24, lam=lam, eps=1e-10, max_iter=400000)
            runs[lam] = run_tv_solver(cfg, observed, R)
            assert runs[lam].converged
        gap = np.max(np.abs(runs[1.0].image.pixels
                            - runs[1.9].image.pixels))
        assert gap <= 1e-6
        assert runs[1.9].iterations < runs[1.0].iterations


class Fork:
    """``os.fork`` that records the pid of each child it starts."""

    def __init__(self, monkeypatch):
        self.real, self.pids = os.fork, []
        monkeypatch.setattr(os, "fork", self)

    def __call__(self):
        pid = self.real()
        if pid:
            self.pids.append(pid)
        return pid


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(_usable_cpus() < 2, reason="the helper needs 2 CPUs")
class TestObjectiveHelper:
    """``record_objective`` scores on a forked helper process; inline on
    one CPU, without ``os.fork`` or once the helper dies, to the same
    bits."""

    def solve(self, n1, n2, lam, max_iter=5000, monitors=()):
        inst = TVInstance(n1=n1, n2=n2, peak=1.0, blur_size=3, eps=1e-5,
                          max_iter=max_iter)
        cfg = inst.config(0.4, lam, 3, gammas=(0.6, 0.01))
        _, R, observed = inst.observe(3)
        return run_tv_solver(cfg, observed, R, monitors=monitors,
                             record_objective=True)

    @pytest.mark.parametrize("lam", [1.0, 1.9, 2.0])
    @pytest.mark.parametrize("n1, n2", [(13, 9), (16, 16)])
    def test_forked_objectives_are_the_inline_ones(self, n1, n2, lam,
                                                   monkeypatch):
        # lambda = 2 keeps the KM sum at 0: the run stops at max_iter
        max_iter = 300 if lam == 2.0 else 5000
        fork = Fork(monkeypatch)
        forked = self.solve(n1, n2, lam, max_iter)
        assert len(fork.pids) == 1
        one_cpu(monkeypatch)
        inline = self.solve(n1, n2, lam, max_iter)
        assert len(fork.pids) == 1
        assert forked.stop_reason == ("max_iter" if lam == 2.0 else "eps")
        assert forked.objectives.dtype == np.float64
        assert len(forked.objectives) == forked.iterations
        assert forked.objectives.tobytes() == inline.objectives.tobytes()
        assert forked.objective == inline.objective
        assert_no_children()

    @pytest.mark.parametrize("fork", ["missing", "failing"])
    def test_without_a_fork_the_objectives_are_inline(self, fork,
                                                      monkeypatch):
        forked = self.solve(13, 9, 1.9)
        if fork == "missing":
            monkeypatch.delattr(os, "fork")
        else:
            def fail():
                raise BlockingIOError(11, "Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", fail)
        fd_dir = "/proc/self/fd"
        fds = os.listdir(fd_dir) if os.path.isdir(fd_dir) else []
        inline = self.solve(13, 9, 1.9)
        assert forked.objectives.tobytes() == inline.objectives.tobytes()
        if fds:  # no pipe end is left open
            assert len(os.listdir(fd_dir)) == len(fds)

    def test_a_killed_helper_leaves_the_objectives_whole(self, monkeypatch):
        fork = Fork(monkeypatch)

        class Killer(Monitor):
            def observe(self, n, z, sz, z_next):
                if n == 20:
                    os.kill(fork.pids[0], signal.SIGKILL)

        killed = self.solve(16, 16, 1.9, monitors=(Killer(),))
        assert killed.iterations > 20
        assert_no_children()
        one_cpu(monkeypatch)
        inline = self.solve(16, 16, 1.9)
        assert killed.objectives.tobytes() == inline.objectives.tobytes()

    def test_the_helper_is_reaped_also_when_a_monitor_raises(self):
        self.solve(13, 9, 1.9)
        assert_no_children()

        class Raiser(Monitor):
            def observe(self, n, z, sz, z_next):
                if n == 5:
                    raise RuntimeError("monitor failed")

        with pytest.raises(RuntimeError, match="monitor failed"):
            self.solve(13, 9, 1.9, monitors=(Raiser(),))
        assert_no_children()


class TestSweep:
    def _tiny(self):
        grid = SweepGrid(tau_values=(0.4,), gamma1_values=(0.6,),
                         gamma2_values=(0.01,), lambda_values=(1.9,),
                         include_equal_sigma=True)
        inst = TVInstance(n1=16, n2=16, peak=1.0, alpha=0.01, eps=1e-6,
                          max_iter=20000)
        return grid, inst

    def test_rows_schema_and_determinism(self):
        from pdsplit.tv import SWEEP_COLUMNS

        grid, inst = self._tiny()
        grid = dataclasses.replace(grid, seeds=(0, 1))
        rows = sweep(grid.configs(inst), inst)
        assert len(rows) == 4  # (1 gamma cell + equal-sigma) x 2 seeds
        for row in rows:
            assert set(row) == set(SWEEP_COLUMNS)
            assert row["converged"]
        # a rerun on a process pool, also with more workers than CPUs,
        # gives the rows of the single process in config order
        for workers in (2, os.cpu_count() + 1):
            rows2 = sweep(grid.configs(inst), inst, workers)
            assert len(rows2) == len(rows)
            for a, b in zip(rows, rows2):
                for key in a:
                    if key != "wall_ms":
                        assert a[key] == b[key]
        assert [(r["seed"], r["sigma1"]) for r in rows] == [
            (cfg.seed, cfg.sigma1) for cfg in grid.configs(inst)]
        assert multiprocessing.active_children() == []

    def test_one_usable_cpu_runs_serially(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool on one CPU")

        grid, inst = self._tiny()
        configs = grid.configs(dataclasses.replace(inst, max_iter=200))
        rows = sweep(configs, inst)
        one_cpu(monkeypatch)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        rows2 = sweep(configs, inst, workers=2)
        assert [{k: v for k, v in r.items() if k != "wall_ms"}
                for r in rows2] == [
            {k: v for k, v in r.items() if k != "wall_ms"} for r in rows]

    def test_default_grid_is_the_old_command_line_default(self):
        # the grid the sweep command built from its own default strings
        from pdsplit.cli import _floats

        _, inst = self._tiny()
        old = SweepGrid(_floats("0.2"), _floats("0.5 0.6 0.65"),
                        _floats("0.001 0.005 0.01"), _floats("1.0 1.5 1.9"),
                        seeds=(0,), include_equal_sigma=True)
        configs = SweepGrid().configs(inst)
        assert len(configs) == 30
        assert configs == old.configs(inst)

    @pytest.mark.parametrize("seeds", [(), (-1,), (0, -1)])
    def test_seeds_must_be_nonempty_and_nonnegative(self, seeds):
        with pytest.raises(ValueError, match="seeds"):
            SweepGrid(seeds=seeds)

    def test_cells_satisfy_boundary(self):
        grid, inst = self._tiny()
        rows = sweep(dataclasses.replace(grid, seeds=(0,)).configs(inst), inst)
        d = gradient_norm_sq(16)
        for row in rows:
            val = row["tau"] * (row["sigma1"] * d + row["sigma2"] * d
                                + row["sigma3"])
            assert val == pytest.approx(1.0, rel=1e-12)

    def test_published_cell_in_grid_enumeration(self):
        # on a 256-point axis, the cell (tau=0.2, g1=0.6, g2=0.01) carries
        # the published step sizes 0.7425 / 0.4950
        cfg = TVInstance(n1=256, n2=256).config(0.2, 1.0, 0,
                                                gammas=(0.6, 0.01))
        assert cfg.sigma1 == pytest.approx(0.7425, abs=5e-4)
        assert cfg.sigma2 == pytest.approx(0.4950, abs=5e-4)
        assert cfg.sigma3 == pytest.approx(0.05, abs=1e-12)

    def test_single_cell_matches_direct_run(self):
        grid, inst = self._tiny()
        grid = SweepGrid(grid.tau_values, grid.gamma1_values,
                         grid.gamma2_values, grid.lambda_values,
                         include_equal_sigma=False)
        rows = sweep(dataclasses.replace(grid, seeds=(7,)).configs(inst), inst)
        assert len(rows) == 1
        row = rows[0]
        clean, R, observed = None, None, None
        clean = synthetic_image(16, 16, 1.0)
        R = build_gaussian_blur(16, 16, 9, 4.0)
        blurred = ImageGrid(
            R.forward(clean.pixels.ravel()).reshape(16, 16), 1.0
        )
        observed = add_gaussian_noise(blurred, 1e-3, 7)
        cfg = TVConfig(tau=row["tau"], sigma1=row["sigma1"],
                       sigma2=row["sigma2"], sigma3=row["sigma3"],
                       alpha=0.01, relaxation=1.9, eps=1e-6,
                       max_iter=20000, seed=7)
        run = run_tv_solver(cfg, observed, R)
        assert row["iterations"] == run.iterations
        assert row["final_residual"] == run.final_residual
        assert row["objective"] == tv_objective(
            run.image.pixels, QuadraticDataFit(R, hvector(observed.pixels)),
            0.01, build_gradient_ops(16, 16))
        assert row["psnr"] == psnr(run.image, clean)

    def test_pool_rows_report_max_iter(self):
        grid, _ = self._tiny()
        inst = TVInstance(n1=16, n2=16, peak=1.0, eps=1e-12, max_iter=1)
        configs = dataclasses.replace(grid, seeds=(0, 1)).configs(inst)
        rows = sweep(configs, inst, 2)
        assert len(rows) == 4
        assert all(r["stop_reason"] == "max_iter" and not r["converged"]
                   and r["iterations"] == 1 and r["error"] == ""
                   for r in rows)
        assert multiprocessing.active_children() == []

    def test_failed_cell_recorded(self, monkeypatch):
        # max_iter=1 cannot converge; row must report the failure
        grid, _ = self._tiny()
        inst = TVInstance(n1=16, n2=16, peak=1.0, eps=1e-12, max_iter=1)
        rows = sweep(dataclasses.replace(grid, seeds=(0,)).configs(inst), inst)
        assert all(not r["converged"] for r in rows)
        assert all(r["stop_reason"] == "max_iter" for r in rows)
        assert all(r["error"] == "" for r in rows)
        # a non-finite step ends the cell with its own stop reason
        import pdsplit.tv as tv_mod

        with monkeypatch.context() as m:
            m.setattr(QuadraticDataFit, "resolvent",
                      lambda self, p, x: np.full_like(x, np.inf))
            with np.errstate(invalid="ignore"):
                rows = sweep(dataclasses.replace(grid, seeds=(0,))
                             .configs(inst), inst)
        assert all(r["stop_reason"] == "nonfinite" and not r["converged"]
                   and r["error"] == "" for r in rows)
        # a cell that raises gives a NaN row naming the exception

        def boom(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(tv_mod, "run_tv_solver", boom)
        rows = sweep(dataclasses.replace(grid, seeds=(0,)).configs(inst), inst)
        assert len(rows) == 2
        for r in rows:
            assert r["error"] == "RuntimeError: solver exploded"
            assert r["iterations"] == 0 and not r["converged"]
            assert r["stop_reason"] == ""
            assert math.isnan(r["objective"])


def grid(n1=4, n2=4, peak=1.0):
    return ImageGrid(np.zeros((n1, n2)), peak)


# every input check of tv, by the exception and a fragment of its
# message
@pytest.mark.parametrize("call,exc,fragment", [
    pytest.param(lambda: ImageGrid(np.zeros((1, 5)), 1.0), ValueError,
                 "both sides >= 2", id="image-one-row"),
    pytest.param(lambda: ImageGrid(np.array([[0.0, np.nan], [0.0, 0.0]]),
                                   1.0),
                 ValueError, "entries must be finite", id="image-nan"),
    pytest.param(lambda: grid(peak=0.0), ValueError, "peak must be positive",
                 id="image-peak-0"),
    pytest.param(lambda: gradient_norm_sq(1), ValueError, "need n >= 2",
                 id="gradient-norm-n1"),
    pytest.param(lambda: gaussian_kernel(3, 0.0), ValueError,
                 "std must be positive", id="kernel-std-0"),
    pytest.param(lambda: build_gaussian_blur(4, 4, 9, 4.0), ValueError,
                 "kernel larger than the image", id="blur-kernel-too-large"),
    pytest.param(lambda: add_gaussian_noise(grid(), -1.0, 0), ValueError,
                 "noise level must be nonnegative", id="noise-negative"),
    pytest.param(lambda: psnr(grid(2, 2), grid(3, 3)), ValueError,
                 "image shapes differ", id="psnr-shapes"),
    pytest.param(lambda: equal_critical_sigma(0.0, 4.0, 4.0), ValueError,
                 "tau must be positive", id="equal-sigma-tau-0"),
    pytest.param(lambda: build_problem(TVConfig(0.1, 0.1, 0.1, 0.1), grid(),
                                       build_gaussian_blur(5, 5, 3, 1.0)),
                 ValueError, "blur operator does not match",
                 id="problem-blur-grid"),
    # the same pixel count on the transposed grid
    pytest.param(lambda: build_problem(TVConfig(0.1, 0.1, 0.1, 0.1),
                                       grid(4, 6),
                                       build_gaussian_blur(6, 4, 3, 4.0)),
                 ValueError,
                 "blur operator does not match the image grid: blur grid "
                 "(6, 4), image (4, 6)",
                 id="problem-blur-transposed"),
    pytest.param(lambda: TVInstance(blur_std=0.0), ValueError,
                 "blur std 0.0 must be positive", id="instance-blur-std-0"),
    # a subnormal step has an infinite inverse in the metric V
    pytest.param(lambda: TVConfig(0.4, 1e-320, 0.1, 0.1), ValueError,
                 "step sizes must be positive normal floats",
                 id="config-subnormal-sigma"),
])
def test_input_checks(call, exc, fragment):
    with pytest.raises(exc) as info:
        call()
    assert fragment in str(info.value)
