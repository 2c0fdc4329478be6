"""Total-variation deblurring experiment at desk scale.

Problem assembly (quadratic data fit, two anisotropic difference
blocks, box constraint block), the relaxed primal-dual solver on it,
step-size parameterizations on the critical boundary, metrics and a
reproducible parameter sweep.  ``TVInstance`` is the one definition of
the experiment: its defaults and checks, its synthetic observation
(``observe``) and the ``TVConfig`` of one solve (``config``).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .km import KMResult, Monitor, RelaxationSchedule
from .linalg import HVector, LinOp, identity_op, scalar_precond
from .monotone import (
    QuadraticDataFit,
    box_operator,
    data_fit_operator,
    l1_operator,
)
from .primal_dual import COND_TOL, PDProblem, pd_iterate

__all__ = [
    "ImageGrid",
    "TVConfig",
    "TVRunResult",
    "SweepGrid",
    "TVInstance",
    "gradient_norm_sq",
    "build_gradient_ops",
    "build_gaussian_blur",
    "gaussian_kernel",
    "add_gaussian_noise",
    "tv_objective",
    "psnr",
    "synthetic_image",
    "boundary_sigmas",
    "equal_critical_sigma",
    "check_config",
    "build_problem",
    "run_tv_solver",
    "sweep",
    "SWEEP_COLUMNS",
]


@dataclass(frozen=True)
class ImageGrid:
    """Grayscale image: an n1 x n2 float grid plus its dynamic range."""

    pixels: np.ndarray
    peak: float = 255.0

    def __post_init__(self):
        arr = np.asarray(self.pixels, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
            raise ValueError("image must be 2-D with both sides >= 2")
        if not np.all(np.isfinite(arr)):
            raise ValueError("image entries must be finite")
        if not self.peak > 0:
            raise ValueError("peak must be positive")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "pixels", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.pixels.shape

    def as_hvector(self) -> HVector:
        return HVector(self.pixels.ravel(), self.pixels.shape)


@dataclass(frozen=True)
class TVConfig:
    """Step sizes, regularization and run controls for one solve.

    The step sizes must satisfy
    tau * (sigma1*||D1||^2 + sigma2*||D2||^2 + sigma3)
    <= 1 + primal_dual.COND_TOL on the target grid; ``build_problem``
    enforces this.
    """

    tau: float
    sigma1: float
    sigma2: float
    sigma3: float
    alpha: float = 0.01
    relaxation: float = 1.0
    eps: float = 1e-8
    max_iter: int = 100000
    seed: int = 0
    blur_size: int = 9
    blur_std: float = 4.0
    noise_std_rel: float = 1e-3


def gradient_norm_sq(n: int) -> float:
    """Largest eigenvalue of the 1-D forward-difference normal matrix.

    Forward differences with a zero last row have normal matrix equal
    to the path-graph Laplacian, whose spectrum is 4 sin^2(k pi / 2n);
    the maximum is 4 cos^2(pi / 2n), just below 4.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return 4.0 * math.cos(math.pi / (2.0 * n)) ** 2


def build_gradient_ops(n1: int, n2: int) -> tuple[LinOp, LinOp]:
    """Forward-difference operators along each axis (zero last row).

    Adjoints are negative divergences, so the adjoint identity holds
    exactly.  Both map flat n1*n2 vectors to flat n1*n2 vectors.
    """
    if n1 < 2 or n2 < 2:
        raise ValueError("grid must be at least 2 x 2")
    n = n1 * n2
    shape = (n1, n2)

    def grid(v: np.ndarray, out: np.ndarray | None):
        # the input and the result as n1 x n2 views; copy=False raises
        # rather than let a result land in a copy of ``out``
        if out is None:
            return v.reshape(shape), np.empty(shape)
        return v.reshape(shape), out.reshape(shape, copy=False)

    def d1_fwd(v: np.ndarray, out=None) -> np.ndarray:
        x, g = grid(v, out)
        np.subtract(x[1:, :], x[:-1, :], out=g[:-1, :])
        g[-1, :] = 0.0
        return g.ravel() if out is None else out

    def d1_adj(v: np.ndarray, out=None) -> np.ndarray:
        y, d = grid(v, out)
        np.negative(y[0, :], out=d[0, :])
        np.subtract(y[:-2, :], y[1:-1, :], out=d[1:-1, :])
        d[-1, :] = y[-2, :]
        return d.ravel() if out is None else out

    # along axis 1 the difference runs over the flat arrays, which is
    # contiguous; the columns where it crosses a row end are then set

    def d2_fwd(v: np.ndarray, out=None) -> np.ndarray:
        _, g = grid(v, out)
        flat = g.reshape(-1)
        np.subtract(v[1:], v[:-1], out=flat[:-1])
        g[:, -1] = 0.0
        return flat if out is None else out

    def d2_adj(v: np.ndarray, out=None) -> np.ndarray:
        y, d = grid(v, out)
        flat = d.reshape(-1)
        np.subtract(v[:-1], v[1:], out=flat[1:])
        # not np.negative(y[:, 0], out=d[:, 0]): numpy 2.4.6 writes that
        # strided column wrongly when rows are 64 bytes apart (n2 = 8)
        d[:, 0] = -y[:, 0]
        d[:, -1] = y[:, -2]
        return flat if out is None else out

    d1 = LinOp(d1_fwd, d1_adj, n, n, grid_shape=shape)
    d2 = LinOp(d2_fwd, d2_adj, n, n, grid_shape=shape)
    return d1, d2


def gaussian_kernel(size: int, std: float) -> np.ndarray:
    """Truncated, normalized Gaussian kernel (sums to 1)."""
    if size % 2 == 0:
        raise ValueError("kernel size must be odd")
    if not std > 0:
        raise ValueError("std must be positive")
    x = np.arange(size, dtype=np.float64) - size // 2
    k1 = np.exp(-0.5 * (x / std) ** 2)
    k2 = np.outer(k1, k1)
    return k2 / k2.sum()


def build_gaussian_blur(
    n1: int, n2: int, size: int = 9, std: float = 4.0
) -> LinOp:
    """Periodic Gaussian blur, diagonalized by the real FFT.

    Self-adjoint by kernel symmetry; its transfer function (half
    spectrum, ``rfft2`` layout) is attached to the operator so
    quadratic resolvents can reuse it.
    """
    kern = gaussian_kernel(size, std)
    if size > n1 or size > n2:
        raise ValueError("kernel larger than the image")
    pad = np.zeros((n1, n2))
    pad[:size, :size] = kern
    pad = np.roll(np.roll(pad, -(size // 2), axis=0), -(size // 2), axis=1)
    symbol = np.fft.rfft2(pad)
    sym_conj = np.conj(symbol)
    shape = (n1, n2)

    def filtered(sym: np.ndarray, v: np.ndarray, out: np.ndarray | None):
        spec = np.fft.rfft2(v.reshape(shape))
        np.multiply(sym, spec, out=spec)
        res = np.fft.irfft2(spec, s=shape).ravel()
        if out is None:
            return res
        out[...] = res
        return out

    def fwd(v: np.ndarray, out=None) -> np.ndarray:
        return filtered(symbol, v, out)

    def adj(v: np.ndarray, out=None) -> np.ndarray:
        return filtered(sym_conj, v, out)

    n = n1 * n2
    return LinOp(fwd, adj, n, n, fft_symbol=symbol, grid_shape=shape)


def add_gaussian_noise(img: ImageGrid, std_rel: float, seed: int) -> ImageGrid:
    """Additive zero-mean white Gaussian noise.

    ``std_rel`` is the standard deviation on the unit-scaled image, so
    the absolute deviation is std_rel * peak.  Deterministic per seed.
    """
    if not std_rel >= 0:
        raise ValueError("noise level must be nonnegative")
    if std_rel == 0:
        return img
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, std_rel * img.peak, size=img.shape)
    return ImageGrid(img.pixels + noise, img.peak)


def tv_objective(
    x: ImageGrid | np.ndarray,
    fit: QuadraticDataFit,
    alpha: float,
    grads: tuple[LinOp, LinOp] | None = None,
) -> float:
    """Data fit plus anisotropic total variation:
    0.5*||R x - b||^2 + alpha * (||D1 x||_1 + ||D2 x||_1).

    ``x`` is an ImageGrid or its n1 x n2 pixel array, and ``fit`` the
    data-fit term of R and the observation b, whose ``value`` gives
    the first term.  ``grads`` is the (D1, D2) pair of
    ``build_gradient_ops`` for that grid; it is built here when
    omitted, so callers evaluating many iterates pass it.
    """
    pixels = x.pixels if isinstance(x, ImageGrid) else x
    d1, d2 = grads if grads is not None else build_gradient_ops(*pixels.shape)
    xv = pixels.ravel()
    # one array holds each difference and its magnitude in turn
    g = d1.forward(xv)
    tv = float(np.abs(g, out=g).sum())
    tv += float(np.abs(d2.forward(xv, out=g), out=g).sum())
    return fit.value(xv) + alpha * tv


def psnr(x: ImageGrid, ref: ImageGrid) -> float:
    """Peak signal-to-noise ratio 10 log10(peak^2 N / ||x - ref||^2).

    Returns +inf when the images coincide.
    """
    if x.shape != ref.shape:
        raise ValueError("image shapes differ")
    err = x.pixels - ref.pixels
    sq = float(np.sum(err * err))
    if sq == 0.0:
        return math.inf
    n = err.size
    return 10.0 * math.log10(ref.peak ** 2 * n / sq)


def synthetic_image(n1: int, n2: int, peak: float = 255.0) -> ImageGrid:
    """Deterministic piecewise-constant test image.

    A flat background with a bright rectangle, a mid-gray disc and a
    dark bar; cartoon-like content that total-variation models recover
    well.
    """
    img = np.full((n1, n2), 0.25 * peak)
    r0, r1 = n1 // 8, n1 // 2
    c0, c1 = n2 // 8, n2 // 2
    img[r0:r1, c0:c1] = 0.85 * peak
    ii, jj = np.mgrid[0:n1, 0:n2]
    disc = (ii - 2 * n1 // 3) ** 2 + (jj - 2 * n2 // 3) ** 2 <= (
        min(n1, n2) // 5
    ) ** 2
    img[disc] = 0.55 * peak
    img[(7 * n1) // 10:(8 * n1) // 10, n2 // 6:(5 * n2) // 6] = 0.1 * peak
    return ImageGrid(img, peak)


def boundary_sigmas(
    tau: float, gamma1: float, gamma2: float, d1_sq: float, d2_sq: float
) -> tuple[float, float, float]:
    """Dual step sizes on the critical boundary.

    sigma1 = gamma1 (1 - gamma2) / (tau ||D1||^2),
    sigma2 = (1 - gamma1)(1 - gamma2) / (tau ||D2||^2),
    sigma3 = gamma2 / tau,
    so tau (sigma1 ||D1||^2 + sigma2 ||D2||^2 + sigma3) = 1 exactly.
    """
    if not (0 < gamma1 < 1 and 0 < gamma2 < 1):
        raise ValueError("gamma parameters must lie in (0, 1)")
    if not tau > 0:
        raise ValueError("tau must be positive")
    return (
        gamma1 * (1.0 - gamma2) / (tau * d1_sq),
        (1.0 - gamma1) * (1.0 - gamma2) / (tau * d2_sq),
        gamma2 / tau,
    )


def equal_critical_sigma(tau: float, d1_sq: float, d2_sq: float) -> float:
    """Single critical dual step size shared by all blocks:
    sigma = 1 / (tau (1 + ||D1||^2 + ||D2||^2))."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    return 1.0 / (tau * (1.0 + d1_sq + d2_sq))


def _check_run_controls(eps: float, max_iter: int) -> None:
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def check_config(cfg: TVConfig, shape: tuple[int, int]) -> None:
    """Raise ValueError unless ``cfg`` can run on an n1 x n2 grid: eps
    positive, max_iter at least 1, relaxation in [0, 2], alpha
    nonnegative and positive step sizes within the boundary condition.
    Every comparison fails on NaN."""
    _check_run_controls(cfg.eps, cfg.max_iter)
    if not cfg.alpha >= 0:
        raise ValueError(f"alpha must be nonnegative, got {cfg.alpha}")
    if not 0.0 <= cfg.relaxation <= 2.0:
        raise ValueError(f"relaxation {cfg.relaxation} outside [0, 2]")
    steps = (cfg.tau, cfg.sigma1, cfg.sigma2, cfg.sigma3)
    if not all(s > 0 for s in steps):
        raise ValueError(f"step sizes must be positive, got {steps}")
    bound = cfg.tau * (
        cfg.sigma1 * gradient_norm_sq(shape[0])
        + cfg.sigma2 * gradient_norm_sq(shape[1]) + cfg.sigma3
    )
    if not bound <= 1.0 + COND_TOL:
        raise ValueError(
            f"step sizes violate the boundary condition ({bound:.6f} > 1)"
        )


def build_problem(cfg: TVConfig, observed: ImageGrid, R: LinOp,
                  fit: QuadraticDataFit | None = None) -> PDProblem:
    """Assemble the three-block primal-dual problem for one image.

    The primal operator is the gradient of ``fit``, the data-fit term
    0.5*||R x - b||^2 of the observation b.  It is built here when
    omitted; a caller that also evaluates ``tv_objective`` passes its
    own, so that one fit serves both.  Blocks: anisotropic differences
    along each axis with an l1 penalty, and an identity-coupled box
    constraint on the dynamic range.
    """
    n1, n2 = observed.shape
    n = n1 * n2
    if R.dom_dim != n or R.cod_dim != n:
        raise ValueError("blur operator does not match the image grid")
    check_config(cfg, observed.shape)
    if fit is None:
        fit = QuadraticDataFit(R, observed.as_hvector())
    elif fit.R is not R:
        raise ValueError("data fit is not of the blur operator")
    d1, d2 = build_gradient_ops(n1, n2)
    return PDProblem(
        A=data_fit_operator(fit),
        blocks=(
            (l1_operator(cfg.alpha), d1),
            (l1_operator(cfg.alpha), d2),
            (box_operator(0.0, observed.peak), identity_op(n)),
        ),
        upsilon=scalar_precond(cfg.tau, n),
        sigmas=(
            scalar_precond(cfg.sigma1, n),
            scalar_precond(cfg.sigma2, n),
            scalar_precond(cfg.sigma3, n),
        ),
    )


@dataclass
class TVRunResult(KMResult):
    """A deblurring run: the KM result plus the restored image, the
    problem that was solved and its data-fit term."""

    image: ImageGrid | None = None
    problem: PDProblem | None = None
    fit: QuadraticDataFit | None = None


def run_tv_solver(
    cfg: TVConfig,
    observed: ImageGrid,
    R: LinOp,
    monitors: tuple[Monitor, ...] = (),
    record_objective: bool = False,
) -> TVRunResult:
    """Relaxed primal-dual solve of the deblurring problem.

    Starts from the observed image with zero duals and stops when the
    relative primal-dual step drops below ``cfg.eps`` (or a step turns
    non-finite; ``stop_reason`` says which).  The returned
    image is the final (relaxed) primal iterate; it may leave the box
    by a relaxation-sized margin mid-run, while one extra resolvent
    application lands inside it.  With ``record_objective`` each trace
    row carries ``tv_objective`` of its primal iterate, evaluated with
    the solve's own data-fit term (``fit`` of the result).
    """
    fit = QuadraticDataFit(R, observed.as_hvector())
    problem = build_problem(cfg, observed, R, fit)
    z0 = problem.initial_state(observed.pixels)
    sched = RelaxationSchedule.constant(cfg.relaxation)
    objective_fn = None
    if record_objective:
        alpha = cfg.alpha
        shape = observed.shape
        n = problem.dim
        grads = build_gradient_ops(*shape)

        def objective_fn(z: np.ndarray) -> float:
            return tv_objective(z[:n].reshape(shape), fit, alpha, grads)

    result = pd_iterate(
        problem, z0, sched, cfg.eps, cfg.max_iter,
        monitors=monitors, objective_fn=objective_fn,
    )
    restored = ImageGrid(result.state[:problem.dim].reshape(observed.shape),
                         observed.peak)
    return TVRunResult(**vars(result), image=restored, problem=problem,
                       fit=fit)


@dataclass(frozen=True)
class TVInstance:
    """The deblurring experiment: image, blur and noise model, TV
    weight and run controls.  Its field defaults are the experiment's
    defaults; ``observe`` builds the observation and ``config`` one
    solve of it."""

    n1: int = 64
    n2: int = 64
    peak: float = 255.0
    alpha: float = 0.01
    blur_size: int = 9
    blur_std: float = 4.0
    noise_std_rel: float = 1e-3
    eps: float = 1e-8
    max_iter: int = 100000

    def __post_init__(self):
        # comparisons written so that NaN fails them
        _check_run_controls(self.eps, self.max_iter)
        if min(self.n1, self.n2) < 2:
            raise ValueError(
                f"grid must be at least 2 x 2, got {self.n1} x {self.n2}"
            )
        if not (self.blur_size % 2 == 1
                and 1 <= self.blur_size <= min(self.n1, self.n2)):
            raise ValueError(
                f"blur size {self.blur_size} must be odd and at most "
                "the grid side"
            )
        if not (self.blur_std > 0 and self.peak > 0):
            raise ValueError(f"blur std {self.blur_std} and peak "
                             f"{self.peak} must be positive")
        if not (self.noise_std_rel >= 0 and self.alpha >= 0):
            raise ValueError(f"noise level {self.noise_std_rel} and alpha "
                             f"{self.alpha} must be nonnegative")

    def observe(self, seed: int) -> tuple[ImageGrid, LinOp, ImageGrid]:
        """(clean, R, observed): the synthetic image, its blur operator
        and the blurred image with the noise of ``seed``."""
        clean = synthetic_image(self.n1, self.n2, self.peak)
        R = build_gaussian_blur(self.n1, self.n2, self.blur_size,
                                self.blur_std)
        blurred = ImageGrid(
            R.forward(clean.pixels.ravel()).reshape(clean.shape), self.peak
        )
        return clean, R, add_gaussian_noise(blurred, self.noise_std_rel, seed)

    def config(
        self,
        tau: float,
        sigmas: tuple[float, float, float],
        relaxation: float,
        seed: int,
    ) -> TVConfig:
        """One solve of this experiment with the given step sizes."""
        s1, s2, s3 = sigmas
        return TVConfig(
            tau=tau, sigma1=s1, sigma2=s2, sigma3=s3, alpha=self.alpha,
            relaxation=relaxation, eps=self.eps, max_iter=self.max_iter,
            seed=seed, blur_size=self.blur_size, blur_std=self.blur_std,
            noise_std_rel=self.noise_std_rel,
        )


@dataclass(frozen=True)
class SweepGrid:
    """Cells of the step-size study: every (tau, gamma1, gamma2)
    triple on the critical boundary, plus one equal-sigma cell per tau
    when ``include_equal_sigma`` is set."""

    tau_values: tuple[float, ...]
    gamma1_values: tuple[float, ...]
    gamma2_values: tuple[float, ...]
    lambda_values: tuple[float, ...]
    include_equal_sigma: bool = True

    def __post_init__(self):
        if not (self.tau_values and self.lambda_values):
            raise ValueError("tau_values and lambda_values must be nonempty")
        if not (self.include_equal_sigma
                or (self.gamma1_values and self.gamma2_values)):
            raise ValueError("the sweep grid has no cells")
        for tau in self.tau_values:
            if not tau > 0:
                raise ValueError(f"tau {tau} must be positive")
        for g in (*self.gamma1_values, *self.gamma2_values):
            if not 0.0 < g < 1.0:
                raise ValueError(f"gamma {g} outside (0, 1)")
        for lam in self.lambda_values:
            if not 0.0 <= lam <= 2.0:
                raise ValueError(f"relaxation {lam} outside [0, 2]")


SWEEP_COLUMNS = (
    "tau", "sigma1", "sigma2", "sigma3", "lambda", "seed",
    "iterations", "converged", "final_residual", "objective",
    "psnr", "wall_ms", "error",
)


def _sweep_cells(grid: SweepGrid, d1_sq: float, d2_sq: float):
    cells = []
    for tau in grid.tau_values:
        for g1 in grid.gamma1_values:
            for g2 in grid.gamma2_values:
                cells.append((tau,) + boundary_sigmas(tau, g1, g2, d1_sq, d2_sq))
        if grid.include_equal_sigma:
            s = equal_critical_sigma(tau, d1_sq, d2_sq)
            cells.append((tau, s, s, s))
    return cells


def _run_cell(cfg, observed, R, clean):
    """One sweep row; a cell that raises gives a NaN row whose
    ``error`` holds the exception class and message."""
    row = {
        "tau": cfg.tau,
        "sigma1": cfg.sigma1,
        "sigma2": cfg.sigma2,
        "sigma3": cfg.sigma3,
        "lambda": cfg.relaxation,
        "seed": cfg.seed,
    }
    t0 = time.perf_counter()
    try:
        run = run_tv_solver(cfg, observed, R)
        row["wall_ms"] = (time.perf_counter() - t0) * 1e3
        row.update(
            iterations=run.iterations,
            converged=run.converged,
            final_residual=run.final_residual,
            objective=tv_objective(run.image, run.fit, cfg.alpha),
            psnr=psnr(run.image, clean),
            error="",
        )
    except Exception as exc:  # one failed cell must not end the sweep
        row.update(
            wall_ms=(time.perf_counter() - t0) * 1e3,
            iterations=0,
            converged=False,
            final_residual=math.nan,
            objective=math.nan,
            psnr=math.nan,
            error=f"{type(exc).__name__}: {exc}",
        )
    return row


def sweep(
    grid: SweepGrid,
    instance: TVInstance,
    seeds: Sequence[int],
    workers: int | None = None,
) -> list[dict]:
    """Run every sweep cell for every seed; one row per (cell, seed).

    Cells are independent and reproducible: each runs on
    ``instance.observe(seed)`` for its row's seed, and rows come back
    in deterministic cell-major order regardless of scheduling.
    """
    d1_sq = gradient_norm_sq(instance.n1)
    d2_sq = gradient_norm_sq(instance.n2)
    observations = {seed: instance.observe(seed) for seed in seeds}
    jobs = [
        instance.config(tau, sigmas, lam, seed)
        for tau, *sigmas in _sweep_cells(grid, d1_sq, d2_sq)
        for lam in grid.lambda_values
        for seed in seeds
    ]

    def run(cfg: TVConfig) -> dict:
        clean, R, observed = observations[cfg.seed]
        return _run_cell(cfg, observed, R, clean)

    if workers is None or workers <= 1:
        return [run(cfg) for cfg in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, jobs))
