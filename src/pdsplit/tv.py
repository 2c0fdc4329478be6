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
import os
import threading
import time
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .km import KMResult, Monitor, RelaxationSchedule
from .linalg import HVector, LinOp, identity_op, scalar_precond
from .monotone import QuadraticDataFit, box_operator, l1_operator
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
    "build_problem",
    "run_tv_solver",
    "sweep",
    "SWEEP_COLUMNS",
]

# a solve holds about 232 bytes per pixel (measured between 512 x 512
# and 1024 x 1024), so a grid of MAX_PIXELS takes about 1.0 GB
MAX_PIXELS = 2 ** 22
# the largest peak * (1 + noise_std_rel): the data fit and psnr square
# pixel values and sum them over up to MAX_PIXELS pixels
MAX_SCALE = 1e100


@dataclass(frozen=True)
class ImageGrid:
    """Grayscale image: an n1 x n2 float grid plus its dynamic range."""

    pixels: np.ndarray
    peak: float

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

    return LinOp(d1_fwd, d1_adj, n, n), LinOp(d2_fwd, d2_adj, n, n)


def gaussian_kernel(size: int, std: float) -> np.ndarray:
    """Truncated, normalized Gaussian kernel (sums to 1)."""
    if size % 2 == 0:
        raise ValueError("kernel size must be odd")
    if not std > 0:
        raise ValueError("std must be positive")
    x = np.arange(size, dtype=np.float64) - size // 2
    # a tiny std overflows the square, and exp(-inf) = 0 is the limit
    with np.errstate(over="ignore"):
        k1 = np.exp(-0.5 * (x / std) ** 2)
    k2 = np.outer(k1, k1)
    return k2 / k2.sum()


def build_gaussian_blur(n1: int, n2: int, size: int, std: float) -> LinOp:
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


def tv_objective(pixels: np.ndarray, fit: QuadraticDataFit, alpha: float,
                 grads: tuple[LinOp, LinOp]) -> float:
    """Data fit plus anisotropic total variation:
    0.5*||R x - b||^2 + alpha * (||D1 x||_1 + ||D2 x||_1).

    ``pixels`` is the n1 x n2 image x, ``fit`` the data-fit term of R
    and the observation b, whose ``value`` gives the first term, and
    ``grads`` the (D1, D2) pair of ``build_gradient_ops`` for that
    grid.
    """
    d1, d2 = grads
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


def synthetic_image(n1: int, n2: int, peak: float) -> ImageGrid:
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


def _check_boundary(cfg: TVConfig, shape: tuple[int, int]) -> None:
    """Raise ValueError unless the step sizes of ``cfg`` satisfy
    tau (sigma1 ||D1||^2 + sigma2 ||D2||^2 + sigma3) <= 1 + COND_TOL on
    an n1 x n2 grid, with the exact norms of ``gradient_norm_sq``."""
    bound = cfg.tau * (
        cfg.sigma1 * gradient_norm_sq(shape[0])
        + cfg.sigma2 * gradient_norm_sq(shape[1]) + cfg.sigma3
    )
    if not bound <= 1.0 + COND_TOL:
        raise ValueError(
            f"step sizes violate the boundary condition ({bound:.6f} > 1)"
        )


def build_problem(cfg: TVConfig, observed: ImageGrid, R: LinOp) -> PDProblem:
    """Assemble the three-block primal-dual problem for one image.

    The primal operator A is the ``QuadraticDataFit`` of R and the
    observation b, the gradient of 0.5*||R x - b||^2.  Blocks:
    anisotropic differences along each axis with an l1 penalty, and an
    identity-coupled box constraint on the dynamic range.
    """
    n1, n2 = observed.shape
    n = n1 * n2
    if R.grid_shape != observed.shape:
        raise ValueError(
            f"blur operator does not match the image grid: blur grid "
            f"{R.grid_shape}, image {observed.shape}"
        )
    _check_boundary(cfg, observed.shape)
    d1, d2 = build_gradient_ops(n1, n2)
    return PDProblem(
        A=QuadraticDataFit(R, HVector(observed.pixels)),
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
    """A deblurring run: the KM result plus the restored image, its
    ``tv_objective`` and the problem that was solved."""

    image: ImageGrid | None = None
    objective: float = math.nan
    problem: PDProblem | None = None


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, if any)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


class _ObjectiveScorer(Monitor):
    """``score`` of each iterate's first ``n`` entries, in ``values``,
    by a helper forked in ``start`` on two usable CPUs.  ``observe``
    copies the iterate into one of two shared slots, sends its index
    down a pipe and waits for a reply only when both slots are
    unscored.  Once the helper dies, the caller scores inline."""

    def __init__(self, score, n: int):
        self.score, self.n = score, n
        self.values, self.sent = [], 0
        self.pid = None  # the helper's; None while scoring inline

    def start(self, z0) -> None:
        if _usable_cpus() < 2 or not hasattr(os, "fork"):
            return
        # imported here: a caller that never forks should not load them
        import mmap
        import signal
        self.slots = np.frombuffer(mmap.mmap(-1, 16 * self.n)).reshape(2, -1)
        jobs, self.jobs = os.pipe()
        self.results, done = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:  # no process or memory to spare: score inline
            os.close(self.jobs)
            os.close(self.results)
        if self.pid == 0:
            try:
                # a terminal Ctrl-C ends the caller, whose exit ends this
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(self.jobs)
                while index := os.read(jobs, 8):
                    x = self.slots[int.from_bytes(index, "little") % 2]
                    os.write(done, np.float64(self.score(x)).tobytes())
                os._exit(0)
            finally:
                os._exit(1)
        os.close(jobs)
        os.close(done)

    def observe(self, n, z, sz, z_next) -> None:
        if self.pid is not None and self.sent - len(self.values) == 2:
            self._receive()
        if self.pid is None:
            self.values.append(self.score(z_next[:self.n]))
            return
        np.copyto(self.slots[self.sent % 2], z_next[:self.n])
        self.sent += 1
        try:
            os.write(self.jobs, (self.sent - 1).to_bytes(8, "little"))
        except BrokenPipeError:
            self.finish()

    def _receive(self) -> None:
        score = os.read(self.results, 8)
        if score:
            self.values.append(np.frombuffer(score)[0])
            return
        # the helper is gone: score what its slots still hold
        self.close()
        for k in range(len(self.values), self.sent):
            self.values.append(self.score(self.slots[k % 2]))

    def finish(self) -> np.ndarray:
        while self.pid is not None and len(self.values) < self.sent:
            self._receive()
        return np.array(self.values)

    def close(self) -> None:
        """End the helper, which exits when its pipe closes."""
        if self.pid is not None:
            os.close(self.jobs)
            os.close(self.results)
            os.waitpid(self.pid, 0)
            self.pid = None


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
    application lands inside it.  The result's ``objective`` is
    ``tv_objective`` of that image, scored with the solve's own data
    fit and difference blocks; with ``record_objective`` its
    ``objectives`` hold the same formula on each primal iterate, scored
    in a helper process where two CPUs allow (``_ObjectiveScorer``).
    """
    problem = build_problem(cfg, observed, R)
    fit = problem.A
    # (D1, D2): the couplings of the two l1 blocks
    grads = (problem.blocks[0][1], problem.blocks[1][1])
    shape = observed.shape
    n = problem.dim

    def score(x: np.ndarray) -> float:
        return tv_objective(x.reshape(shape), fit, cfg.alpha, grads)

    scorer = _ObjectiveScorer(score, n)
    # last, so that it forks after every other monitor's start
    monitors = tuple(monitors) + ((scorer,) if record_objective else ())
    try:
        result = pd_iterate(problem, problem.initial_state(observed.pixels),
                            RelaxationSchedule.constant(cfg.relaxation),
                            cfg.eps, cfg.max_iter, monitors)
        if record_objective:
            result.objectives = scorer.finish()
    finally:
        scorer.close()
    restored = ImageGrid(result.state[:n].reshape(shape), observed.peak)
    objective = tv_objective(restored.pixels, fit, cfg.alpha, grads)
    return TVRunResult(**vars(result), image=restored, objective=objective,
                       problem=problem)


@dataclass(frozen=True)
class TVInstance:
    """The deblurring experiment: image, blur and noise model, TV
    weight and run controls.  Its field defaults are the experiment's
    defaults; ``observe`` builds the observation and ``config`` one
    solve of it, whose ``TVConfig`` checks the TV weight and run
    controls."""

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
        if not (min(self.n1, self.n2) >= 2
                and self.n1 * self.n2 <= MAX_PIXELS):
            raise ValueError(
                f"grid must be at least 2 x 2 and at most {MAX_PIXELS} "
                f"pixels, got {self.n1} x {self.n2}"
            )
        if not (self.blur_size % 2 == 1
                and 1 <= self.blur_size <= min(self.n1, self.n2)):
            raise ValueError(
                f"blur size {self.blur_size} must be odd and at most "
                "the grid side"
            )
        if not self.blur_std > 0:
            raise ValueError(f"blur std {self.blur_std} must be positive")
        if not 0 < self.peak < math.inf:
            raise ValueError(f"peak {self.peak} must be positive and finite")
        if not 0 <= self.noise_std_rel < math.inf:
            raise ValueError(f"noise level {self.noise_std_rel} must be "
                             "nonnegative and finite")
        scale = self.peak * (1.0 + self.noise_std_rel)
        if not scale <= MAX_SCALE:
            raise ValueError(f"peak * (1 + noise level) = {scale:g} must be "
                             f"at most {MAX_SCALE:g}")

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
        tau: float = 0.2,
        relaxation: float = 1.0,
        seed: int = 0,
        gammas: tuple[float, float] | None = None,
        sigmas: tuple[float, float, float] | None = None,
    ) -> TVConfig:
        """One solve of this experiment.  Its dual step sizes are
        ``sigmas`` when given, else the ``boundary_sigmas`` of
        ``gammas``, else the equal critical sigma, on this grid."""
        if sigmas is None:
            d1_sq = gradient_norm_sq(self.n1)
            d2_sq = gradient_norm_sq(self.n2)
            if gammas is None:
                sigmas = (equal_critical_sigma(tau, d1_sq, d2_sq),) * 3
            else:
                sigmas = boundary_sigmas(tau, *gammas, d1_sq, d2_sq)
        elif gammas is not None:
            raise ValueError("step sizes given both as sigmas and as gammas;"
                             " give sigma1..sigma3 or gamma1 and gamma2")
        s1, s2, s3 = sigmas
        cfg = TVConfig(
            tau=tau, sigma1=s1, sigma2=s2, sigma3=s3, alpha=self.alpha,
            relaxation=relaxation, eps=self.eps, max_iter=self.max_iter,
            seed=seed, blur_size=self.blur_size, blur_std=self.blur_std,
            noise_std_rel=self.noise_std_rel,
        )
        _check_boundary(cfg, (self.n1, self.n2))
        return cfg


@dataclass(frozen=True)
class TVConfig:
    """Step sizes, regularization and run controls for one solve, with
    the defaults of ``TVInstance``.

    It checks its own values: eps positive and finite, max_iter at
    least 1, alpha nonnegative and finite, relaxation in [0, 2], seed
    nonnegative and step sizes of at least the smallest normal float.
    The boundary condition tau * (sigma1*||D1||^2 + sigma2*||D2||^2 +
    sigma3) <= 1 + primal_dual.COND_TOL depends on the grid, so
    ``build_problem`` and ``TVInstance.config`` enforce it.
    """

    tau: float
    sigma1: float
    sigma2: float
    sigma3: float
    alpha: float = TVInstance.alpha
    relaxation: float = 1.0
    eps: float = TVInstance.eps
    max_iter: int = TVInstance.max_iter
    seed: int = 0
    blur_size: int = TVInstance.blur_size
    blur_std: float = TVInstance.blur_std
    noise_std_rel: float = TVInstance.noise_std_rel

    def __post_init__(self):
        # comparisons written so that NaN fails them
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, "
                             f"got {self.eps}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, "
                             f"got {self.max_iter}")
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be nonnegative and finite, "
                             f"got {self.alpha}")
        if not 0.0 <= self.relaxation <= 2.0:
            raise ValueError(f"relaxation {self.relaxation} outside [0, 2]")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        steps = (self.tau, self.sigma1, self.sigma2, self.sigma3)
        # a subnormal step has an infinite inverse in the metric V
        if not all(s >= np.finfo(float).tiny for s in steps):
            raise ValueError(f"step sizes must be positive normal floats, "
                             f"got {steps}")


@dataclass(frozen=True)
class SweepGrid:
    """Cells of the step-size study, each for every seed: every (tau,
    gamma1, gamma2) triple on the critical boundary, plus one
    equal-sigma cell per tau when ``include_equal_sigma`` is set.  The
    defaults are the default grid; ``configs`` checks each cell."""

    tau_values: tuple[float, ...] = (0.2,)
    gamma1_values: tuple[float, ...] = (0.5, 0.6, 0.65)
    gamma2_values: tuple[float, ...] = (0.001, 0.005, 0.01)
    lambda_values: tuple[float, ...] = (1.0, 1.5, 1.9)
    seeds: tuple[int, ...] = (0,)
    include_equal_sigma: bool = True

    def __post_init__(self):
        if not (self.tau_values and self.lambda_values):
            raise ValueError("tau_values and lambda_values must be nonempty")
        if not self.seeds or any(seed < 0 for seed in self.seeds):
            raise ValueError(f"seeds must be a nonempty list of nonnegative "
                             f"integers, got {self.seeds}")
        if not (self.include_equal_sigma
                or (self.gamma1_values and self.gamma2_values)):
            raise ValueError("the sweep grid has no cells")

    def configs(self, instance: TVInstance) -> list[TVConfig]:
        """One ``TVConfig`` per (cell, seed) on ``instance``, in
        cell-major order: per tau, every gamma pair and then the
        equal-sigma cell, each for every lambda and then every seed."""
        steps = list(product(self.gamma1_values, self.gamma2_values))
        if self.include_equal_sigma:
            steps.append(None)
        return [
            instance.config(tau, lam, seed, gammas=gammas)
            for tau in self.tau_values
            for gammas in steps
            for lam in self.lambda_values
            for seed in self.seeds
        ]


SWEEP_COLUMNS = (
    "tau", "sigma1", "sigma2", "sigma3", "lambda", "seed",
    "iterations", "converged", "stop_reason", "final_residual",
    "objective", "psnr", "wall_ms", "error",
)


def _run_cell(cfg, observed, R, clean):
    """One sweep row; a cell that raises keeps the default NaN row,
    with an empty ``stop_reason``, and its ``error`` holds the
    exception class and message."""
    row = {
        "tau": cfg.tau,
        "sigma1": cfg.sigma1,
        "sigma2": cfg.sigma2,
        "sigma3": cfg.sigma3,
        "lambda": cfg.relaxation,
        "seed": cfg.seed,
        "iterations": 0,
        "converged": False,
        "stop_reason": "",
        "final_residual": math.nan,
        "objective": math.nan,
        "psnr": math.nan,
        "error": "",
    }
    t0 = time.perf_counter()
    try:
        run = run_tv_solver(cfg, observed, R)
        row["wall_ms"] = (time.perf_counter() - t0) * 1e3
        row.update(
            iterations=run.iterations,
            converged=run.converged,
            stop_reason=run.stop_reason,
            final_residual=run.final_residual,
            objective=run.objective,
            psnr=psnr(run.image, clean),
        )
    except Exception as exc:  # one failed cell must not end the sweep
        row["wall_ms"] = (time.perf_counter() - t0) * 1e3
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _run_share(configs: Sequence[TVConfig],
               instance: TVInstance) -> list[dict]:
    """The rows of ``configs``, one cell after another, each on
    ``instance.observe(cfg.seed)``, built once per seed."""
    seeds = dict.fromkeys(cfg.seed for cfg in configs)
    observations = {seed: instance.observe(seed) for seed in seeds}
    rows = []
    for cfg in configs:
        clean, R, observed = observations[cfg.seed]
        rows.append(_run_cell(cfg, observed, R, clean))
    return rows


def _exit_with(parent: int) -> None:
    """Pool initializer: a thread ends this worker when ``parent`` exits."""

    def watch():
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def sweep(configs: Sequence[TVConfig], instance: TVInstance,
          workers: int = 1) -> list[dict]:
    """One row per config, in order, from ``workers`` processes, the
    calling one included, but at most one per cell and per usable CPU.

    The cells are dealt round-robin: with P processes, share k is
    ``configs[k::P]``.  The caller runs share 0 itself and a process
    pool of P - 1 forked workers runs the others, one share each, and
    is shut down before the rows return; a worker exits if the caller
    does.  A share rebuilds the observation of each of its seeds (the
    blur operator holds closures, which do not pickle, and ``observe``
    is deterministic), so the rows depend on ``workers`` only in
    ``wall_ms``.
    """
    procs = min(workers, len(configs), _usable_cpus())
    if procs <= 1:
        return _run_share(configs, instance)
    # imported here: the pool's import costs every other caller of
    # the package time and memory
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    shares = [configs[k::procs] for k in range(procs)]
    rows = [None] * len(configs)
    # fork, which Python 3.14 no longer defaults to on Linux: a worker
    # started any other way pays the package import again
    with ProcessPoolExecutor(
            procs - 1, mp_context=multiprocessing.get_context("fork"),
            initializer=_exit_with, initargs=(os.getpid(),)) as pool:
        futures = [pool.submit(_run_share, share, instance)
                   for share in shares[1:]]
        rows[0::procs] = _run_share(shares[0], instance)
        for k, future in enumerate(futures, 1):
            rows[k::procs] = future.result()
    return rows
