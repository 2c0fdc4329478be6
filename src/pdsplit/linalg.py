"""Finite-dimensional Hilbert-space primitives.

Validated input vectors, linear operators with adjoints, strongly
monotone self-adjoint preconditioners, the largest eigenvalue of a
self-adjoint operator by Lanczos (``power_iteration_sqnorm``) and
small-scale dense range diagnostics of a symmetric matrix.  The
saddle-point metric V built from these pieces belongs to
``primal_dual.PDProblem``, which also owns the flat state layout
``x | u_1 | ... | u_m`` (``PDProblem.dual_slices``).  ``HVector`` only
records a vector that enters from outside (an observation or a start
point), and ``as_flat`` turns one into an array.

In infinite dimensions the quadratic form of a monotone self-adjoint
operator induces a complete metric on its range only when that range
is closed; at finite dimension ranges are always closed, so the dense
diagnostics simply report the rank, the smallest positive eigenvalue
(the strong-monotonicity constant on the range) and an orthonormal
kernel basis.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "HVector",
    "LinOp",
    "Precond",
    "RangeDiagnostics",
    "PowerIterationError",
    "hvector",
    "as_flat",
    "identity_op",
    "matrix_op",
    "scalar_precond",
    "diagonal_precond",
    "matrix_precond",
    "power_iteration_sqnorm",
    "dense_range_diagnostics",
]

DENSE_DIM_LIMIT = 4096
# Lanczos breakdown: the next off-diagonal at rounding level
BREAKDOWN_RTOL = 64 * sys.float_info.epsilon


class PowerIterationError(RuntimeError):
    """``power_iteration_sqnorm`` failed to meet its tolerance within
    max_iter operator applications.

    Carries the last estimate in ``last_estimate``.
    """

    def __init__(self, message: str, last_estimate: float):
        super().__init__(message)
        self.last_estimate = last_estimate


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> of two flat float64 arrays, by einsum.

    Not a BLAS dot: numpy hands a long 1-D product to OpenBLAS's
    threads, whose wake-up between FFTs can stall a run (on the
    262144-entry state of a 256x256 solve, z @ z took 8.0 ms against
    0.11 ms for einsum), so the solver's 1-D reductions come here.
    """
    return float(np.einsum("i,i->", a, b))


def _freeze(a) -> np.ndarray:
    """A read-only contiguous float64 copy, so later writes to ``a``
    cannot reach it."""
    a = np.array(a, dtype=np.float64, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class HVector:
    """Validated input vector of a finite-dimensional real Hilbert space:
    a read-only flat float64 copy of finite entries."""

    data: np.ndarray

    def __post_init__(self):
        data = _freeze(np.ravel(self.data))
        if not np.all(np.isfinite(data)):
            raise ValueError("HVector entries must be finite")
        object.__setattr__(self, "data", data)


def hvector(values) -> HVector:
    """Build an HVector from any array-like."""
    return HVector(values)


def as_flat(z) -> np.ndarray:
    """The flat float64 entries of an HVector or an array-like; may
    share memory with ``z`` (read-only for an HVector)."""
    if isinstance(z, HVector):
        return z.data
    return np.asarray(z, dtype=np.float64).ravel()


@dataclass(frozen=True)
class LinOp:
    """Linear map between flat float64 arrays, with adjoint.

    ``forward(v, out=None)`` and ``adjoint(v, out=None)`` act on 1-D
    arrays of length ``dom_dim`` and ``cod_dim``.  Without ``out`` they
    return a new array.  With ``out``, a contiguous float64 array of
    the result's length that does not overlap ``v``, they write the
    result into it and return ``out``, so a hot loop can reuse its
    buffers.  Every LinOp pdsplit builds keeps this contract, and
    ``primal_dual.pd_resolvent`` relies on it for its coupling
    operators.

    ``fft_symbol`` is set for real periodic convolutions: the transfer
    function on ``grid_shape`` in the half-spectrum layout of
    ``np.fft.rfft2``, which lets downstream solvers diagonalize normal
    equations with the real FFT.
    """

    forward: Callable[..., np.ndarray]
    adjoint: Callable[..., np.ndarray]
    dom_dim: int
    cod_dim: int
    fft_symbol: np.ndarray | None = None
    grid_shape: tuple[int, int] | None = None

    def as_matrix(self) -> np.ndarray:
        """Dense materialization; intended for test-scale dimensions."""
        cols = np.empty((self.cod_dim, self.dom_dim))
        e = np.zeros(self.dom_dim)
        for j in range(self.dom_dim):
            e[j] = 1.0
            cols[:, j] = self.forward(e)
            e[j] = 0.0
        return cols


def _copy(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``v`` copied into ``out``, or into a new array when omitted."""
    if out is None:
        return v.copy()
    out[...] = v
    return out


def identity_op(n: int) -> LinOp:
    return LinOp(_copy, _copy, n, n)


def matrix_op(mat: np.ndarray) -> LinOp:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("matrix_op expects a 2-D array")
    mt = mat.T.copy()
    return LinOp(lambda v, out=None: np.matmul(mat, v, out=out),
                 lambda v, out=None: np.matmul(mt, v, out=out),
                 mat.shape[1], mat.shape[0])


@dataclass(frozen=True)
class Precond:
    """Strongly monotone self-adjoint linear operator.

    Either a positive diagonal ``diag`` (a float or a 1-D array; numpy
    broadcasting covers both) or a dense symmetric positive-definite
    ``matrix``, stored with its eigendecomposition ``eig`` = (w, u),
    matrix = u diag(w) u^T.  Functions of the operator (``map``,
    ``inverse``, ``sqrt``) are formed from ``diag`` or from ``eig``.
    Resolvent families read ``diag`` for their closed forms.  ``apply``
    takes the ``out=`` form of ``LinOp`` and also allows ``out`` to be
    its input.
    """

    dim: int
    diag: float | np.ndarray | None = None
    matrix: np.ndarray | None = None
    eig: tuple[np.ndarray, np.ndarray] | None = field(default=None,
                                                       repr=False)

    def apply(self, v: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        """P v, written into ``out`` and returned when given; ``out``
        may be ``v`` itself."""
        if self.matrix is None:
            return np.multiply(self.diag, v, out=out)
        return np.matmul(self.matrix, v, out=out)

    def map(self, f: Callable) -> "Precond":
        """f(P) for a positive function ``f`` acting elementwise on
        arrays: f of the diagonal, or u diag(f(w)) u^T; a new operator
        on every call."""
        if self.matrix is None:
            return Precond(self.dim, diag=f(self.diag))
        w, u = self.eig
        fw = _freeze(f(w))
        return Precond(self.dim, matrix=_freeze((u * fw) @ u.T),
                       eig=(fw, u))

    @cached_property
    def inverse(self) -> "Precond":
        """P^{-1}, built on first use and then kept."""
        return self.map(lambda d: 1.0 / d)

    @cached_property
    def sqrt(self) -> "Precond":
        """The self-adjoint square root of P, built on first use and
        then kept."""
        return self.map(np.sqrt)

    def as_matrix(self) -> np.ndarray:
        if self.matrix is None:
            return np.diag(np.full(self.dim, self.diag))
        return self.matrix


def scalar_precond(c: float, dim: int) -> Precond:
    c = float(c)
    if not c > 0:
        raise ValueError("scalar preconditioner must be positive")
    return Precond(dim, diag=c)


def diagonal_precond(diag) -> Precond:
    d = np.asarray(diag, dtype=np.float64).ravel()
    if not np.all(d > 0):
        raise ValueError("diagonal preconditioner entries must be positive")
    return Precond(d.size, diag=_freeze(d))


def matrix_precond(mat: np.ndarray) -> Precond:
    m = np.asarray(mat, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix preconditioner must be square")
    if not np.allclose(m, m.T, atol=1e-12 * max(1.0, float(np.abs(m).max()))):
        raise ValueError("matrix preconditioner must be symmetric")
    w, u = np.linalg.eigh(m)
    if not w.min() > 0:
        raise ValueError("matrix preconditioner must be positive definite")
    return Precond(m.shape[0], matrix=_freeze(m),
                   eig=(_freeze(w), _freeze(u)))


def _tridiag_max(alphas: list[float], betas: list[float],
                 lower: float) -> float:
    """Largest eigenvalue of the symmetric tridiagonal matrix with
    diagonal ``alphas`` and off-diagonal ``betas``.

    Bisection on Sturm counts: mu lies below the largest eigenvalue
    exactly when a pivot of the LDL^T factorization of T - mu I is
    positive.  The bracket runs from ``lower`` (or the largest diagonal
    entry, if that is higher) to the Gershgorin bound; O(k) memory.
    """
    b2 = [b * b for b in betas]
    off = [0.0, *betas, 0.0]
    hi = max(a + off[i] + off[i + 1] for i, a in enumerate(alphas))
    lo = max(lower, max(alphas))
    # pivots this small are replaced, as in LAPACK's dstebz
    pivmin = sys.float_info.min * max([1.0, *b2])
    rest = list(zip(alphas[1:], b2))
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return mid
        d = alphas[0] - mid
        for a, bb in rest:
            if d > 0.0:
                break
            if d > -pivmin:
                d = -pivmin
            d = a - mid - bb / d
        if d > 0.0:
            lo = mid
        else:
            hi = mid


def power_iteration_sqnorm(
    op: LinOp,
    tol: float = 1e-9,
    max_iter: int = 50000,
    seed: int = 0,
) -> float:
    """Largest eigenvalue of a self-adjoint positive-semidefinite operator.

    Lanczos three-term recurrence (no stored basis, no
    reorthogonalization) from a seeded uniform start vector.  The
    estimate is the largest eigenvalue of the k x k tridiagonal matrix,
    formed every 10 steps, at breakdown and at ``max_iter``; the run
    stops when it changes by at most ``tol`` relative between two such
    checkpoints, or at breakdown (the next off-diagonal at rounding
    level), where it is exact: identity, zero and 1-D operators take one
    step.  Each step applies ``op`` once; deterministic for a given
    seed.  Applied to a normal map L* L it estimates the squared
    operator norm ||L||^2, to rounding once converged (it may exceed
    the true value by an ulp).  The name predates the Lanczos body and
    is kept as the benchmark's boundary for this set-up cost.

    Raises
    ------
    PowerIterationError
        If the tolerance is not met within ``max_iter`` operator
        applications; the exception carries the last estimate.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if op.dom_dim != op.cod_dim:
        raise ValueError("operator must be square (self-adjoint)")
    rng = np.random.default_rng(seed)
    v = rng.random(op.dom_dim)
    v /= math.sqrt(inner(v, v))
    v_prev = np.zeros_like(v)
    alphas: list[float] = []
    betas: list[float] = []
    beta = 0.0
    est = -math.inf
    for k in range(1, max_iter + 1):
        # w = A v - beta v_prev - alpha v; v_prev's buffer is then free
        # and holds -alpha v
        w = op.forward(v)
        v_prev *= -beta
        w += v_prev
        alpha = inner(v, w) / inner(v, v)
        w += np.multiply(v, -alpha, out=v_prev)
        alphas.append(alpha)
        beta_next = math.sqrt(inner(w, w))
        breakdown = beta_next <= BREAKDOWN_RTOL * (abs(alpha) + beta)
        if breakdown or k % 10 == 0 or k == max_iter:
            new = _tridiag_max(alphas, betas, est)
            if breakdown or abs(new - est) <= tol * max(abs(new), 1e-30):
                return new
            est = new
        betas.append(beta_next)
        beta = beta_next
        w /= beta
        v_prev, v = v, w
    raise PowerIterationError(
        f"Lanczos did not converge in {max_iter} steps "
        f"(last estimate {est:.12g})",
        last_estimate=est,
    )


@dataclass(frozen=True)
class RangeDiagnostics:
    """Dense eigen-analysis of a symmetric positive-semidefinite matrix.

    ``rank`` counts eigenvalues above 1e-10 times the largest one,
    ``min_nonzero_eig`` is the smallest retained eigenvalue (the
    strong-monotonicity constant on the range) and ``kernel_basis``
    holds an orthonormal basis of the kernel as columns.
    """

    rank: int
    min_nonzero_eig: float
    kernel_basis: np.ndarray


def dense_range_diagnostics(mat: np.ndarray) -> RangeDiagnostics:
    """Eigendecompose a symmetric matrix, e.g. ``PDProblem.metric_matrix()``.

    Exists to test theory at desk scale; solvers never need it, so the
    dimension is capped at ``DENSE_DIM_LIMIT``.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if mat.shape[0] > DENSE_DIM_LIMIT:
        raise ValueError(f"dimension {mat.shape[0]} exceeds the dense "
                         f"limit {DENSE_DIM_LIMIT}")
    w, u = np.linalg.eigh(mat)
    lam_max = float(w[-1]) if w.size else 0.0
    cutoff = 1e-10 * max(lam_max, 0.0)
    keep = w > cutoff
    rank = int(np.count_nonzero(keep))
    min_nonzero = float(w[keep][0]) if rank > 0 else 0.0
    return RangeDiagnostics(
        rank=rank,
        min_nonzero_eig=min_nonzero,
        kernel_basis=u[:, ~keep],
    )
