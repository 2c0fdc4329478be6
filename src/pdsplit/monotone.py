"""Proximity operators and resolvents of maximally monotone operators.

Each operator family is exposed only through its resolvent at a given
preconditioner; dual-block resolvents are derived from primal ones via
the Moreau-type inversion identity, so soft thresholding, box
projections and quadratic data-fit solves cover the whole experiment.
Resolvents act on flat float64 arrays; a resolvent may return its
input unchanged (the zero operator does), so callers must not write
into the result in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import HVector, LinOp, Precond

__all__ = [
    "MonotoneOp",
    "QuadraticDataFit",
    "UnsupportedPreconditionerError",
    "prox_l1",
    "project_box",
    "moreau_inverse_resolvent",
    "dual_resolvent",
    "zero_operator",
    "affine_operator",
    "monotone_linear",
    "l1_operator",
    "box_operator",
    "data_fit_operator",
]

DENSE_SOLVE_LIMIT = 4096


class UnsupportedPreconditionerError(ValueError):
    """Raised when an operator family has no closed-form resolvent for
    a preconditioner."""


def _diagonal(p: Precond, family: str):
    """The diagonal of ``p`` (a float or a per-component array), for
    resolvent families whose closed forms need one."""
    if p.diag is None:
        raise UnsupportedPreconditionerError(
            f"{family} resolvent needs a diagonal preconditioner"
        )
    return p.diag


@dataclass(frozen=True)
class MonotoneOp:
    """Maximally monotone operator exposed through its resolvent.

    ``resolvent(precond, x)`` evaluates (Id + P A)^{-1} x for this
    operator A, the preconditioner P and a flat array x; families raise
    UnsupportedPreconditionerError for preconditioners they do not
    support in closed form.
    """

    resolvent: Callable[[Precond, np.ndarray], np.ndarray]
    descriptor: str


def prox_l1(x: np.ndarray, kappa) -> np.ndarray:
    """Componentwise soft thresholding, the prox of kappa*||.||_1.

    ``kappa`` may be a scalar or a per-component array (the latter
    arises with diagonal preconditioners on separable functions).
    """
    k = np.asarray(kappa, dtype=np.float64)
    if np.any(k < 0):
        raise ValueError("soft-threshold level must be nonnegative")
    return np.sign(x) * np.maximum(np.abs(x) - k, 0.0)


def project_box(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Componentwise clamp to the interval [lo, hi]."""
    if lo > hi:
        raise ValueError(f"empty box: lo={lo} > hi={hi}")
    return np.clip(x, lo, hi)


class QuadraticDataFit:
    """Least-squares data-fit term 0.5*||R y - b||^2 via its resolvent.

    The resolvent at step tau solves (Id + tau R*R) y = x + tau R*b.
    When R is a real periodic convolution (``fft_symbol`` set on the
    operator) the solve is diagonalized by the real FFT, which stores
    half the spectrum; otherwise a dense Cholesky factorization is
    cached per step size, limited to moderate dimensions.
    """

    def __init__(self, R: LinOp, b: HVector):
        if R.cod_dim != b.size:
            raise ValueError("observation does not match operator codomain")
        self.R = R
        self.b = b
        self.rtb = R.adjoint(b.data)
        self._fft = R.fft_symbol is not None
        if self._fft:
            self._sym_sq = np.abs(R.fft_symbol) ** 2
        elif R.dom_dim > DENSE_SOLVE_LIMIT:
            raise ValueError(
                "dense fallback limited to dimension "
                f"{DENSE_SOLVE_LIMIT}, got {R.dom_dim}"
            )
        self._gram = None
        self._solver_cache: dict[float, object] = {}

    def resolvent(self, tau: float, x: np.ndarray) -> np.ndarray:
        if tau <= 0:
            raise ValueError("step size must be positive")
        rhs = x + tau * self.rtb
        if self._fft:
            shape = self.R.grid_shape
            denom = self._solver_cache.get(tau)
            if denom is None:
                denom = 1.0 + tau * self._sym_sq
                self._solver_cache[tau] = denom
            spec = np.fft.rfft2(rhs.reshape(shape))
            spec /= denom
            return np.fft.irfft2(spec, s=shape).ravel()
        chol = self._solver_cache.get(tau)
        if chol is None:
            if self._gram is None:
                m = self.R.as_matrix()
                self._gram = m.T @ m
            chol = np.linalg.cholesky(
                np.eye(self.R.dom_dim) + tau * self._gram
            )
            self._solver_cache[tau] = chol
        return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))


def moreau_inverse_resolvent(
    prox_g: Callable[[float, np.ndarray], np.ndarray],
    sigma: float,
    u: np.ndarray,
) -> np.ndarray:
    """Resolvent of sigma*(dg)^{-1} given the prox family of g.

    ``prox_g(kappa, v)`` must evaluate the prox of kappa*g at v.  The
    inversion identity gives sigma*(u/sigma - prox_{g/sigma}(u/sigma)).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    v = u / sigma
    return sigma * (v - prox_g(1.0 / sigma, v))


def dual_resolvent(
    op: MonotoneOp,
    sigma: Precond,
    u: np.ndarray,
    sigma_inv: Precond | None = None,
) -> np.ndarray:
    """Resolvent of Sigma B^{-1} derived from the primal resolvent of B.

    Uses q = u - Sigma J_{Sigma^{-1} B}(Sigma^{-1} u), the
    preconditioned Moreau decomposition.  ``sigma_inv`` is
    ``sigma.inverse()``, built here when not given; iterations pass
    one built once per problem.
    """
    if sigma_inv is None:
        sigma_inv = sigma.inverse()
    w = op.resolvent(sigma_inv, sigma.apply_inverse(u))
    return u - sigma.apply(w)


def zero_operator() -> MonotoneOp:
    """The zero map; its resolvent is the identity."""
    return MonotoneOp(lambda p, x: x, "zero")


def affine_operator(slope: float, intercept) -> MonotoneOp:
    """A: x -> slope*x + intercept with scalar slope >= 0.

    ``intercept`` may be a scalar or a vector; covers identity maps and
    shifted identities used in the scalar reference instances.
    """
    if slope < 0:
        raise ValueError("slope must be nonnegative for monotonicity")
    c = np.asarray(intercept, dtype=np.float64)

    def res(p: Precond, x: np.ndarray) -> np.ndarray:
        if p.diag is not None:
            step = p.diag
            return (x - step * c) / (1.0 + step * slope)
        m = p.as_matrix()
        rhs = x - m @ np.broadcast_to(c, (p.dim,))
        return np.linalg.solve(np.eye(p.dim) + slope * m, rhs)

    return MonotoneOp(res, f"affine(slope={slope})")


def monotone_linear(mat: np.ndarray, offset=None) -> MonotoneOp:
    """A: x -> M x + c for a matrix with positive-semidefinite
    symmetric part."""
    m = np.asarray(mat, dtype=np.float64)
    sym_min = float(np.linalg.eigvalsh((m + m.T) / 2.0).min())
    if sym_min < -1e-10 * max(1.0, float(np.abs(m).max())):
        raise ValueError("matrix is not monotone (symmetric part indefinite)")
    c = None if offset is None else np.asarray(offset, dtype=np.float64).ravel()

    def res(p: Precond, x: np.ndarray) -> np.ndarray:
        pm = p.as_matrix()
        rhs = x if c is None else x - pm @ c
        return np.linalg.solve(np.eye(p.dim) + pm @ m, rhs)

    return MonotoneOp(res, "linear")


def l1_operator(alpha: float) -> MonotoneOp:
    """Subdifferential of alpha*||.||_1; resolvent is soft thresholding."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")

    def res(p: Precond, x: np.ndarray) -> np.ndarray:
        return prox_l1(x, alpha * _diagonal(p, "l1"))

    return MonotoneOp(res, f"l1(alpha={alpha})")


def box_operator(lo: float, hi: float) -> MonotoneOp:
    """Normal cone of the box [lo, hi]^n; resolvent is the projection."""
    if lo > hi:
        raise ValueError("empty box")

    def res(p: Precond, x: np.ndarray) -> np.ndarray:
        _diagonal(p, "box")
        return project_box(x, lo, hi)

    return MonotoneOp(res, f"box[{lo},{hi}]")


def data_fit_operator(q: QuadraticDataFit) -> MonotoneOp:
    """Gradient of the quadratic data-fit term as a monotone operator."""

    def res(p: Precond, x: np.ndarray) -> np.ndarray:
        tau = _diagonal(p, "quadratic data-fit")
        if isinstance(tau, np.ndarray):
            raise UnsupportedPreconditionerError(
                "quadratic data-fit resolvent needs a scalar preconditioner"
            )
        return q.resolvent(tau, x)

    return MonotoneOp(res, "quadratic-data-fit")
