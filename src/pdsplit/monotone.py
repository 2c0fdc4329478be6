"""Proximity operators and resolvents of maximally monotone operators.

Each operator family is exposed only through its resolvent at a given
preconditioner; dual-block resolvents are derived from primal ones via
the Moreau-type inversion identity, so soft thresholding, box
projections and quadratic data-fit solves cover the whole experiment.
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
    operator A and the preconditioner P; families raise
    UnsupportedPreconditionerError for preconditioners they do not
    support in closed form.
    """

    resolvent: Callable[[Precond, HVector], HVector]
    descriptor: str


def prox_l1(x: HVector, kappa) -> HVector:
    """Componentwise soft thresholding, the prox of kappa*||.||_1.

    ``kappa`` may be a scalar or a per-component array (the latter
    arises with diagonal preconditioners on separable functions).
    """
    k = np.asarray(kappa, dtype=np.float64)
    if np.any(k < 0):
        raise ValueError("soft-threshold level must be nonnegative")
    d = x.data
    return HVector(np.sign(d) * np.maximum(np.abs(d) - k, 0.0), x.dims)


def project_box(x: HVector, lo: float, hi: float) -> HVector:
    """Componentwise clamp to the interval [lo, hi]."""
    if lo > hi:
        raise ValueError(f"empty box: lo={lo} > hi={hi}")
    return HVector(np.clip(x.data, lo, hi), x.dims)


class QuadraticDataFit:
    """Least-squares data-fit term 0.5*||R y - b||^2 via its resolvent.

    The resolvent at step tau solves (Id + tau R*R) y = x + tau R*b.
    When R is a periodic convolution (``fft_symbol`` set on the
    operator) the solve is diagonalized by the FFT; otherwise a dense
    Cholesky factorization is cached per step size, limited to
    moderate dimensions.
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

    def resolvent(self, tau: float, x: HVector) -> HVector:
        if tau <= 0:
            raise ValueError("step size must be positive")
        rhs = x.data + tau * self.rtb
        if self._fft:
            shape = self.R.grid_shape
            denom = self._solver_cache.get(tau)
            if denom is None:
                denom = 1.0 + tau * self._sym_sq
                self._solver_cache[tau] = denom
            y = np.fft.ifft2(np.fft.fft2(rhs.reshape(shape)) / denom).real
            return HVector(y.ravel(), x.dims)
        chol = self._solver_cache.get(tau)
        if chol is None:
            if self._gram is None:
                m = self.R.as_matrix()
                self._gram = m.T @ m
            chol = np.linalg.cholesky(
                np.eye(self.R.dom_dim) + tau * self._gram
            )
            self._solver_cache[tau] = chol
        y = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
        return HVector(y, x.dims)


def moreau_inverse_resolvent(
    prox_g: Callable[[float, HVector], HVector],
    sigma: float,
    u: HVector,
) -> HVector:
    """Resolvent of sigma*(dg)^{-1} given the prox family of g.

    ``prox_g(kappa, v)`` must evaluate the prox of kappa*g at v.  The
    inversion identity gives sigma*(u/sigma - prox_{g/sigma}(u/sigma)).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    v = HVector(u.data / sigma, u.dims)
    return HVector(sigma * (v.data - prox_g(1.0 / sigma, v).data), u.dims)


def dual_resolvent(op: MonotoneOp, sigma: Precond, u: HVector) -> HVector:
    """Resolvent of Sigma B^{-1} derived from the primal resolvent of B.

    Uses q = u - Sigma J_{Sigma^{-1} B}(Sigma^{-1} u), the
    preconditioned Moreau decomposition.
    """
    v = HVector(sigma.apply_inverse(u.data), u.dims)
    w = op.resolvent(sigma.inverse(), v)
    return HVector(u.data - sigma.apply(w.data), u.dims)


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

    def res(p: Precond, x: HVector) -> HVector:
        if p.diag is not None:
            step = p.diag
            return HVector((x.data - step * c) / (1.0 + step * slope), x.dims)
        m = p.as_matrix()
        rhs = x.data - m @ np.broadcast_to(c, (p.dim,))
        return HVector(
            np.linalg.solve(np.eye(p.dim) + slope * m, rhs), x.dims
        )

    return MonotoneOp(res, f"affine(slope={slope})")


def monotone_linear(mat: np.ndarray, offset=None) -> MonotoneOp:
    """A: x -> M x + c for a matrix with positive-semidefinite
    symmetric part."""
    m = np.asarray(mat, dtype=np.float64)
    sym_min = float(np.linalg.eigvalsh((m + m.T) / 2.0).min())
    if sym_min < -1e-10 * max(1.0, float(np.abs(m).max())):
        raise ValueError("matrix is not monotone (symmetric part indefinite)")
    c = None if offset is None else np.asarray(offset, dtype=np.float64).ravel()

    def res(p: Precond, x: HVector) -> HVector:
        pm = p.as_matrix()
        rhs = x.data if c is None else x.data - pm @ c
        return HVector(np.linalg.solve(np.eye(p.dim) + pm @ m, rhs), x.dims)

    return MonotoneOp(res, "linear")


def l1_operator(alpha: float) -> MonotoneOp:
    """Subdifferential of alpha*||.||_1; resolvent is soft thresholding."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")

    def res(p: Precond, x: HVector) -> HVector:
        return prox_l1(x, alpha * _diagonal(p, "l1"))

    return MonotoneOp(res, f"l1(alpha={alpha})")


def box_operator(lo: float, hi: float) -> MonotoneOp:
    """Normal cone of the box [lo, hi]^n; resolvent is the projection."""
    if lo > hi:
        raise ValueError("empty box")

    def res(p: Precond, x: HVector) -> HVector:
        _diagonal(p, "box")
        return project_box(x, lo, hi)

    return MonotoneOp(res, f"box[{lo},{hi}]")


def data_fit_operator(q: QuadraticDataFit) -> MonotoneOp:
    """Gradient of the quadratic data-fit term as a monotone operator."""

    def res(p: Precond, x: HVector) -> HVector:
        tau = _diagonal(p, "quadratic data-fit")
        if isinstance(tau, np.ndarray):
            raise UnsupportedPreconditionerError(
                "quadratic data-fit resolvent needs a scalar preconditioner"
            )
        return q.resolvent(tau, x)

    return MonotoneOp(res, "quadratic-data-fit")

