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

from .linalg import DENSE_DIM_LIMIT, HVector, LinOp, Precond

__all__ = [
    "MonotoneOp",
    "QuadraticDataFit",
    "UnsupportedPreconditionerError",
    "prox_l1",
    "project_box",
    "moreau_inverse_resolvent",
    "dual_resolvent",
    "zero_operator",
    "monotone_linear",
    "l1_operator",
    "box_operator",
    "data_fit_operator",
]

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
    half the spectrum; otherwise the dense inverse of Id + tau R*R is
    formed once per step size, limited to moderate dimensions.
    """

    def __init__(self, R: LinOp, b: HVector):
        if R.cod_dim != b.size:
            raise ValueError("observation does not match operator codomain")
        self.R = R
        self.rtb = R.adjoint(b.data)
        self._fft = R.fft_symbol is not None
        if self._fft:
            self._sym_sq = np.abs(R.fft_symbol) ** 2
        elif R.dom_dim > DENSE_DIM_LIMIT:
            raise ValueError(
                "dense fallback limited to dimension "
                f"{DENSE_DIM_LIMIT}, got {R.dom_dim}"
            )
        self._solver_cache: dict[float, np.ndarray] = {}

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
        inv = self._solver_cache.get(tau)
        if inv is None:
            m = self.R.as_matrix()
            inv = np.linalg.inv(np.eye(self.R.dom_dim) + tau * (m.T @ m))
            self._solver_cache[tau] = inv
        return inv @ rhs


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


def dual_resolvent(op: MonotoneOp, sigma: Precond,
                   u: np.ndarray) -> np.ndarray:
    """Resolvent of Sigma B^{-1} derived from the primal resolvent of B.

    Uses q = u - Sigma J_{Sigma^{-1} B}(Sigma^{-1} u), the
    preconditioned Moreau decomposition.
    """
    w = op.resolvent(sigma.inverse(), sigma.apply_inverse(u))
    return u - sigma.apply(w)


def zero_operator() -> MonotoneOp:
    """The zero map; its resolvent is the identity."""
    return MonotoneOp(lambda p, x: x)


def monotone_linear(mat, offset=None) -> MonotoneOp:
    """A: x -> M x + c for a scalar slope M >= 0 (times Id, in any
    dimension) or a matrix M with positive-semidefinite symmetric part;
    ``offset`` c is a scalar or a vector, zero when omitted.

    A scalar slope at a diagonal preconditioner d has the closed form
    (x - d c) / (1 + d M).  Otherwise K = (Id + P M)^{-1} and K P c are
    formed on the first call with a preconditioner P and reused while
    the same object is passed.  They are cached in one tuple with P,
    read and replaced whole, so no caller pairs P with another's K.
    """
    m = np.asarray(mat, dtype=np.float64)
    if m.ndim == 0:
        if not m >= 0:
            raise ValueError("slope must be nonnegative for monotonicity")
    else:
        sym_min = float(np.linalg.eigvalsh((m + m.T) / 2.0).min())
        if sym_min < -1e-10 * max(1.0, float(np.abs(m).max())):
            raise ValueError(
                "matrix is not monotone (symmetric part indefinite)"
            )
    c = np.asarray(0.0 if offset is None else offset, dtype=np.float64)
    cached = (None, None, None)

    def res(p: Precond, x: np.ndarray) -> np.ndarray:
        nonlocal cached
        if m.ndim == 0 and p.diag is not None:
            step = p.diag
            return (x - step * c) / (1.0 + step * m)
        held, inv, shift = cached
        if held is not p:
            pm = p.as_matrix() @ (m * np.eye(p.dim) if m.ndim == 0 else m)
            inv = np.linalg.inv(np.eye(p.dim) + pm)
            shift = inv @ p.apply(np.broadcast_to(c, (p.dim,)))
            cached = (p, inv, shift)
        return inv @ x - shift

    return MonotoneOp(res)


def l1_operator(alpha: float) -> MonotoneOp:
    """Subdifferential of alpha*||.||_1; resolvent is soft thresholding."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")

    def res(p: Precond, x: np.ndarray) -> np.ndarray:
        return prox_l1(x, alpha * _diagonal(p, "l1"))

    return MonotoneOp(res)


def box_operator(lo: float, hi: float) -> MonotoneOp:
    """Normal cone of the box [lo, hi]^n; resolvent is the projection."""
    if lo > hi:
        raise ValueError("empty box")

    def res(p: Precond, x: np.ndarray) -> np.ndarray:
        _diagonal(p, "box")
        return project_box(x, lo, hi)

    return MonotoneOp(res)


def data_fit_operator(q: QuadraticDataFit) -> MonotoneOp:
    """Gradient of the quadratic data-fit term as a monotone operator."""

    def res(p: Precond, x: np.ndarray) -> np.ndarray:
        tau = _diagonal(p, "quadratic data-fit")
        if isinstance(tau, np.ndarray):
            raise UnsupportedPreconditionerError(
                "quadratic data-fit resolvent needs a scalar preconditioner"
            )
        return q.resolvent(tau, x)

    return MonotoneOp(res)
