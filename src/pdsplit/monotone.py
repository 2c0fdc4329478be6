"""Proximity operators and resolvents of maximally monotone operators.

Each operator family is exposed through its resolvent at a given
preconditioner.  A dual-block resolvent, of Sigma B^{-1}, uses the
family's closed form when it has one (a clip for the l1 and box
families) and is otherwise derived from the primal resolvent via the
Moreau-type inversion identity, so soft thresholding, box projections
and quadratic data-fit solves cover the whole experiment.

Resolvents act on flat float64 arrays.  A primal resolvent may return
its input unchanged (the zero operator does) or a buffer that its next
call overwrites (the FFT data fit does), so callers must not write
into its result in place and must copy what they keep.  Dual
resolvents take ``out=``: they write into it, which may be their
input, and return it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import HVector, LinOp, Precond, inner

__all__ = [
    "MonotoneOp",
    "QuadraticDataFit",
    "UnsupportedPreconditionerError",
    "prox_l1",
    "project_box",
    "dual_resolvent",
    "zero_operator",
    "monotone_linear",
    "l1_operator",
    "box_operator",
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
    support in closed form.  ``conj_resolvent(sigma, u, out)``, when
    set, is the closed form of the resolvent (Id + Sigma A^{-1})^{-1} u
    that ``dual_resolvent`` uses: it writes into ``out`` (a new array
    when None; ``u`` itself is allowed) and returns it.

    These two attributes are the whole interface that ``pd_resolvent``
    and ``dual_resolvent`` read; ``QuadraticDataFit`` provides it too.
    """

    resolvent: Callable[[Precond, np.ndarray], np.ndarray]
    conj_resolvent: (
        Callable[[Precond, np.ndarray, np.ndarray | None], np.ndarray] | None
    ) = None


def prox_l1(x: np.ndarray, kappa) -> np.ndarray:
    """Componentwise soft thresholding, the prox of kappa*||.||_1.

    ``kappa`` may be a scalar or a per-component array (the latter
    arises with diagonal preconditioners on separable functions).
    """
    k = np.asarray(kappa, dtype=np.float64)
    if not np.all(k >= 0):
        raise ValueError("soft-threshold level must be nonnegative")
    return np.sign(x) * np.maximum(np.abs(x) - k, 0.0)


def project_box(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Componentwise clamp to the interval [lo, hi]."""
    if not lo <= hi:
        raise ValueError(f"empty box: lo={lo} > hi={hi}")
    return np.clip(x, lo, hi)


class QuadraticDataFit:
    """Least-squares data-fit term 0.5*||R y - b||^2 for a real periodic
    convolution R: its value, and its gradient as a monotone operator,
    exposed as ``MonotoneOp`` is.

    The resolvent at a scalar preconditioner tau solves
    (Id + tau R*R) y = x + tau R*b, diagonalized by the real FFT on R's
    ``fft_symbol``, which stores half the spectrum; the instance also
    keeps b's spectrum.  The solver and tau R*b are kept per step size.
    The right-hand side and its spectrum are formed in buffers owned by
    the instance, and the solve writes its solution over the right-hand
    side once the spectrum holds it: the resolvent returns that buffer,
    which the next call overwrites, and one instance must not be used
    from two threads at once.  A dense least-squares resolvent is
    ``monotone_linear(R^T R, offset=-R^T b)``.
    """

    # no closed form: as a dual block it would take the Moreau path
    conj_resolvent = None

    def __init__(self, R: LinOp, b: HVector):
        if R.fft_symbol is None:
            raise ValueError(
                "quadratic data fit needs a periodic convolution "
                "(an operator with fft_symbol)"
            )
        if R.cod_dim != b.data.size:
            raise ValueError("observation does not match operator codomain")
        self.R = R
        self._b = b.data
        self._b_hat = np.fft.rfft2(b.data.reshape(R.grid_shape))
        self._spec = np.empty_like(R.fft_symbol)
        # the spectrum's (real, imaginary) pairs as float64 columns
        self._spec_parts = self._spec.view(np.float64)
        self._rhs = np.empty(R.dom_dim)
        self._solver_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def value(self, x: np.ndarray) -> float:
        """0.5*||R x - b||^2 for a flat array x.

        Parseval's identity on the half spectrum, formed in the
        spectrum buffer: each column other than 0 and n2/2 stands for
        itself and its mirror image, so it counts twice.
        """
        n1, n2 = self.R.grid_shape
        spec = np.fft.rfft(x.reshape(n1, n2), axis=1, out=self._spec)
        np.fft.fft(spec, axis=0, out=spec)
        spec *= self.R.fft_symbol
        spec -= self._b_hat
        flat = self._spec_parts.reshape(-1)
        alone = (0,) if n2 % 2 else (0, n2 // 2)
        total = 2.0 * inner(flat, flat) - sum(
            float(np.vdot(spec[:, k], spec[:, k]).real) for k in alone
        )
        return 0.5 * total / (n1 * n2)

    def _solver(self, tau: float) -> tuple[np.ndarray, np.ndarray]:
        """(solver, tau R*b) at step size tau, formed on first use.

        The solver is 1/(1 + tau |s|^2) repeated for the real and
        imaginary part of each spectrum entry: multiplying by it rounds
        as numpy's complex-by-real division does, which computes
        a * (1/c).
        """
        recip = 1.0 / (1.0 + tau * np.abs(self.R.fft_symbol) ** 2)
        return np.repeat(recip, 2, axis=1), tau * self.R.adjoint(self._b)

    def resolvent(self, p: Precond, x: np.ndarray) -> np.ndarray:
        tau = _diagonal(p, "quadratic data-fit")
        if isinstance(tau, np.ndarray):
            raise UnsupportedPreconditionerError(
                "quadratic data-fit resolvent needs a scalar preconditioner"
            )
        if not tau > 0:
            raise ValueError("step size must be positive")
        cached = self._solver_cache.get(tau)
        if cached is None:
            cached = self._solver_cache[tau] = self._solver(tau)
        solver, tau_rtb = cached
        rhs = np.add(x, tau_rtb, out=self._rhs)
        grid, spec = rhs.reshape(self.R.grid_shape), self._spec
        # rfft2 and irfft2 are these one-axis steps, here run in place
        np.fft.rfft(grid, axis=1, out=spec)
        np.fft.fft(spec, axis=0, out=spec)
        np.multiply(self._spec_parts, solver, out=self._spec_parts)
        np.fft.ifft(spec, axis=0, out=spec)
        np.fft.irfft(spec, n=grid.shape[1], axis=1, out=grid)
        return rhs


def dual_resolvent(op: MonotoneOp, sigma: Precond, u: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Resolvent of Sigma B^{-1} for the operator ``op`` = B.

    Uses B's closed form ``conj_resolvent`` when it has one, and
    otherwise q = u - Sigma J_{Sigma^{-1} B}(Sigma^{-1} u), the
    preconditioned Moreau decomposition.  The result is written into
    ``out`` (which may be ``u``) and returned; a new array when None.
    """
    if op.conj_resolvent is not None:
        return op.conj_resolvent(sigma, u, out)
    inv = sigma.inverse
    w = op.resolvent(inv, inv.apply(u))
    return np.subtract(u, sigma.apply(w), out=out)


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
    """Subdifferential of alpha*||.||_1; resolvent is soft thresholding,
    and the resolvent of Sigma times its inverse is the projection
    clip(u, -alpha, alpha) onto the dual ball, for any diagonal Sigma."""
    if not alpha >= 0:
        raise ValueError("alpha must be nonnegative")

    def res(p: Precond, x: np.ndarray) -> np.ndarray:
        return prox_l1(x, alpha * _diagonal(p, "l1"))

    def conj(sigma: Precond, u: np.ndarray, out=None) -> np.ndarray:
        _diagonal(sigma, "l1")
        return np.clip(u, -alpha, alpha, out=out)

    return MonotoneOp(res, conj)


def box_operator(lo: float, hi: float) -> MonotoneOp:
    """Normal cone of the box [lo, hi]^n; resolvent is the projection,
    and the resolvent of Sigma times its inverse is
    u - Sigma clip(Sigma^{-1} u, lo, hi) = u - clip(u, Sigma lo, Sigma hi)
    for a diagonal Sigma."""
    if not lo <= hi:
        raise ValueError("empty box")

    def res(p: Precond, x: np.ndarray) -> np.ndarray:
        _diagonal(p, "box")
        return project_box(x, lo, hi)

    def conj(sigma: Precond, u: np.ndarray, out=None) -> np.ndarray:
        s = _diagonal(sigma, "box")
        return np.subtract(u, np.clip(u, s * lo, s * hi), out=out)

    return MonotoneOp(res, conj)
