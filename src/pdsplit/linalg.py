"""Finite-dimensional Hilbert-space primitives.

Vectors with shape metadata, linear operators with adjoints,
strongly monotone self-adjoint preconditioners, the saddle-point
metric operator built from a primal preconditioner, dual-block
preconditioners and coupling operators, plus power iteration and
small-scale dense range diagnostics.

In infinite dimensions the quadratic form of a monotone self-adjoint
operator induces a complete metric on its range only when that range
is closed; at finite dimension ranges are always closed, so the dense
diagnostics simply report the rank, the smallest positive eigenvalue
(the strong-monotonicity constant on the range) and an orthonormal
kernel basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "HVector",
    "PDState",
    "LinOp",
    "Precond",
    "SaddleOperator",
    "RangeDiagnostics",
    "PowerIterationError",
    "hvector",
    "as_flat",
    "identity_op",
    "scaled_identity_op",
    "matrix_op",
    "scalar_precond",
    "diagonal_precond",
    "matrix_precond",
    "power_iteration_sqnorm",
    "seminorm",
    "cocoercivity_constant",
    "dense_range_diagnostics",
]

DENSE_DIM_LIMIT = 4096


class PowerIterationError(RuntimeError):
    """Power iteration failed to meet its tolerance within max_iter.

    Carries the last Rayleigh-quotient estimate in ``last_estimate``.
    """

    def __init__(self, message: str, last_estimate: float):
        super().__init__(message)
        self.last_estimate = last_estimate


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class HVector:
    """Element of a finite-dimensional real Hilbert space.

    Stores a flat float64 array together with the logical shape it
    represents (e.g. ``(n1, n2)`` for an image).  Instances are
    immutable; every arithmetic operation returns a fresh vector and
    rejects non-finite entries.
    """

    data: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64).ravel()
        dims = tuple(int(d) for d in self.dims)
        if any(d <= 0 for d in dims):
            raise ValueError(f"dims must be positive, got {dims}")
        if data.size != math.prod(dims):
            raise ValueError(
                f"data length {data.size} does not match dims {dims}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("HVector entries must be finite")
        object.__setattr__(self, "data", _freeze(data))
        object.__setattr__(self, "dims", dims)

    @property
    def size(self) -> int:
        return self.data.size

    def as_grid(self) -> np.ndarray:
        return self.data.reshape(self.dims)

    def _check_compatible(self, other: "HVector") -> None:
        if self.data.size != other.data.size:
            raise ValueError(
                f"dimension mismatch: {self.data.size} vs {other.data.size}"
            )

    def dot(self, other: "HVector") -> float:
        self._check_compatible(other)
        return float(self.data @ other.data)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def __add__(self, other: "HVector") -> "HVector":
        self._check_compatible(other)
        return HVector(self.data + other.data, self.dims)

    def __sub__(self, other: "HVector") -> "HVector":
        self._check_compatible(other)
        return HVector(self.data - other.data, self.dims)

    def __mul__(self, c: float) -> "HVector":
        return HVector(self.data * float(c), self.dims)

    __rmul__ = __mul__

    def __neg__(self) -> "HVector":
        return HVector(-self.data, self.dims)

    def flat(self) -> np.ndarray:
        """Writable float64 copy of the entries."""
        return self.data.copy()

    def with_flat(self, arr: np.ndarray) -> "HVector":
        """An HVector with this one's dims holding ``arr``."""
        return HVector(arr, self.dims)


def hvector(values, dims: tuple[int, ...] | None = None) -> HVector:
    """Build an HVector from any array-like, defaulting to a flat shape."""
    arr = np.asarray(values, dtype=np.float64)
    if dims is None:
        dims = arr.shape if arr.ndim > 0 else (1,)
    return HVector(arr.ravel(), tuple(dims))


@dataclass(frozen=True)
class PDState:
    """Primal-dual pair: a primal vector and a tuple of dual block vectors."""

    x: HVector
    duals: tuple[HVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "duals", tuple(self.duals))

    @property
    def block_dims(self) -> tuple[int, ...]:
        return (self.x.size,) + tuple(u.size for u in self.duals)

    def dot(self, other: "PDState") -> float:
        s = self.x.dot(other.x)
        for u, v in zip(self.duals, other.duals, strict=True):
            s += u.dot(v)
        return s

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def __add__(self, other: "PDState") -> "PDState":
        return PDState(
            self.x + other.x,
            tuple(u + v for u, v in zip(self.duals, other.duals,
                                        strict=True)),
        )

    def __sub__(self, other: "PDState") -> "PDState":
        return PDState(
            self.x - other.x,
            tuple(u - v for u, v in zip(self.duals, other.duals,
                                        strict=True)),
        )

    def __mul__(self, c: float) -> "PDState":
        return PDState(self.x * c, tuple(u * c for u in self.duals))

    __rmul__ = __mul__

    def flat(self) -> np.ndarray:
        """One contiguous float64 array: x, then each dual block."""
        return np.concatenate([self.x.data] + [u.data for u in self.duals])

    def with_flat(self, arr: np.ndarray) -> "PDState":
        """A PDState with this one's block layout and dims holding the
        flat array ``arr``."""
        arr = np.asarray(arr, dtype=np.float64).ravel()
        if arr.size != sum(self.block_dims):
            raise ValueError("flat vector has wrong total dimension")
        offs = np.cumsum((0,) + self.block_dims)
        parts = [arr[offs[i]:offs[i + 1]] for i in range(len(offs) - 1)]
        return PDState(
            HVector(parts[0], self.x.dims),
            tuple(HVector(p, u.dims) for p, u in zip(parts[1:], self.duals)),
        )


def as_flat(z) -> np.ndarray:
    """The flat float64 entries of an HVector, a PDState or an array
    (arrays are returned as they are, when already float64)."""
    if isinstance(z, (HVector, PDState)):
        return z.flat()
    return np.asarray(z, dtype=np.float64).ravel()


@dataclass(frozen=True)
class LinOp:
    """Linear map between flat float64 arrays, with adjoint.

    ``forward`` and ``adjoint`` act on 1-D arrays of length ``dom_dim``
    and ``cod_dim``.  ``fft_symbol`` is set for real periodic
    convolutions: the transfer function on ``grid_shape`` in the
    half-spectrum layout of ``np.fft.rfft2``, which lets downstream
    solvers diagonalize normal equations with the real FFT.
    """

    forward: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    dom_dim: int
    cod_dim: int
    fft_symbol: np.ndarray | None = None
    grid_shape: tuple[int, int] | None = None

    def __call__(self, x: HVector) -> HVector:
        if x.size != self.dom_dim:
            raise ValueError(f"expected dim {self.dom_dim}, got {x.size}")
        out = self.forward(x.data)
        dims = x.dims if self.cod_dim == self.dom_dim else (self.cod_dim,)
        return HVector(out, dims)

    def adj(self, y: HVector) -> HVector:
        if y.size != self.cod_dim:
            raise ValueError(f"expected dim {self.cod_dim}, got {y.size}")
        out = self.adjoint(y.data)
        dims = y.dims if self.cod_dim == self.dom_dim else (self.dom_dim,)
        return HVector(out, dims)

    def normal(self) -> "LinOp":
        """Self-adjoint positive-semidefinite composition adjoint∘forward."""

        def fwd(v: np.ndarray) -> np.ndarray:
            return self.adjoint(self.forward(v))

        return LinOp(fwd, fwd, self.dom_dim, self.dom_dim)

    def as_matrix(self) -> np.ndarray:
        """Dense materialization; intended for test-scale dimensions."""
        cols = np.empty((self.cod_dim, self.dom_dim))
        e = np.zeros(self.dom_dim)
        for j in range(self.dom_dim):
            e[j] = 1.0
            cols[:, j] = self.forward(e)
            e[j] = 0.0
        return cols


def identity_op(n: int) -> LinOp:
    return LinOp(lambda v: v.copy(), lambda v: v.copy(), n, n)


def scaled_identity_op(c: float, n: int) -> LinOp:
    c = float(c)
    return LinOp(lambda v: c * v, lambda v: c * v, n, n)


def matrix_op(mat: np.ndarray) -> LinOp:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("matrix_op expects a 2-D array")
    mt = mat.T.copy()
    return LinOp(lambda v: mat @ v, lambda v: mt @ v, mat.shape[1], mat.shape[0])


@dataclass(frozen=True)
class Precond:
    """Strongly monotone self-adjoint linear operator.

    Either a positive diagonal ``diag`` (a float or a 1-D array; numpy
    broadcasting covers both) or a dense symmetric positive-definite
    ``matrix``, stored with its inverse and its self-adjoint square
    root.  Resolvent families read ``diag`` for their closed forms.
    """

    dim: int
    diag: float | np.ndarray | None = None
    matrix: np.ndarray | None = None
    matrix_inv: np.ndarray | None = field(default=None, repr=False)
    matrix_sqrt: np.ndarray | None = field(default=None, repr=False)

    @property
    def strong_monotonicity_constant(self) -> float:
        """Smallest eigenvalue."""
        if self.matrix is None:
            return float(np.min(self.diag))
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def apply(self, v: np.ndarray) -> np.ndarray:
        if self.matrix is None:
            return self.diag * v
        return self.matrix @ v

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        if self.matrix is None:
            return v / self.diag
        return self.matrix_inv @ v

    def apply_sqrt(self, v: np.ndarray) -> np.ndarray:
        if self.matrix is None:
            return np.sqrt(self.diag) * v
        return self.matrix_sqrt @ v

    def inverse(self) -> "Precond":
        if self.matrix is None:
            return Precond(self.dim, diag=1.0 / self.diag)
        return matrix_precond(np.linalg.inv(self.matrix))

    def as_matrix(self) -> np.ndarray:
        if self.matrix is None:
            return np.diag(np.full(self.dim, self.diag))
        return self.matrix


def scalar_precond(c: float, dim: int) -> Precond:
    c = float(c)
    if c <= 0:
        raise ValueError("scalar preconditioner must be positive")
    return Precond(dim, diag=c)


def diagonal_precond(diag) -> Precond:
    d = np.asarray(diag, dtype=np.float64).ravel()
    if np.any(d <= 0):
        raise ValueError("diagonal preconditioner entries must be positive")
    return Precond(d.size, diag=_freeze(d))


def matrix_precond(mat: np.ndarray) -> Precond:
    m = np.asarray(mat, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix preconditioner must be square")
    if not np.allclose(m, m.T, atol=1e-12 * max(1.0, float(np.abs(m).max()))):
        raise ValueError("matrix preconditioner must be symmetric")
    w, u = np.linalg.eigh(m)
    if w.min() <= 0:
        raise ValueError("matrix preconditioner must be positive definite")
    return Precond(
        m.shape[0],
        matrix=_freeze(m),
        matrix_inv=(u * (1.0 / w)) @ u.T,
        matrix_sqrt=(u * np.sqrt(w)) @ u.T,
    )


@dataclass(frozen=True)
class SaddleOperator:
    """Saddle-point metric operator for a primal/dual preconditioner pair.

    Maps (x, (u_i)) to (Y^-1 x - sum_i L_i^* u_i, (S_i^-1 u_i - L_i x)_i)
    where Y is the primal preconditioner, S_i the dual block
    preconditioners and L_i the coupling operators.  Its quadratic form
    is positive semidefinite exactly when the step-size condition
    holds; at critical step sizes it has a nontrivial kernel and the
    induced quantity is only a seminorm.
    """

    upsilon: Precond
    sigma_blocks: tuple[Precond, ...]
    l_blocks: tuple[LinOp, ...]

    def __post_init__(self):
        object.__setattr__(self, "sigma_blocks", tuple(self.sigma_blocks))
        object.__setattr__(self, "l_blocks", tuple(self.l_blocks))
        if len(self.sigma_blocks) != len(self.l_blocks):
            raise ValueError("one dual preconditioner required per block")
        for s, l in zip(self.sigma_blocks, self.l_blocks):
            if l.dom_dim != self.upsilon.dim:
                raise ValueError("coupling operator domain mismatch")
            if l.cod_dim != s.dim:
                raise ValueError("coupling operator codomain mismatch")

    @property
    def block_dims(self) -> tuple[int, ...]:
        return (self.upsilon.dim,) + tuple(s.dim for s in self.sigma_blocks)

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    def apply_flat(self, v: np.ndarray) -> np.ndarray:
        """The operator on a flat state (x, then each dual block)."""
        if v.size != self.total_dim:
            raise ValueError(
                f"state dim {v.size} does not match operator "
                f"dim {self.total_dim}"
            )
        n = self.upsilon.dim
        x = v[:n]
        out = np.empty_like(v)
        acc = np.zeros_like(x)
        off = n
        for s, l in zip(self.sigma_blocks, self.l_blocks):
            u = v[off:off + s.dim]
            acc += l.adjoint(u)
            out[off:off + s.dim] = s.apply_inverse(u) - l.forward(x)
            off += s.dim
        out[:n] = self.upsilon.apply_inverse(x) - acc
        return out

    def apply(self, z: PDState) -> PDState:
        if z.block_dims != self.block_dims:
            raise ValueError(
                f"state dims {z.block_dims} do not match operator "
                f"dims {self.block_dims}"
            )
        return z.with_flat(self.apply_flat(z.flat()))

    def quad_form(self, z) -> float:
        """<V z, z> for a PDState or a flat state."""
        v = as_flat(z)
        return float(v @ self.apply_flat(v))

    def flatten(self, z: PDState) -> np.ndarray:
        return z.flat()

    def unflatten(self, arr: np.ndarray, template: PDState | None = None) -> PDState:
        if template is None:
            dims = self.block_dims
            template = PDState(
                HVector(np.zeros(dims[0]), (dims[0],)),
                tuple(HVector(np.zeros(d), (d,)) for d in dims[1:]),
            )
        return template.with_flat(arr)

    def as_matrix(self) -> np.ndarray:
        n = self.upsilon.dim
        total = self.total_dim
        if total > DENSE_DIM_LIMIT:
            raise ValueError(
                f"total dimension {total} exceeds dense limit {DENSE_DIM_LIMIT}"
            )
        mat = np.zeros((total, total))
        mat[:n, :n] = self.upsilon.inverse().as_matrix()
        off = n
        for s, l in zip(self.sigma_blocks, self.l_blocks):
            lm = l.as_matrix()
            m = s.dim
            mat[:n, off:off + m] = -lm.T
            mat[off:off + m, :n] = -lm
            mat[off:off + m, off:off + m] = s.inverse().as_matrix()
            off += m
        return mat


def seminorm(v_op: SaddleOperator, z) -> float:
    """Seminorm induced by the saddle operator's quadratic form.

    Returns sqrt(max(<Vz, z>, 0)) for a PDState or a flat state.
    Raises if the quadratic form is significantly negative relative to
    ||z||^2, which indicates the step-size condition is violated and the
    operator is not monotone.
    """
    v = as_flat(z)
    quad = v_op.quad_form(v)
    nsq = float(v @ v)
    if quad < -1e-10 * nsq:
        raise ValueError(
            f"quadratic form is negative ({quad:.3e} for ||z||^2={nsq:.3e}); "
            "step-size condition violated"
        )
    return math.sqrt(max(quad, 0.0))


def cocoercivity_constant(tau: float, sigma: float) -> float:
    """Cocoercivity constant tau*sigma/(tau+sigma) of the saddle operator.

    ``tau`` and ``sigma`` are the strong-monotonicity constants of the
    primal and dual preconditioners.
    """
    if tau <= 0 or sigma <= 0:
        raise ValueError("strong-monotonicity constants must be positive")
    return tau * sigma / (tau + sigma)


def power_iteration_sqnorm(
    op: LinOp,
    tol: float = 1e-9,
    max_iter: int = 50000,
    seed: int = 0,
) -> float:
    """Largest eigenvalue of a self-adjoint positive-semidefinite operator.

    Classic power iteration: seeded uniform start vector, renormalized
    each step, stopping when the relative successive change of the
    Rayleigh quotient drops below ``tol``.  Deterministic for a given
    seed.  Used to estimate squared operator norms via ``op.normal()``.

    Raises
    ------
    PowerIterationError
        If the tolerance is not met within ``max_iter``; the exception
        carries the last estimate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if op.dom_dim != op.cod_dim:
        raise ValueError("operator must be square (self-adjoint)")
    rng = np.random.default_rng(seed)
    x = rng.random(op.dom_dim)
    x /= np.linalg.norm(x)
    lam = math.inf
    for _ in range(max_iter):
        y = op.forward(x)
        lam_next = float(x @ y)
        if abs(lam_next - lam) <= tol * max(abs(lam_next), 1e-30):
            return lam_next
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            return 0.0
        x = y / ny
        lam = lam_next
    raise PowerIterationError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last estimate {lam:.12g})",
        last_estimate=lam,
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
    eigenvalues: np.ndarray
    range_basis: np.ndarray = field(repr=False, default=None)

    def project_range(self, vec: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the range, via the eigenbasis."""
        if self.rank == 0:
            return np.zeros_like(np.asarray(vec, dtype=np.float64))
        u = self.range_basis
        return u @ (u.T @ np.asarray(vec, dtype=np.float64))


def dense_range_diagnostics(
    v_op: "SaddleOperator | np.ndarray",
    max_dim: int = DENSE_DIM_LIMIT,
) -> RangeDiagnostics:
    """Materialize a saddle operator (or raw symmetric matrix) and
    eigendecompose it.

    Exists to test theory at desk scale; solvers never need the range
    projection, so the dimension is capped at ``max_dim``.
    """
    if isinstance(v_op, SaddleOperator):
        if v_op.total_dim > max_dim:
            raise ValueError(
                f"total dimension {v_op.total_dim} exceeds max_dim {max_dim}"
            )
        mat = v_op.as_matrix()
    else:
        mat = np.asarray(v_op, dtype=np.float64)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square")
        if mat.shape[0] > max_dim:
            raise ValueError(
                f"dimension {mat.shape[0]} exceeds max_dim {max_dim}"
            )
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
        eigenvalues=w,
        range_basis=u[:, keep],
    )
