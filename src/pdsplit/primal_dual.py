"""Relaxed primal-dual splitting with critical preconditioners.

``PDProblem`` owns the flat state layout and the saddle-point metric
V: its action, its seminorm and, at desk scale, its dense matrix.
This module evaluates the joint primal-dual resolvent, runs the
relaxed iteration through the generic fixed-point engine, estimates
the step-size condition by Lanczos, monitors Fejer distances
and displacements in the V-seminorm and certifies approximate zeros
through the seminorm residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .km import KMResult, Monitor, RelaxationSchedule, km_iterate
from .linalg import (
    DENSE_DIM_LIMIT,
    LinOp,
    Precond,
    as_flat,
    inner,
    power_iteration_sqnorm,
)
from .monotone import MonotoneOp, dual_resolvent

__all__ = [
    "PDProblem",
    "FejerMonitor",
    "DisplacementMonitor",
    "StepCondition",
    "StepSizeConditionError",
    "pd_resolvent",
    "pd_iterate",
    "step_condition",
    "zero_inclusion_residual",
]

COND_TOL = 1e-4


class StepSizeConditionError(ValueError):
    """Raised when the estimated step-size condition exceeds 1."""


@dataclass(frozen=True)
class PDProblem:
    """Composite monotone inclusion with block-separable dual part.

    Find (x, u) with 0 in A x + sum_i L_i^* u_i and 0 in B_i^{-1} u_i
    - L_i x for each block, given a primal preconditioner and one dual
    preconditioner per block.  The iteration state is one flat array:
    x in ``[:dim]``, then u_i in ``dual_slices[i]``.

    The saddle-point metric on that state is

        V (x, u) = (Y^-1 x - sum_i L_i^* u_i, (S_i^-1 u_i - L_i x)_i),

    positive semidefinite exactly when the step-size condition holds;
    at critical step sizes it has a nontrivial kernel and the induced
    quantity is only a seminorm.

    ``pd_resolvent`` works in two primal-sized buffers built here once
    (and the data-fit solve in its own), so one problem must not be
    iterated from two threads at once; build one problem per thread.
    """

    A: MonotoneOp
    blocks: tuple[tuple[MonotoneOp, LinOp], ...]
    upsilon: Precond
    sigmas: tuple[Precond, ...]
    dual_slices: tuple[slice, ...] = field(init=False, repr=False,
                                           compare=False)
    _work: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False,
                                                 compare=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "sigmas", tuple(self.sigmas))
        if len(self.blocks) != len(self.sigmas):
            raise ValueError("need one dual preconditioner per block")
        for (_, l), s in zip(self.blocks, self.sigmas):
            if l.dom_dim != self.upsilon.dim:
                raise ValueError("coupling operator domain mismatch")
            if l.cod_dim != s.dim:
                raise ValueError("coupling operator codomain mismatch")
        slices, off = [], self.dim
        for s in self.sigmas:
            slices.append(slice(off, off + s.dim))
            off += s.dim
        object.__setattr__(self, "dual_slices", tuple(slices))
        object.__setattr__(self, "_work",
                           (np.empty(self.dim), np.empty(self.dim)))

    @property
    def dim(self) -> int:
        return self.upsilon.dim

    @property
    def total_dim(self) -> int:
        return self.dual_slices[-1].stop if self.dual_slices else self.dim

    def _check_state(self, z: np.ndarray) -> None:
        if z.size != self.total_dim:
            raise ValueError(
                f"state dim {z.size} does not match problem dim "
                f"{self.total_dim}"
            )

    def metric(self, z: np.ndarray) -> np.ndarray:
        """V z for a flat state z."""
        self._check_state(z)
        n = self.dim
        x = z[:n]
        out = np.empty_like(z)
        acc = np.zeros_like(x)
        for (_, l), s, sl in zip(self.blocks, self.sigmas, self.dual_slices):
            u = z[sl]
            acc += l.adjoint(u)
            out[sl] = s.inverse.apply(u) - l.forward(x)
        out[:n] = self.upsilon.inverse.apply(x) - acc
        return out

    def seminorm(self, z: np.ndarray) -> float:
        """sqrt(max(<V z, z>, 0)) for a flat state z.

        Raises if the quadratic form is significantly negative relative
        to ||z||^2, which indicates the step-size condition is violated
        and V is not monotone.
        """
        quad = inner(z, self.metric(z))
        nsq = inner(z, z)
        if quad < -1e-10 * nsq:
            raise ValueError(
                f"quadratic form is negative ({quad:.3e} for "
                f"||z||^2={nsq:.3e}); step-size condition violated"
            )
        return math.sqrt(max(quad, 0.0))

    def metric_matrix(self) -> np.ndarray:
        """V as a dense matrix in the state layout, one ``metric``
        column at a time (V is self-adjoint); desk scale only."""
        total = self.total_dim
        if total > DENSE_DIM_LIMIT:
            raise ValueError(
                f"total dimension {total} exceeds dense limit "
                f"{DENSE_DIM_LIMIT}"
            )
        return LinOp(self.metric, self.metric, total, total).as_matrix()

    def initial_state(self, x0=None) -> np.ndarray:
        """Flat state with primal block ``x0`` (an array or an HVector;
        zero when omitted) and zero duals."""
        z = np.zeros(self.total_dim)
        if x0 is not None:
            z[:self.dim] = as_flat(x0)
        return z


def pd_resolvent(p: PDProblem, z: np.ndarray) -> np.ndarray:
    """Joint primal-dual resolvent step on a flat state.

    Computes the primal update once and reuses it across all dual
    blocks (Gauss-Seidel structure):

        p_new  = J_{YA}(x - Y sum_i L_i^* u_i)
        q_i    = J_{S_i B_i^{-1}}(u_i + S_i L_i (2 p_new - x))

    The result depends on z only through V z (``p.metric``), so kernel
    components of critical configurations are ignored automatically.

    ``z`` is left unchanged and the result is a new array on every
    call; the intermediate sums live in ``p``'s workspace, and each
    dual block is formed and resolved in place in its slot of the
    result.
    """
    p._check_state(z)
    n = p.dim
    x = z[:n]
    acc, tmp = p._work
    if not p.blocks:
        acc.fill(0.0)
    for i, ((_, l), sl) in enumerate(zip(p.blocks, p.dual_slices)):
        w = l.adjoint(z[sl], out=tmp if i else acc)  # the first into acc
        if i:
            acc += w
    np.subtract(x, p.upsilon.apply(acc, out=acc), out=acc)
    out = np.empty_like(z)
    p_new = out[:n]
    p_new[:] = p.A.resolvent(p.upsilon, acc)
    t = np.multiply(p_new, 2.0, out=tmp)
    t -= x
    for (b, l), sig, sl in zip(p.blocks, p.sigmas, p.dual_slices):
        q = l.forward(t, out=out[sl])
        sig.apply(q, out=q)
        q += z[sl]
        dual_resolvent(b, sig, q, out=q)
    return out


@dataclass(frozen=True)
class StepCondition:
    """The estimate of sum_i ||sqrt(S_i) L_i sqrt(Y)||^2, and whether
    it lies within COND_TOL of 1 (critical step sizes)."""

    norm_sq_estimate: float
    critical: bool


def step_condition(p: PDProblem) -> StepCondition:
    """Estimate the step-size condition sum_i ||sqrt(S_i) L_i sqrt(Y)||^2
    by Lanczos (``power_iteration_sqnorm``) to a relative tolerance of
    1e-8.

    Each block norm is the largest eigenvalue of the self-adjoint map
    sqrt(Y) L_i^* S_i L_i sqrt(Y), estimated separately; the per-block
    sum is the literal multi-block hypothesis.  The estimate meets a
    closed-form norm to rounding and may exceed it by an ulp, so the
    configuration is flagged critical when the estimate is within
    COND_TOL of 1 (the convergence theory covers the equality case).
    """
    n = p.dim
    root = p.upsilon.sqrt
    est = 0.0
    for (_, l), s in zip(p.blocks, p.sigmas):

        def fwd(v: np.ndarray, out=None, l=l, s=s) -> np.ndarray:
            w = l.adjoint(s.apply(l.forward(root.apply(v))))
            return root.apply(w, out=out)

        op = LinOp(fwd, fwd, n, n)
        est += power_iteration_sqnorm(op, tol=1e-8)
    return StepCondition(
        norm_sq_estimate=est, critical=abs(est - 1.0) <= COND_TOL
    )


def pd_iterate(
    p: PDProblem,
    z0: np.ndarray,
    sched: RelaxationSchedule,
    eps: float | None,
    max_iter: int,
    monitors: tuple[Monitor, ...] = (),
) -> KMResult:
    """Relaxed primal-dual iteration from the flat state ``z0`` in
    ``p``'s layout (see ``initial_state``).

    Checks the step-size condition first and refuses configurations
    whose estimate exceeds 1 + COND_TOL.
    """
    cond = step_condition(p)
    if cond.norm_sq_estimate > 1.0 + COND_TOL:
        raise StepSizeConditionError(
            f"step-size condition estimate {cond.norm_sq_estimate:.6g} "
            "exceeds 1"
        )
    return km_iterate(lambda z: pd_resolvent(p, z), z0, sched, eps,
                      max_iter, monitors)


def zero_inclusion_residual(p: PDProblem, z: np.ndarray) -> float:
    """V-seminorm distance between z and its resolvent image.

    Zero exactly when the shadow of z is fixed, in which case one more
    resolvent application yields a solution of the inclusion.
    """
    return p.seminorm(pd_resolvent(p, z) - z)


class FejerMonitor(Monitor):
    """Distance to an anchor in ``p``'s V-seminorm, per iterate.

    The anchor must be (numerically) fixed for the shadow of the
    iteration map, e.g. the limit of a high-precision pre-solve; the
    seminorm ignores kernel components, so the anchor's shadow is what
    matters.
    """

    def __init__(self, p: PDProblem, anchor):
        self.p = p
        self.anchor = as_flat(anchor)
        self.values: list[float] = []

    def start(self, z0) -> None:
        self.values.append(self.p.seminorm(z0 - self.anchor))

    def observe(self, n, z, sz, z_next) -> None:
        self.values.append(self.p.seminorm(z_next - self.anchor))

    @property
    def max_single_step_increase(self) -> float:
        if len(self.values) < 2:
            return 0.0
        return max(
            b - a for a, b in zip(self.values[:-1], self.values[1:])
        )


class DisplacementMonitor(Monitor):
    """V-seminorm of the displacement S z_n - z_n, per iteration."""

    def __init__(self, p: PDProblem):
        self.p = p
        self.values: list[float] = []

    def observe(self, n, z, sz, z_next) -> None:
        self.values.append(self.p.seminorm(sz - z))

    @property
    def initial(self) -> float:
        return self.values[0]

    @property
    def final(self) -> float:
        return self.values[-1]

    @property
    def ratio(self) -> float:
        return self.final / self.initial if self.initial != 0.0 else 0.0
