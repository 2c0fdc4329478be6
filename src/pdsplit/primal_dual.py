"""Relaxed primal-dual splitting with critical preconditioners.

Evaluates the joint primal-dual resolvent, runs the relaxed iteration
through the generic fixed-point engine, estimates the step-size
condition by power iteration and certifies approximate zeros through
the saddle-seminorm residual.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .km import KMResult, Monitor, RelaxationSchedule, km_iterate
from .linalg import (
    LinOp,
    Precond,
    SaddleOperator,
    as_flat,
    power_iteration_sqnorm,
    seminorm,
)
from .monotone import MonotoneOp, dual_resolvent

__all__ = [
    "PDProblem",
    "StepCondition",
    "StepSizeConditionError",
    "pd_resolvent",
    "pd_iterate",
    "step_condition",
    "zero_inclusion_residual",
]

COND_TOL = 1e-4


class StepSizeConditionError(ValueError):
    """Raised when the estimated step-size condition exceeds 1 and the
    caller did not override."""


@dataclass(frozen=True)
class PDProblem:
    """Composite monotone inclusion with block-separable dual part.

    Find (x, u) with 0 in A x + sum_i L_i^* u_i and 0 in B_i^{-1} u_i
    - L_i x for each block, given a primal preconditioner and one dual
    preconditioner per block.  The iteration state is one flat array:
    x in ``[:dim]``, then u_i in ``dual_slices[i]``; ``sigma_invs``
    holds each dual preconditioner's inverse, built once.
    """

    A: MonotoneOp
    blocks: tuple[tuple[MonotoneOp, LinOp], ...]
    upsilon: Precond
    sigmas: tuple[Precond, ...]
    dual_slices: tuple[slice, ...] = field(init=False, repr=False,
                                           compare=False)
    sigma_invs: tuple[Precond, ...] = field(init=False, repr=False,
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
        object.__setattr__(self, "sigma_invs",
                           tuple(s.inverse() for s in self.sigmas))

    @property
    def dim(self) -> int:
        return self.upsilon.dim

    @property
    def total_dim(self) -> int:
        return self.dual_slices[-1].stop if self.dual_slices else self.dim

    def saddle_operator(self) -> SaddleOperator:
        return SaddleOperator(
            self.upsilon,
            self.sigmas,
            tuple(l for _, l in self.blocks),
        )

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

    The result depends on z only through the saddle operator applied to
    z, so kernel components of critical configurations are ignored
    automatically.
    """
    if z.size != p.total_dim:
        raise ValueError(
            f"state dim {z.size} does not match problem dim {p.total_dim}"
        )
    n = p.dim
    x = z[:n]
    acc = np.zeros_like(x)
    for (_, l), sl in zip(p.blocks, p.dual_slices):
        acc += l.adjoint(z[sl])
    out = np.empty_like(z)
    p_new = out[:n]
    p_new[:] = p.A.resolvent(p.upsilon, x - p.upsilon.apply(acc))
    t = 2.0 * p_new - x
    for (b, l), sig, sig_inv, sl in zip(p.blocks, p.sigmas, p.sigma_invs,
                                        p.dual_slices):
        out[sl] = dual_resolvent(b, sig, z[sl] + sig.apply(l.forward(t)),
                                 sig_inv)
    return out


@dataclass(frozen=True)
class StepCondition:
    norm_sq_estimate: float
    critical: bool


def step_condition(
    p: PDProblem,
    seed: int = 0,
    tol: float = 1e-8,
    max_iter: int = 50000,
) -> StepCondition:
    """Estimate the step-size condition sum_i ||sqrt(S_i) L_i sqrt(Y)||^2
    by power iteration.

    Each block norm is obtained by power-iterating the self-adjoint
    map sqrt(Y) L_i^* S_i L_i sqrt(Y) separately; the per-block sum is
    both the literal multi-block hypothesis and markedly better
    conditioned for power iteration than the stacked composite.  The
    configuration is flagged critical when the estimate is within
    COND_TOL of 1 (power iteration underestimates, and the convergence
    theory covers the equality case).
    """
    n = p.dim
    est = 0.0
    for (_, l), s in zip(p.blocks, p.sigmas):

        def fwd(v: np.ndarray, l=l, s=s) -> np.ndarray:
            w = p.upsilon.apply_sqrt(v)
            return p.upsilon.apply_sqrt(l.adjoint(s.apply(l.forward(w))))

        op = LinOp(fwd, fwd, n, n)
        est += power_iteration_sqnorm(
            op, tol=tol, max_iter=max_iter, seed=seed
        )
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
    objective_fn=None,
    override: bool = False,
) -> KMResult:
    """Relaxed primal-dual iteration from the flat state ``z0`` in
    ``p``'s layout (see ``initial_state``).

    Checks the step-size condition first and refuses configurations
    whose estimate exceeds 1 + COND_TOL unless ``override`` is set (a
    warning is emitted in that case).
    """
    cond = step_condition(p)
    if cond.norm_sq_estimate > 1.0 + COND_TOL:
        if not override:
            raise StepSizeConditionError(
                f"step-size condition estimate {cond.norm_sq_estimate:.6g} "
                "exceeds 1; pass override=True to run anyway"
            )
        warnings.warn(
            "running with step-size condition estimate "
            f"{cond.norm_sq_estimate:.6g} > 1; convergence is not guaranteed",
            stacklevel=2,
        )
    return km_iterate(
        lambda z: pd_resolvent(p, z), z0, sched, eps, max_iter,
        monitors=monitors, objective_fn=objective_fn,
    )


def zero_inclusion_residual(p: PDProblem, z: np.ndarray) -> float:
    """Saddle-seminorm distance between z and its resolvent image.

    Zero exactly when the shadow of z is fixed, in which case one more
    resolvent application yields a solution of the inclusion.
    """
    return seminorm(p.saddle_operator(), pd_resolvent(p, z) - z)
