"""Relaxed Douglas-Rachford splitting and its primal-dual formulation.

The reflected-resolvent operator, its relaxed iteration, the
primal-dual recurrence with coupling fixed to the identity and dual
preconditioner fixed to the inverse of the primal one, and the exact
transport between fixed points of the two formulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .km import KMResult, Monitor, RelaxationSchedule, km_iterate
from .linalg import HVector, Precond, as_flat, identity_op
from .monotone import MonotoneOp
from .primal_dual import PDProblem, pd_iterate

__all__ = [
    "DRSProblem",
    "PDDRSResult",
    "drs_operator",
    "drs_iterate",
    "pd_drs_iterate",
    "fixed_point_transport",
    "as_pd_problem",
    "equivalence_deviation",
]


@dataclass(frozen=True)
class DRSProblem:
    """Two-operator inclusion 0 in A x + B x with a preconditioner."""

    A: MonotoneOp
    B: MonotoneOp
    upsilon: Precond

    @property
    def dim(self) -> int:
        return self.upsilon.dim


def drs_operator(p: DRSProblem, z: np.ndarray) -> np.ndarray:
    """Reflected-resolvent composition J_B(2 J_A z - z) + z - J_A z on a
    flat array."""
    ja = p.A.resolvent(p.upsilon, z)
    jb = p.B.resolvent(p.upsilon, 2.0 * ja - z)
    return jb + z - ja


def drs_iterate(
    p: DRSProblem,
    z0: HVector | np.ndarray,
    sched: RelaxationSchedule,
    eps: float | None,
    max_iter: int,
    monitors: tuple[Monitor, ...] = (),
) -> KMResult:
    return km_iterate(lambda z: drs_operator(p, z), z0, sched, eps,
                      max_iter, monitors=monitors)


def as_pd_problem(p: DRSProblem) -> PDProblem:
    """Primal-dual problem with identity coupling and dual
    preconditioner equal to the inverse of the primal one."""
    return PDProblem(
        A=p.A,
        blocks=((p.B, identity_op(p.dim)),),
        upsilon=p.upsilon,
        sigmas=(p.upsilon.inverse(),),
    )


@dataclass
class PDDRSResult(KMResult):
    """Primal-dual run plus its auxiliary sequence z_n = x_n - Y u_n,
    one flat array per iterate z_0, z_1, ..."""

    z_sequence: list[np.ndarray] = field(default_factory=list)


class _Collector(Monitor):
    """Records f(z_0), f(z_1), ... along a run; ``f`` must return a
    fresh array, since the monitored states are reused buffers."""

    def __init__(self, f: Callable[[np.ndarray], np.ndarray]):
        self.f = f
        self.values: list[np.ndarray] = []

    def start(self, z0) -> None:
        self.values.append(self.f(z0))

    def observe(self, n, z, sz, z_next) -> None:
        self.values.append(self.f(z_next))


def pd_drs_iterate(
    p: DRSProblem,
    x0: HVector | np.ndarray,
    u0: HVector | np.ndarray,
    sched: RelaxationSchedule,
    eps: float | None,
    max_iter: int,
) -> PDDRSResult:
    """Primal-dual recurrence equivalent to relaxed Douglas-Rachford.

    Runs the primal-dual iteration with identity coupling and dual
    preconditioner the inverse of the primal one, and emits the
    auxiliary sequence z_n = x_n - Y u_n, which coincides step by step
    with the classic relaxed iteration started at z_0 = x_0 - Y u_0.
    """
    n = p.dim
    collector = _Collector(lambda s: s[:n] - p.upsilon.apply(s[n:]))
    z0 = np.concatenate((as_flat(x0), as_flat(u0)))
    result = pd_iterate(as_pd_problem(p), z0, sched, eps, max_iter,
                        monitors=(collector,))
    return PDDRSResult(**vars(result), z_sequence=collector.values)


def fixed_point_transport(
    p: DRSProblem, z_hat: HVector | np.ndarray, tol: float = 1e-8
) -> np.ndarray:
    """Transport a fixed point of the reflected-resolvent operator to a
    shadow-fixed primal-dual state.

    Returns the flat state (x, u) = ((Id + Y^2)^{-1} z, -Y (Id + Y^2)^{-1} z)
    in ``as_pd_problem(p)``'s layout.  The inverse map x - Y u recovers
    z exactly, and one application of the primal-dual resolvent to the
    result yields a zero of the inclusion.
    """
    z = as_flat(z_hat)
    drift = float(np.linalg.norm(drs_operator(p, z) - z))
    if drift > tol * (1.0 + float(np.linalg.norm(z))):
        raise ValueError(
            f"z_hat is not a fixed point to tolerance ({drift:.3e})"
        )
    w = p.upsilon.map(lambda d: 1.0 / (1.0 + d * d)).apply(z)
    return np.concatenate((w, -p.upsilon.apply(w)))


def equivalence_deviation(
    p: DRSProblem,
    x0: HVector | np.ndarray,
    u0: HVector | np.ndarray,
    sched: RelaxationSchedule,
    iters: int,
) -> float:
    """Max componentwise gap between the primal-dual auxiliary sequence
    and the classic relaxed iteration over a fixed number of steps
    (+inf when one run ends early on a non-finite step or a compared
    entry is not finite)."""
    pd_run = pd_drs_iterate(p, x0, u0, sched, eps=None, max_iter=iters)
    coll = _Collector(np.copy)
    # the classic run starts where the auxiliary sequence does
    drs_iterate(p, pd_run.z_sequence[0], sched, eps=None, max_iter=iters,
                monitors=(coll,))
    if len(coll.values) != len(pd_run.z_sequence):
        return math.inf
    # a non-finite entry makes its gap inf or NaN (inf - inf)
    gaps = [float(np.max(np.abs(za - zb)))
            for za, zb in zip(pd_run.z_sequence, coll.values)]
    return max(gaps) if all(map(math.isfinite, gaps)) else math.inf
