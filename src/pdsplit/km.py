"""Generic relaxed fixed-point iteration with stopping and diagnostics.

Runs z_{n+1} = z_n + lambda_n (S z_n - z_n) on one flat float64 state
(an HVector or PDState start is flattened once and the result wrapped
back once).  Non-convergence and non-finite steps are reported as data,
not raised, so parameter sweeps can record failures.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .linalg import HVector, PDState, SaddleOperator, as_flat, seminorm

__all__ = [
    "RelaxationSchedule",
    "IterTrace",
    "KMResult",
    "Monitor",
    "FejerMonitor",
    "DisplacementMonitor",
    "km_iterate",
    "residual_rel",
]


@dataclass(frozen=True)
class RelaxationSchedule:
    """Relaxation parameters lambda_n in [0, 2], constant or tabulated."""

    lambda_at: Callable[[int], float]
    descriptor: str

    @staticmethod
    def constant(lam: float) -> "RelaxationSchedule":
        lam = float(lam)
        _check_lambda(lam)
        return RelaxationSchedule(lambda n: lam, f"constant({lam})")

    @staticmethod
    def from_sequence(values: Sequence[float]) -> "RelaxationSchedule":
        vals = [float(v) for v in values]
        if not vals:
            raise ValueError("empty relaxation sequence")
        for v in vals:
            _check_lambda(v)

        def at(n: int) -> float:
            return vals[n] if n < len(vals) else vals[-1]

        return RelaxationSchedule(at, f"sequence(len={len(vals)})")

    def divergence_surrogate(self, n_terms: int,
                             floor: float | None = None) -> float:
        """Partial sum of lambda_n (2 - lambda_n), the divergence
        surrogate guaranteeing asymptotic regularity.

        With ``floor`` given, stops accumulating once the floor is
        reached (long constant schedules clear it after a few terms).
        """
        total = 0.0
        for n in range(n_terms):
            lam = self.lambda_at(n)
            total += lam * (2.0 - lam)
            if floor is not None and total >= floor:
                break
        return total


def _check_lambda(lam: float) -> None:
    if not 0.0 <= lam <= 2.0:
        raise ValueError(f"relaxation parameter {lam} outside [0, 2]")


@dataclass(frozen=True)
class IterTrace:
    """Per-iteration record: update index, relative step residual,
    optional objective value and displacement seminorm."""

    n: int
    residual: float
    objective: Optional[float] = None
    displacement: Optional[float] = None


@dataclass
class KMResult:
    """Final state (the type of the start point), per-iteration trace
    and why the run stopped: ``"eps"`` (the residual met eps),
    ``"max_iter"`` or ``"nonfinite"`` (a step produced a non-finite
    residual; ``state`` is the last finite iterate)."""

    state: Any
    trace: list[IterTrace] = field(default_factory=list)
    stop_reason: str = "max_iter"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "eps"

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def final_residual(self) -> float:
        return self.trace[-1].residual if self.trace else math.inf


def residual_rel(z_next, z) -> float:
    """Relative step size sqrt(||z_next - z||^2 / ||z||^2) for arrays,
    HVectors or PDStates.

    Returns +inf when ||z|| = 0 (sentinel for an uninformative base
    point).
    """
    z = as_flat(z)
    nz = float(np.linalg.norm(z))
    if nz == 0.0:
        return math.inf
    return float(np.linalg.norm(as_flat(z_next) - z)) / nz


class Monitor:
    """Per-iteration observer; subclasses record convergence diagnostics.

    ``start`` and ``observe`` receive flat float64 states.  The arrays
    are reused by the iteration: copy what must outlive the call.
    """

    def start(self, z0) -> None:
        pass

    def observe(self, n: int, z, sz, z_next) -> None:
        pass


class FejerMonitor(Monitor):
    """Distance to an anchor in the saddle seminorm, per iterate.

    The anchor must be (numerically) fixed for the shadow of the
    iteration map, e.g. the limit of a high-precision pre-solve; the
    seminorm ignores kernel components, so the anchor's shadow is what
    matters.
    """

    def __init__(self, v_op: SaddleOperator, anchor):
        self.v_op = v_op
        self.anchor = as_flat(anchor)
        self.values: list[float] = []

    def start(self, z0) -> None:
        self.values.append(seminorm(self.v_op, z0 - self.anchor))

    def observe(self, n, z, sz, z_next) -> None:
        self.values.append(seminorm(self.v_op, z_next - self.anchor))

    @property
    def max_single_step_increase(self) -> float:
        if len(self.values) < 2:
            return 0.0
        return max(
            b - a for a, b in zip(self.values[:-1], self.values[1:])
        )


class DisplacementMonitor(Monitor):
    """Seminorm of the displacement S z_n - z_n, per iteration."""

    def __init__(self, v_op: SaddleOperator):
        self.v_op = v_op
        self.values: list[float] = []

    def observe(self, n, z, sz, z_next) -> None:
        self.values.append(seminorm(self.v_op, sz - z))

    @property
    def last_value(self) -> Optional[float]:
        return self.values[-1] if self.values else None

    @property
    def initial(self) -> float:
        return self.values[0]

    @property
    def final(self) -> float:
        return self.values[-1]

    @property
    def ratio(self) -> float:
        return self.final / self.initial if self.initial != 0.0 else 0.0


def _norm(v: np.ndarray) -> float:
    # einsum, not a BLAS dot: OpenBLAS threads dots of more than 10000
    # entries, which stalls when sweep workers already occupy every core
    return math.sqrt(float(np.einsum("i,i->", v, v)))


def km_iterate(
    s_map: Callable[[np.ndarray], np.ndarray],
    z0,
    sched: RelaxationSchedule,
    eps: float | None,
    max_iter: int,
    monitors: Sequence[Monitor] = (),
    objective_fn: Callable[[np.ndarray], float] | None = None,
    divergence_floor: float = 1.0,
) -> KMResult:
    """Relaxed fixed-point iteration until the relative step
    lambda_n ||S z_n - z_n|| / ||z_n|| drops below eps.

    ``s_map`` is the self-map S on flat float64 arrays; ``z0`` is an
    HVector, a PDState or a 1-D array, and the result's ``state`` has
    the same form.  Monitors and ``objective_fn`` see flat arrays.  A
    step with lambda_n = 0 never meets ``eps``: its relaxed step is zero
    whatever S z_n - z_n is.  ``eps=None`` disables the stopping rule
    and runs exactly ``max_iter`` steps (used by sequence-equivalence
    checks).  Stopping at ``max_iter`` without meeting ``eps`` is
    reported, not raised; so is a non-finite S z_n - z_n, which ends
    the run at the last finite iterate.  Bit-deterministic for
    identical inputs and schedule.
    """
    if eps is not None and eps <= 0:
        raise ValueError("eps must be positive (or None for fixed-count runs)")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if sched.divergence_surrogate(max_iter,
                                  floor=divergence_floor) < divergence_floor:
        warnings.warn(
            "relaxation schedule has a small divergence surrogate "
            "sum(lambda_n (2 - lambda_n)); convergence may stall",
            stacklevel=2,
        )
    disp_mon = next(
        (m for m in monitors if isinstance(m, DisplacementMonitor)), None
    )
    z = np.array(as_flat(z0), dtype=np.float64)
    z_next = np.empty_like(z)
    for m in monitors:
        m.start(z)
    trace: list[IterTrace] = []
    stop = "max_iter"
    nz = _norm(z)
    for n in range(max_iter):
        sz = s_map(z)
        lam = sched.lambda_at(n)
        # z_next holds S z - z until it is relaxed in place
        np.subtract(sz, z, out=z_next)
        step = _norm(z_next)
        if not math.isfinite(step):
            trace.append(IterTrace(n, math.nan))
            stop = "nonfinite"
            break
        r = lam * step / nz if nz != 0.0 else math.inf
        z_next *= lam
        z_next += z
        for m in monitors:
            m.observe(n, z, sz, z_next)
        obj = objective_fn(z_next) if objective_fn is not None else None
        disp = disp_mon.last_value if disp_mon is not None else None
        trace.append(IterTrace(n, r, obj, disp))
        z, z_next = z_next, z
        nz = _norm(z)
        if eps is not None and lam > 0.0 and r < eps:
            stop = "eps"
            break
    state = z0.with_flat(z) if isinstance(z0, (HVector, PDState)) else z
    return KMResult(state=state, trace=trace, stop_reason=stop)
