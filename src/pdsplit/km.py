"""Generic relaxed fixed-point iteration with stopping and diagnostics.

Runs z_{n+1} = z_n + lambda_n (S z_n - z_n) on one flat float64 state;
for a primal-dual map that state is ``x | u_1 | ... | u_m`` in the
problem's layout.  Convergence is reported only once the KM condition's
running sum of lambda_n (2 - lambda_n) reaches 1.  Non-convergence and
non-finite steps are reported as data, not raised, so parameter sweeps
can record failures.  ``Monitor`` is the generic per-iteration
observer; the V-seminorm monitors of a primal-dual problem live in
``primal_dual``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import as_flat, inner

__all__ = [
    "RelaxationSchedule",
    "KMResult",
    "Monitor",
    "km_iterate",
]

# convergence needs the KM sum of lambda_n (2 - lambda_n) to reach this
DIVERGENCE_FLOOR = 1.0


@dataclass(frozen=True)
class RelaxationSchedule:
    """Relaxation parameters lambda_n in [0, 2]: lambda_n is
    ``values[n]``, and the last value repeats."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("empty relaxation sequence")
        for v in vals:
            if not 0.0 <= v <= 2.0:
                raise ValueError(f"relaxation parameter {v} outside [0, 2]")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def constant(lam: float) -> "RelaxationSchedule":
        return RelaxationSchedule((lam,))

    @staticmethod
    def from_sequence(values: Sequence[float]) -> "RelaxationSchedule":
        return RelaxationSchedule(tuple(values))

    def lambda_at(self, n: int) -> float:
        vals = self.values
        return vals[n] if n < len(vals) else vals[-1]


@dataclass
class KMResult:
    """Final flat state, the run's record and why it stopped:
    ``residuals[n]`` is update n's relative step, ``objectives[n]`` its
    objective (None without an objective function), and ``stop_reason``
    is ``"eps"`` (the residual met eps), ``"max_iter"`` or
    ``"nonfinite"`` (a step gave a NaN residual and no objective;
    ``state`` is the last finite iterate)."""

    state: np.ndarray
    residuals: np.ndarray
    objectives: np.ndarray | None = None
    stop_reason: str = "max_iter"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "eps"

    @property
    def iterations(self) -> int:
        return len(self.residuals)

    @property
    def final_residual(self) -> float:
        return float(self.residuals[-1])


class Monitor:
    """Per-iteration observer; subclasses record convergence diagnostics.

    ``start`` and ``observe`` receive flat float64 states.  The arrays
    are reused by the iteration: copy what must outlive the call.
    """

    def start(self, z0) -> None:
        pass

    def observe(self, n: int, z, sz, z_next) -> None:
        pass


def _norm(v: np.ndarray) -> float:
    return math.sqrt(inner(v, v))


def km_iterate(
    s_map: Callable[[np.ndarray], np.ndarray],
    z0,
    sched: RelaxationSchedule,
    eps: float | None,
    max_iter: int,
    monitors: Sequence[Monitor] = (),
    objective_fn: Callable[[np.ndarray], float] | None = None,
) -> KMResult:
    """Relaxed fixed-point iteration until the relative step
    lambda_n ||S z_n - z_n|| / ||z_n|| drops below eps, once the sum of
    lambda_n (2 - lambda_n) over the steps taken reaches 1.

    ``s_map`` is the self-map S on flat float64 arrays; ``z0`` is a 1-D
    array or an HVector, and the result's ``state`` is a flat array.
    Monitors and ``objective_fn`` see flat arrays.  That sum is the KM
    condition's: lambda = 0, lambda = 2 and tiny lambda keep it below 1
    and run to ``max_iter``.  At z_n = 0 the relative step is 0 when
    S z_n = z_n exactly and infinite otherwise.  ``eps=None`` disables
    the stopping rule and runs exactly ``max_iter`` steps (used by
    sequence-equivalence checks).  Stopping at ``max_iter`` without
    meeting ``eps`` is reported, not raised; so is a non-finite
    S z_n - z_n, which ends the run at the last finite iterate.
    Bit-deterministic for identical inputs and schedule.
    """
    if eps is not None and not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite (or None for "
                         "fixed-count runs)")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    z = np.array(as_flat(z0), dtype=np.float64)
    z_next = np.empty_like(z)
    for m in monitors:
        m.start(z)
    # plain lists: max_iter comes from config files and may be huge
    residuals: list[float] = []
    objectives = None if objective_fn is None else []
    stop = "max_iter"
    surrogate = 0.0
    nz = _norm(z)
    for n in range(max_iter):
        sz = s_map(z)
        lam = sched.lambda_at(n)
        surrogate += lam * (2.0 - lam)
        # z_next holds S z - z until it is relaxed in place
        np.subtract(sz, z, out=z_next)
        step = _norm(z_next)
        if not math.isfinite(step):
            residuals.append(math.nan)
            stop = "nonfinite"
            break
        # from z = 0 only an exact fixed point has a finite step
        r = lam * step / nz if nz != 0.0 else (math.inf if step else 0.0)
        z_next *= lam
        z_next += z
        for m in monitors:
            m.observe(n, z, sz, z_next)
        del sz  # so S z_n is freed before S is called again
        residuals.append(r)
        if objectives is not None:
            objectives.append(objective_fn(z_next))
        z, z_next = z_next, z
        nz = _norm(z)
        if eps is not None and surrogate >= DIVERGENCE_FLOOR and r < eps:
            stop = "eps"
            break
    if objectives is not None:
        objectives = np.array(objectives, dtype=np.float64)
    return KMResult(z, np.array(residuals, dtype=np.float64), objectives,
                    stop)
