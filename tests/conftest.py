import numpy as np
import pytest

from pdsplit import (
    LinOp,
    PDProblem,
    identity_op,
    matrix_op,
    scalar_precond,
    zero_operator,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_state(rng, p):
    """Random flat state in the layout of the primal-dual problem ``p``,
    drawn one block at a time."""
    dims = [p.dim] + [sl.stop - sl.start for sl in p.dual_slices]
    return np.concatenate([rng.standard_normal(d) for d in dims])


def adjoint_gap(op, rng, trials=100):
    """Worst normalized adjoint-identity violation over random pairs."""
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(op.dom_dim)
        y = rng.standard_normal(op.cod_dim)
        lhs = float(op.forward(x) @ y)
        rhs = float(x @ op.adjoint(y))
        scale = np.linalg.norm(x) * np.linalg.norm(y) + 1.0
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def normal(op):
    """The self-adjoint positive-semidefinite map L* L of the LinOp L;
    power iteration on it estimates ||L||^2."""

    def fwd(v):
        return op.adjoint(op.forward(v))

    return LinOp(fwd, fwd, op.dom_dim, op.dom_dim)


def metric_problem(upsilon, sigma, coupling):
    """One-block problem with zero operators, for testing its metric V."""
    return PDProblem(
        A=zero_operator(),
        blocks=((zero_operator(), coupling),),
        upsilon=upsilon,
        sigmas=(sigma,),
    )


def identity_saddle(dim=1):
    """Critical metric: identity preconditioners and coupling."""
    return metric_problem(scalar_precond(1.0, dim), scalar_precond(1.0, dim),
                          identity_op(dim))


def random_saddle(rng, n, m, scale=1.0):
    """Metric with random coupling scaled to satisfy the step-size
    condition with the given margin."""
    mat = rng.standard_normal((m, n))
    tau = float(rng.uniform(0.5, 1.5))
    sig = float(rng.uniform(0.5, 1.5))
    norm = np.linalg.norm(mat, 2)
    mat *= scale / (norm * np.sqrt(tau * sig))
    return metric_problem(scalar_precond(tau, n), scalar_precond(sig, m),
                          matrix_op(mat))
