"""Property tests of the paper's structural claims over random instances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pdsplit import (
    ImageGrid,
    TVConfig,
    boundary_sigmas,
    build_gaussian_blur,
    build_problem,
    dense_range_diagnostics,
    diagonal_precond,
    gradient_norm_sq,
    matrix_precond,
    monotone_linear,
    pd_resolvent,
    scalar_precond,
)

fraction = st.floats(0.05, 0.95)

# random TV deblurring problems at critical step sizes, 3 to 8 per side
critical_tv = given(
    n1=st.integers(3, 8),
    n2=st.integers(3, 8),
    tau=st.floats(0.05, 3.0),
    gamma1=fraction,
    gamma2=fraction,
    seed=st.integers(0, 2**32 - 1),
)
examples = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


def critical_problem(n1, n2, tau, gamma1, gamma2, rng):
    sigmas = boundary_sigmas(tau, gamma1, gamma2, gradient_norm_sq(n1),
                             gradient_norm_sq(n2))
    cfg = TVConfig(tau, *sigmas, alpha=0.05)
    observed = ImageGrid(rng.uniform(0.0, 1.0, (n1, n2)), peak=1.0)
    return build_problem(cfg, observed, build_gaussian_blur(n1, n2, 3, 1.0))


def random_state(rng, n):
    """Primal image in [0, 1], three standard normal dual blocks."""
    return np.concatenate([rng.uniform(0.0, 1.0, n)]
                          + [rng.standard_normal(n) for _ in range(3)])


@examples
@critical_tv
def test_resolvent_ignores_kernel_at_critical_steps(n1, n2, tau, gamma1,
                                                    gamma2, seed):
    # at critical step sizes V has a kernel, and the primal-dual
    # resolvent depends on z only through V z
    rng = np.random.default_rng(seed)
    problem = critical_problem(n1, n2, tau, gamma1, gamma2, rng)
    kernel = dense_range_diagnostics(problem.metric_matrix()).kernel_basis
    assert kernel.shape[1] >= 1

    z = random_state(rng, n1 * n2)
    want = pd_resolvent(problem, z)
    for k in kernel.T:
        got = pd_resolvent(problem, z + np.linalg.norm(z) * k)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@examples
@critical_tv
def test_metric_and_resolvent_at_critical_steps(n1, n2, tau, gamma1, gamma2,
                                                seed):
    # V is self-adjoint and monotone, and the resolvent J is firmly
    # nonexpansive in the V-seminorm:
    # <Jz - Jw, V((z - Jz) - (w - Jw))> >= 0
    rng = np.random.default_rng(seed)
    problem = critical_problem(n1, n2, tau, gamma1, gamma2, rng)
    norm = np.linalg.norm
    for _ in range(5):
        z = random_state(rng, n1 * n2)
        w = random_state(rng, n1 * n2)
        vz, vw = problem.metric(z), problem.metric(w)
        scale = norm(vz) * norm(w) + norm(z) * norm(vw)
        assert abs(vz @ w - z @ vw) <= 1e-12 * scale
        assert z @ vz >= -1e-10 * (z @ z)

        jz, jw = pd_resolvent(problem, z), pd_resolvent(problem, w)
        step = problem.metric((z - jz) - (w - jw))
        assert (jz - jw) @ step >= -1e-10 * norm(jz - jw) * norm(step)


def random_precond(kind, rng, n):
    """A scalar, diagonal or dense preconditioner with spectrum in
    [0.2, 3]."""
    if kind == "scalar":
        return scalar_precond(rng.uniform(0.2, 3.0), n)
    if kind == "diagonal":
        return diagonal_precond(rng.uniform(0.2, 3.0, n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return matrix_precond((q * rng.uniform(0.2, 3.0, n)) @ q.T)


preconds = st.sampled_from(("scalar", "diagonal", "dense"))


@examples
@given(
    n=st.integers(1, 6),
    slope=st.one_of(st.floats(0.0, 3.0), st.just("matrix")),
    vector_offset=st.booleans(),
    kind1=preconds,
    kind2=preconds,
    seed=st.integers(0, 2**32 - 1),
)
def test_linear_resolvent_solves_and_never_reuses_a_stale_inverse(
        n, slope, vector_offset, kind1, kind2, seed):
    # A: y -> M y + c with M a scalar slope or a matrix whose symmetric
    # part is positive semidefinite; J = (Id + P A)^{-1}
    rng = np.random.default_rng(seed)
    if slope == "matrix":
        q = rng.standard_normal((n, n))
        mat = dense_m = q @ q.T / n + 0.5 * (q - q.T)
    else:
        mat, dense_m = slope, slope * np.eye(n)
    c = rng.standard_normal(n) if vector_offset else rng.standard_normal()
    p1, p2 = random_precond(kind1, rng, n), random_precond(kind2, rng, n)
    x = rng.standard_normal(n)

    op = monotone_linear(mat, c)
    got = [op.resolvent(p, x) for p in (p1, p2, p1)]
    for p, y in zip((p1, p2, p1), got):
        gap = np.linalg.norm(y + p.apply(dense_m @ y + c) - x)
        assert gap <= 1e-10 * (1.0 + np.linalg.norm(x))
        # a freshly built operator forms its solve from scratch
        fresh = monotone_linear(mat, c).resolvent(p, x)
        assert np.array_equal(y, fresh)
    for p in (p1, p2):
        assert p.inverse() is p.inverse()
