"""Property tests of the paper's structural claims over random instances."""

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from pdsplit import (
    DRSProblem,
    DisplacementMonitor,
    FejerMonitor,
    ImageGrid,
    RelaxationSchedule,
    TVConfig,
    as_pd_problem,
    boundary_sigmas,
    build_gaussian_blur,
    build_problem,
    dense_range_diagnostics,
    diagonal_precond,
    drs_operator,
    equivalence_deviation,
    fixed_point_transport,
    gradient_norm_sq,
    km_iterate,
    matrix_op,
    matrix_precond,
    monotone_linear,
    pd_resolvent,
    scalar_precond,
    zero_inclusion_residual,
    zero_operator,
)

from conftest import metric_problem

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
# the tests whose every example computes a shadow-fixed anchor (up to
# 20000 resolvent steps) report the failing example as drawn: shrinking
# it took minutes
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


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


@examples
@critical_tv
def test_displacement_never_increases(n1, n2, tau, gamma1, gamma2, seed):
    # with a constant relaxation lambda in (0, 2), the V-seminorm of the
    # displacement J z_n - z_n is nonincreasing along the iteration
    rng = np.random.default_rng(seed)
    problem = critical_problem(n1, n2, tau, gamma1, gamma2, rng)
    lam = float(rng.uniform(0.05, 1.95))
    mon = DisplacementMonitor(problem)
    km_iterate(lambda z: pd_resolvent(problem, z),
               random_state(rng, n1 * n2),
               RelaxationSchedule.constant(lam), None, 60, monitors=(mon,))
    for a, b in zip(mon.values[:-1], mon.values[1:]):
        assert b <= a * (1.0 + 1e-12)


def shadow_fixed_anchor(problem, z):
    """A state whose shadow is fixed to 1e-12 in the V-seminorm: z
    itself if it is, otherwise the limit of unrelaxed steps from z."""

    def resolvent(state):
        return pd_resolvent(problem, state)

    for _ in range(200):
        if zero_inclusion_residual(problem, z) < 1e-12:
            break
        z = km_iterate(resolvent, z, RelaxationSchedule.constant(1.0), None,
                       100).state
    assert zero_inclusion_residual(problem, z) < 1e-12
    return z


@settings(max_examples=15, deadline=None, derandomize=True, database=None,
          phases=NO_SHRINK)
@given(n1=st.integers(3, 5), n2=st.integers(3, 5), tau=st.floats(0.05, 3.0),
       gamma1=fraction, gamma2=fraction, seed=st.integers(0, 2**32 - 1))
def test_anchored_distance_never_increases(n1, n2, tau, gamma1, gamma2,
                                           seed):
    # Fejer monotonicity: with a constant relaxation lambda in (0, 2),
    # the V-seminorm distance to a shadow-fixed anchor never increases
    rng = np.random.default_rng(seed)
    problem = critical_problem(n1, n2, tau, gamma1, gamma2, rng)
    anchor = shadow_fixed_anchor(problem, random_state(rng, n1 * n2))

    lam = float(rng.uniform(0.05, 1.95))
    mon = FejerMonitor(problem, anchor)
    km_iterate(lambda z: pd_resolvent(problem, z), random_state(rng, n1 * n2),
               RelaxationSchedule.constant(lam), None, 60, monitors=(mon,))
    d0 = mon.values[0]
    assert d0 > 0
    assert mon.max_single_step_increase <= 1e-9 * d0


def random_precond(kind, rng, n, draw=None):
    """A scalar, diagonal or dense preconditioner whose eigenvalues come
    from ``draw(size)``, uniform on [0.2, 3] when omitted."""
    draw = draw or (lambda size=None: rng.uniform(0.2, 3.0, size))
    if kind == "scalar":
        return scalar_precond(draw(), n)
    if kind == "diagonal":
        return diagonal_precond(draw(n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return matrix_precond((q * draw(n)) @ q.T)


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
        assert p.inverse is p.inverse


@examples
@example(log_cond=2.0, seed=0)
@example(log_cond=12.0, seed=0)
@given(log_cond=st.floats(2.0, 12.0), seed=st.integers(0, 2**32 - 1))
def test_functions_of_an_ill_conditioned_precond(log_cond, seed):
    # a 20x20 SPD matrix with a random orthogonal basis and a geometric
    # spectrum from 1 to cond: its inverse and square root come from
    # the one eigendecomposition matrix_precond validated
    rng = np.random.default_rng(seed)
    n, cond = 20, 10.0 ** log_cond
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    p = matrix_precond((q * np.geomspace(1.0, cond, n)) @ q.T)
    inv, root = p.inverse, p.sqrt
    assert p.inverse is inv and p.sqrt is root
    norm = np.linalg.norm
    for _ in range(5):
        v = rng.standard_normal(n)
        pv = p.apply(v)
        assert norm(inv.apply(pv) - v) <= 1e-15 * cond * norm(v)
        assert norm(root.apply(root.apply(v)) - pv) <= 1e-13 * norm(pv)
    as_pd_problem(DRSProblem(zero_operator(), zero_operator(), p))

    # V z applied and V as a matrix agree with dense preconditioners
    m = 7
    a = rng.standard_normal((m, m))
    sigma = matrix_precond(a @ a.T + np.eye(m))
    problem = metric_problem(p, sigma,
                             matrix_op(rng.standard_normal((m, n))))
    z = rng.standard_normal(n + m)
    want = problem.metric_matrix() @ z
    assert norm(problem.metric(z) - want) <= 1e-12 * norm(want)


def dense_drs(kind, rng, n):
    """Affine A and B with symmetric positive-definite slopes, a
    preconditioner Y with spectrum in [10^-1.5, 10^1.5] (condition
    number at most 1e3), the exact zero x* of A + B and A x*."""

    def draw(size=None):
        return 10.0 ** rng.uniform(-1.5, 1.5, size)

    slopes, offsets = [], []
    for _ in range(2):
        q = rng.standard_normal((n, n)) / np.sqrt(n)
        slopes.append(q @ q.T + 0.3 * np.eye(n))
        offsets.append(rng.standard_normal(n))
    p = DRSProblem(A=monotone_linear(slopes[0], offsets[0]),
                   B=monotone_linear(slopes[1], offsets[1]),
                   upsilon=random_precond(kind, rng, n, draw))
    x_star = -np.linalg.solve(slopes[0] + slopes[1],
                              offsets[0] + offsets[1])
    return p, x_star, slopes[0] @ x_star + offsets[0]


# relaxation parameters anywhere in [0, 2], and within 1e-3 of 0 or 2
relaxations = st.lists(
    st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 1e-3),
              st.floats(2.0 - 1e-3, 2.0)),
    min_size=1, max_size=40,
)


@examples
@given(n=st.integers(1, 8), kind=preconds, lams=relaxations,
       seed=st.integers(0, 2**32 - 1))
def test_drs_and_primal_dual_sequences_agree(n, kind, lams, seed):
    # the auxiliary sequence x_n - Y u_n of the primal-dual recurrence
    # is the classic relaxed DRS sequence, step by step
    rng = np.random.default_rng(seed)
    p, _, _ = dense_drs(kind, rng, n)
    x0, u0 = rng.standard_normal(n), rng.standard_normal(n)
    sched = RelaxationSchedule.from_sequence(lams)
    assert equivalence_deviation(p, x0, u0, sched, 40) <= 1e-10


@examples
@given(n=st.integers(1, 8), kind=preconds, seed=st.integers(0, 2**32 - 1))
def test_fixed_point_transport_round_trips(n, kind, seed):
    # z = x* + Y A x* is fixed by the DRS map; its transported state
    # (x, u) gives back z = x - Y u, and one primal-dual resolvent step
    # from it lands on the zero x*
    rng = np.random.default_rng(seed)
    p, x_star, a_star = dense_drs(kind, rng, n)
    z = x_star + p.upsilon.apply(a_star)
    state = fixed_point_transport(p, z)
    norm = np.linalg.norm
    back = state[:n] - p.upsilon.apply(state[n:])
    assert norm(back - z) <= 1e-12 * (1.0 + norm(z))
    x_next = pd_resolvent(as_pd_problem(p), state)[:n]
    assert norm(x_next - x_star) <= 1e-10 * (1.0 + norm(x_star))


@examples
@given(n=st.integers(1, 8), kind=preconds, log_scale=st.floats(-2.0, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_shadow_fixed_state_transports_to_a_drs_fixed_point(n, kind,
                                                            log_scale, seed):
    # the reverse transport: the kernel of V is {(Y w, w)}, so every
    # shadow-fixed state of as_pd_problem(p) is the saddle point
    # (x*, -A x*) plus (Y w, w), and its x - Y u is fixed by the DRS map
    rng = np.random.default_rng(seed)
    p, x_star, a_star = dense_drs(kind, rng, n)
    problem = as_pd_problem(p)
    w = 10.0 ** log_scale * rng.standard_normal(n)
    state = np.concatenate((x_star + p.upsilon.apply(w), w - a_star))
    norm = np.linalg.norm
    shift = problem.metric(pd_resolvent(problem, state) - state)
    assert norm(shift) <= 1e-10 * (1.0 + norm(state))
    z = state[:n] - p.upsilon.apply(state[n:])
    assert norm(drs_operator(p, z) - z) <= 1e-10 * (1.0 + norm(z))


# 10 to 40 relaxations anywhere in [0, 2] or within 1e-3 of 0 or 2, or
# only the latter, where the KM sum of lambda (2 - lambda) stays below 1
near_ends = st.one_of(st.floats(0.0, 1e-3), st.floats(2.0 - 1e-3, 2.0))
schedules = st.one_of(
    st.lists(st.one_of(st.floats(0.0, 2.0), near_ends), min_size=10,
             max_size=40),
    st.lists(near_ends, min_size=1, max_size=40),
)


def check_km_energy(problem, anchor, z0, lams):
    """The KM energy inequality of a firmly nonexpansive map J in the
    V-seminorm, at every N:
    ||z_N - z*||^2 + sum_{k<N} lambda_k (2 - lambda_k) ||J z_k - z_k||^2
    <= ||z_0 - z*||^2, and ||J z_k - z_k|| never increases."""
    dist, disp = FejerMonitor(problem, anchor), DisplacementMonitor(problem)
    km_iterate(lambda z: pd_resolvent(problem, z), z0,
               RelaxationSchedule.from_sequence(lams), None, len(lams),
               monitors=(dist, disp))
    d = np.square(dist.values)
    lam = np.array(lams)
    spent = np.cumsum(lam * (2.0 - lam) * np.square(disp.values))
    assert d[0] > 0
    assert np.all(d[1:] + spent <= d[0] * (1.0 + 1e-9))
    r = np.array(disp.values)
    assert np.all(r[1:] <= r[:-1] * (1.0 + 1e-12))


@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          phases=NO_SHRINK)
@given(n1=st.integers(3, 6), n2=st.integers(3, 6), tau=st.floats(0.05, 3.0),
       gamma1=fraction, gamma2=fraction, lams=schedules,
       seed=st.integers(0, 2**32 - 1))
def test_km_energy_inequality_on_critical_tv(n1, n2, tau, gamma1, gamma2,
                                             lams, seed):
    rng = np.random.default_rng(seed)
    problem = critical_problem(n1, n2, tau, gamma1, gamma2, rng)
    anchor = shadow_fixed_anchor(problem, random_state(rng, n1 * n2))
    check_km_energy(problem, anchor, random_state(rng, n1 * n2), lams)


@settings(examples, phases=NO_SHRINK)
@given(n=st.integers(1, 8), kind=preconds, lams=schedules,
       seed=st.integers(0, 2**32 - 1))
def test_km_energy_inequality_on_drs(n, kind, lams, seed):
    # the saddle point (x*, -A x*) of as_pd_problem(p) is shadow-fixed
    rng = np.random.default_rng(seed)
    p, x_star, a_star = dense_drs(kind, rng, n)
    problem = as_pd_problem(p)
    anchor = shadow_fixed_anchor(problem, np.concatenate((x_star, -a_star)))
    check_km_energy(problem, anchor, rng.standard_normal(2 * n), lams)
