import math

import numpy as np
import pytest

from pdsplit import (
    DRSProblem,
    RelaxationSchedule,
    as_pd_problem,
    diagonal_precond,
    drs_iterate,
    drs_operator,
    equivalence_deviation,
    fixed_point_transport,
    hvector,
    matrix_precond,
    monotone_linear,
    pd_drs_iterate,
    pd_resolvent,
    scalar_precond,
    zero_inclusion_residual,
    zero_operator,
)


def scalar_drs():
    """A: x -> x - 1, B identity, unit preconditioner.

    The reflected-resolvent map reduces to z -> z/2 with fixed point 0,
    whose transported primal-dual pair is (1/2, 1/2).
    """
    return DRSProblem(
        A=monotone_linear(1.0, -1.0),
        B=monotone_linear(1.0, 0.0),
        upsilon=scalar_precond(1.0, 1),
    )


def random_drs(rng, dim, precond="scalar"):
    q1 = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    q2 = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    a = monotone_linear(q1 @ q1.T + 0.4 * np.eye(dim),
                        offset=rng.standard_normal(dim))
    b = monotone_linear(q2 @ q2.T + 0.4 * np.eye(dim),
                        offset=rng.standard_normal(dim))
    if precond == "scalar":
        ups = scalar_precond(float(rng.uniform(0.4, 2.0)), dim)
    elif precond == "diagonal":
        ups = diagonal_precond(rng.uniform(0.4, 2.0, size=dim))
    else:
        m = rng.standard_normal((dim, dim))
        ups = matrix_precond(m @ m.T / dim + 0.5 * np.eye(dim))
    return DRSProblem(A=a, B=b, upsilon=ups)


class TestDRSOperator:
    def test_both_zero_gives_identity(self, rng):
        p = DRSProblem(A=zero_operator(), B=zero_operator(),
                       upsilon=scalar_precond(1.0, 4))
        z = rng.standard_normal(4)
        np.testing.assert_allclose(drs_operator(p, z), z)

    def test_zero_first_operator_reduces_to_second_resolvent(self, rng):
        b = monotone_linear(2.0, 0.3)
        p = DRSProblem(A=zero_operator(), B=b,
                       upsilon=scalar_precond(0.7, 3))
        z = rng.standard_normal(3)
        want = b.resolvent(scalar_precond(0.7, 3), z)
        np.testing.assert_allclose(drs_operator(p, z), want)

    def test_scalar_fixed_point_and_solution_pair(self):
        # the map is z -> z/2; run a fixed count (the limit is exactly 0,
        # so the relative step never drops below 1/2)
        p = scalar_drs()
        res = drs_iterate(p, hvector([2.0]),
                          RelaxationSchedule.constant(1.0), None, 200)
        z_hat = res.state
        assert z_hat[0] == pytest.approx(0.0, abs=1e-12)
        x_hat = p.A.resolvent(p.upsilon, z_hat)
        u_hat = -1.0 * (z_hat - x_hat)
        assert x_hat[0] == pytest.approx(0.5, abs=1e-12)
        assert u_hat[0] == pytest.approx(0.5, abs=1e-12)

    def test_half_averaged(self, rng):
        for _ in range(20):
            p = random_drs(rng, 6)
            z = rng.standard_normal(6)
            w = rng.standard_normal(6)
            gz, gw = drs_operator(p, z), drs_operator(p, w)
            lhs = np.linalg.norm(gz - gw) ** 2
            rhs = np.linalg.norm(z - w) ** 2 \
                - np.linalg.norm((z - gz) - (w - gw)) ** 2
            assert lhs <= rhs + 1e-9


class TestDRSIterate:
    def test_zero_operators_fixed_immediately(self, rng):
        p = DRSProblem(A=zero_operator(), B=zero_operator(),
                       upsilon=scalar_precond(1.0, 3))
        z0 = hvector(rng.standard_normal(3))
        res = drs_iterate(p, z0, RelaxationSchedule.constant(1.0),
                          1e-12, 10)
        assert res.converged
        assert res.iterations == 1
        np.testing.assert_allclose(res.state, z0.data)

    def test_relaxed_and_unrelaxed_limits_agree(self, rng):
        p = random_drs(rng, 8)
        z0 = hvector(rng.standard_normal(8))
        r1 = drs_iterate(p, z0, RelaxationSchedule.constant(1.0),
                         1e-12, 20000)
        r2 = drs_iterate(p, z0, RelaxationSchedule.constant(1.5),
                         1e-12, 20000)
        assert r1.converged and r2.converged
        np.testing.assert_allclose(r1.state, r2.state, atol=1e-8)


class TestSequenceEquivalence:
    def test_random_instances_random_schedules(self, rng):
        worst = 0.0
        for _ in range(20):
            dim = int(rng.integers(1, 65))
            p = random_drs(rng, dim)
            x0 = hvector(rng.standard_normal(dim))
            u0 = hvector(rng.standard_normal(dim))
            sched = RelaxationSchedule.from_sequence(
                rng.uniform(0.0, 2.0, size=100)
            )
            worst = max(worst,
                        equivalence_deviation(p, x0, u0, sched, 100))
        assert worst <= 1e-10

    def test_alternating_schedule(self, rng):
        p = random_drs(rng, 12)
        x0 = hvector(rng.standard_normal(12))
        u0 = hvector(rng.standard_normal(12))
        sched = RelaxationSchedule.from_sequence([0.5, 1.9] * 50)
        assert equivalence_deviation(p, x0, u0, sched, 100) <= 1e-10

    def test_zero_dual_start_matches_primal_start(self, rng):
        p = random_drs(rng, 5)
        x0 = hvector(rng.standard_normal(5))
        u0 = hvector(np.zeros(5))
        run = pd_drs_iterate(p, x0, u0,
                             RelaxationSchedule.constant(1.0), None, 3)
        np.testing.assert_allclose(run.z_sequence[0], x0.data)

    def test_zero_operators_exact_match(self):
        p = DRSProblem(A=zero_operator(), B=zero_operator(),
                       upsilon=scalar_precond(1.0, 4))
        x0 = hvector([0.3, -1.7, 2.2, 0.9])
        u0 = hvector(np.zeros(4))
        sched = RelaxationSchedule.constant(1.3)
        assert equivalence_deviation(p, x0, u0, sched, 50) == 0.0


class TestFixedPointTransport:
    def test_zero_point_identity_preconditioner(self):
        p = scalar_drs()
        out = fixed_point_transport(p, hvector([0.0]), tol=1e-6)
        assert out[0] == 0.0
        assert out[1] == 0.0

    def test_round_trip_identity(self, rng):
        for kind in ("scalar", "diagonal", "dense"):
            p = random_drs(rng, 6, precond=kind)
            res = drs_iterate(p, hvector(rng.standard_normal(6)),
                              RelaxationSchedule.constant(1.0),
                              1e-13, 100000)
            assert res.converged
            state = fixed_point_transport(p, res.state)
            back = state[:6] - p.upsilon.apply(state[6:])
            np.testing.assert_allclose(back, res.state, atol=1e-12)

    def test_transport_reaches_zero_inclusion(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 17))
            p = random_drs(rng, dim)
            res = drs_iterate(p, hvector(rng.standard_normal(dim)),
                              RelaxationSchedule.constant(1.0),
                              1e-13, 100000)
            assert res.converged
            state = fixed_point_transport(p, res.state)
            pd = as_pd_problem(p)
            post = pd_resolvent(pd, state)
            assert zero_inclusion_residual(pd, post) <= 1e-10

    def test_rejects_non_fixed_point(self, rng):
        p = random_drs(rng, 4)
        with pytest.raises(ValueError):
            fixed_point_transport(p, hvector(rng.standard_normal(4) * 100),
                                  tol=1e-10)

    def test_converged_pd_state_is_fixed_under_classic_map(self, rng):
        # the reverse direction: the auxiliary image x - Y u of a
        # converged primal-dual run is a fixed point of the classic map
        for _ in range(5):
            p = random_drs(rng, 6)
            run = pd_drs_iterate(
                p, hvector(rng.standard_normal(6)),
                hvector(rng.standard_normal(6)),
                RelaxationSchedule.constant(1.0), 1e-11, 100000,
            )
            assert run.converged
            z = run.z_sequence[-1]
            drift = np.linalg.norm(drs_operator(p, z) - z)
            assert drift <= 1e-9 * (1.0 + np.linalg.norm(z))


def test_equivalence_deviation_of_a_run_that_ends_early_is_infinite():
    # x0 - Y u0 = 0, so the classic run stays finite, while the
    # primal-dual run overflows at its first step
    p = DRSProblem(A=monotone_linear(1.0, 0.0), B=monotone_linear(1.0, 0.0),
                   upsilon=scalar_precond(1.0, 1))
    sched = RelaxationSchedule.constant(1.0)
    big = np.array([1e308])
    with np.errstate(over="ignore", invalid="ignore"):
        assert pd_drs_iterate(p, big, big, sched, None, 5).stop_reason \
            == "nonfinite"
        assert equivalence_deviation(p, big, big, sched, 5) == math.inf


def test_equivalence_deviation_of_equal_infinite_entries_is_infinite():
    # x0 - Y u0 overflows to -inf, so both runs stop at their first step
    # with equal lengths, and -inf - -inf is NaN
    p = DRSProblem(A=monotone_linear(1.0, np.array([1e308])),
                   B=monotone_linear(1e300, 0.0),
                   upsilon=scalar_precond(1e300, 1))
    big = np.array([1e308])
    with np.errstate(over="ignore", invalid="ignore"):
        assert equivalence_deviation(
            p, big, big, RelaxationSchedule.constant(1.0), 5) == math.inf
