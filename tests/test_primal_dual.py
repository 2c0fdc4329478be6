import numpy as np
import pytest

from pdsplit import (
    MonotoneOp,
    PDProblem,
    PDState,
    RelaxationSchedule,
    StepSizeConditionError,
    affine_operator,
    dense_range_diagnostics,
    hvector,
    identity_op,
    l1_operator,
    matrix_op,
    monotone_linear,
    pd_iterate,
    pd_resolvent,
    scalar_precond,
    step_condition,
    zero_inclusion_residual,
    zero_operator,
)
from pdsplit.tv import build_gradient_ops, gradient_norm_sq

from conftest import random_state


def scalar_instance():
    """A: x -> x - 1, B identity, identity coupling, unit step sizes.

    The unique primal-dual solution is (1/2, 1/2) and the step-size
    condition holds with equality (critical configuration).
    """
    return PDProblem(
        A=affine_operator(1.0, -1.0),
        blocks=((affine_operator(1.0, 0.0), identity_op(1)),),
        upsilon=scalar_precond(1.0, 1),
        sigmas=(scalar_precond(1.0, 1),),
    )


def random_instance(rng, n=5, m=3, scale=0.9):
    mat = rng.standard_normal((m, n))
    tau = float(rng.uniform(0.5, 1.5))
    sig = float(rng.uniform(0.5, 1.5))
    mat *= scale / (np.linalg.norm(mat, 2) * np.sqrt(tau * sig))
    q = rng.standard_normal((n, n))
    a = monotone_linear(q @ q.T + 0.3 * np.eye(n),
                        offset=rng.standard_normal(n))
    qb = rng.standard_normal((m, m))
    b = monotone_linear(qb @ qb.T + 0.3 * np.eye(m),
                        offset=rng.standard_normal(m))
    return PDProblem(
        A=a, blocks=((b, matrix_op(mat)),),
        upsilon=scalar_precond(tau, n), sigmas=(scalar_precond(sig, m),),
    )


class TestPDResolvent:
    def test_solution_is_fixed(self):
        p = scalar_instance()
        z = PDState(hvector([0.5]), (hvector([0.5]),))
        out = pd_resolvent(p, z)
        assert out.x.data[0] == pytest.approx(0.5, abs=1e-14)
        assert out.duals[0].data[0] == pytest.approx(0.5, abs=1e-14)

    def test_zero_operator_inert_primal(self, rng):
        n = 4
        p = PDProblem(
            A=zero_operator(),
            blocks=((affine_operator(1.0, 0.0), identity_op(n)),),
            upsilon=scalar_precond(1.0, n),
            sigmas=(scalar_precond(1.0, n),),
        )
        x = hvector(rng.standard_normal(n))
        z = PDState(x, (hvector(np.zeros(n)),))
        out = pd_resolvent(p, z)
        np.testing.assert_allclose(out.x.data, x.data)

    def test_kernel_invariance(self, rng):
        # critical configuration: shifting by a kernel vector of the
        # saddle operator leaves the resolvent output unchanged
        n = 3
        p = PDProblem(
            A=monotone_linear(np.eye(n), offset=rng.standard_normal(n)),
            blocks=((affine_operator(1.0, 0.0), identity_op(n)),),
            upsilon=scalar_precond(1.0, n),
            sigmas=(scalar_precond(1.0, n),),
        )
        v_op = p.saddle_operator()
        diag = dense_range_diagnostics(v_op)
        assert diag.kernel_basis.shape[1] > 0
        z = random_state(rng, v_op.block_dims)
        base = pd_resolvent(p, z)
        for j in range(diag.kernel_basis.shape[1]):
            k = v_op.unflatten(diag.kernel_basis[:, j], template=z)
            shifted = pd_resolvent(p, z + k)
            assert (shifted - base).norm() <= 1e-9 * (1 + base.norm())

    def test_shadow_firm_nonexpansiveness(self, rng):
        for _ in range(20):
            p = random_instance(rng)
            v_op = p.saddle_operator()
            z = random_state(rng, v_op.block_dims)
            w = random_state(rng, v_op.block_dims)
            jz, jw = pd_resolvent(p, z), pd_resolvent(p, w)
            inner = (jz - jw).dot(
                v_op.apply((z - jz) - (w - jw))
            )
            assert inner >= -1e-9

    def test_block_mismatch(self, rng):
        p = scalar_instance()
        z = PDState(hvector([0.0]), (hvector([0.0]), hvector([0.0])))
        with pytest.raises(ValueError):
            pd_resolvent(p, z)


class TestStepCondition:
    def test_scalar_composition(self):
        p = PDProblem(
            A=zero_operator(),
            blocks=((zero_operator(), identity_op(4)),),
            upsilon=scalar_precond(0.5, 4),
            sigmas=(scalar_precond(1.0, 4),),
        )
        cond = step_condition(p)
        assert cond.norm_sq_estimate == pytest.approx(0.5, abs=1e-9)
        assert not cond.critical

    def test_table_row_config_is_critical(self):
        # published step sizes tau=0.2, sigma=(0.7425, 0.4950, 0.05) on a
        # 256x256 grid: the boundary sum evaluates to 0.99995
        n1 = n2 = 256
        d1, d2 = build_gradient_ops(n1, n2)
        n = n1 * n2
        p = PDProblem(
            A=zero_operator(),
            blocks=(
                (l1_operator(0.01), d1),
                (l1_operator(0.01), d2),
                (zero_operator(), identity_op(n)),
            ),
            upsilon=scalar_precond(0.2, n),
            sigmas=(
                scalar_precond(0.7425, n),
                scalar_precond(0.4950, n),
                scalar_precond(0.05, n),
            ),
        )
        cond = step_condition(p)
        assert cond.norm_sq_estimate == pytest.approx(0.99995, abs=1e-3)
        assert cond.critical

    def test_equal_sigma_config_is_critical(self):
        # single critical sigma shared by the three blocks, 64x64 grid
        from pdsplit.tv import equal_critical_sigma

        n1 = n2 = 64
        d1, d2 = build_gradient_ops(n1, n2)
        n = n1 * n2
        s = equal_critical_sigma(0.2, gradient_norm_sq(n1), gradient_norm_sq(n2))
        p = PDProblem(
            A=zero_operator(),
            blocks=(
                (l1_operator(0.01), d1),
                (l1_operator(0.01), d2),
                (zero_operator(), identity_op(n)),
            ),
            upsilon=scalar_precond(0.2, n),
            sigmas=tuple(scalar_precond(s, n) for _ in range(3)),
        )
        cond = step_condition(p)
        assert cond.norm_sq_estimate == pytest.approx(1.0, abs=1e-3)
        assert cond.critical


class TestPDIterate:
    def test_scalar_instance_converges(self):
        p = scalar_instance()
        res = pd_iterate(p, p.initial_state(),
                         RelaxationSchedule.constant(1.0), 1e-8, 10000)
        assert res.converged
        assert res.stop_reason == "eps"
        assert res.state.x.data[0] == pytest.approx(0.5, abs=1e-7)
        assert res.state.duals[0].data[0] == pytest.approx(0.5, abs=1e-7)

    def test_limits_agree_across_relaxation(self):
        p = scalar_instance()
        limits = {}
        for lam in (1.0, 1.5, 1.9):
            res = pd_iterate(p, p.initial_state(),
                             RelaxationSchedule.constant(lam), 1e-8, 10000)
            assert res.converged
            limits[lam] = float(res.state.x.data[0])
        vals = list(limits.values())
        assert max(vals) - min(vals) <= 1e-6

    def test_critical_case_converges(self):
        # the configuration is exactly critical; convergence still holds
        cond = step_condition(scalar_instance())
        assert cond.critical
        res = pd_iterate(scalar_instance(), scalar_instance().initial_state(),
                         RelaxationSchedule.constant(1.5), 1e-10, 20000)
        assert res.converged

    def test_violated_condition_raises(self):
        p = PDProblem(
            A=zero_operator(),
            blocks=((zero_operator(), identity_op(2)),),
            upsilon=scalar_precond(1.1, 2),
            sigmas=(scalar_precond(1.1, 2),),
        )
        with pytest.raises(StepSizeConditionError):
            pd_iterate(p, p.initial_state(),
                       RelaxationSchedule.constant(1.0), 1e-8, 10)

    def test_override_warns_and_runs(self):
        p = PDProblem(
            A=zero_operator(),
            blocks=((zero_operator(), identity_op(2)),),
            upsilon=scalar_precond(1.1, 2),
            sigmas=(scalar_precond(1.1, 2),),
        )
        with pytest.warns(UserWarning):
            res = pd_iterate(p, p.initial_state(),
                             RelaxationSchedule.constant(1.0), 1e-8, 5,
                             override=True)
        assert res.iterations >= 1


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_primal_resolvent_stops_run(self):
        inf_op = MonotoneOp(lambda p, x: np.full_like(x, np.inf), "inf")
        p = PDProblem(
            A=inf_op,
            blocks=((zero_operator(), identity_op(2)),),
            upsilon=scalar_precond(0.5, 2),
            sigmas=(scalar_precond(1.0, 2),),
        )
        z0 = p.initial_state(hvector([1.0, 2.0]))
        res = pd_iterate(p, z0, RelaxationSchedule.constant(1.0), 1e-8, 10)
        assert res.stop_reason == "nonfinite"
        assert res.iterations == 1
        assert (res.state.x.data == z0.x.data).all()
        assert (res.state.duals[0].data == 0.0).all()


class TestZeroInclusionResidual:
    def test_zero_at_solution(self):
        p = scalar_instance()
        z = PDState(hvector([0.5]), (hvector([0.5]),))
        assert zero_inclusion_residual(p, z) <= 1e-12

    def test_zero_after_kernel_shift(self, rng):
        p = scalar_instance()
        v_op = p.saddle_operator()
        diag = dense_range_diagnostics(v_op)
        z = PDState(hvector([0.5]), (hvector([0.5]),))
        for j in range(diag.kernel_basis.shape[1]):
            k = v_op.unflatten(diag.kernel_basis[:, j], template=z)
            assert zero_inclusion_residual(p, z + k) <= 1e-9

    def test_positive_off_solution(self):
        p = scalar_instance()
        z = PDState(hvector([3.0]), (hvector([-1.0]),))
        assert zero_inclusion_residual(p, z) > 1e-3

    def test_small_after_converged_run(self, rng):
        for _ in range(5):
            p = random_instance(rng)
            res = pd_iterate(p, p.initial_state(),
                             RelaxationSchedule.constant(1.0), 1e-9, 50000)
            assert res.converged
            post = pd_resolvent(p, res.state)
            assert zero_inclusion_residual(p, post) <= 10 * 1e-9
