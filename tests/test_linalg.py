import math

import numpy as np
import pytest

from pdsplit import (
    HVector,
    PDState,
    PowerIterationError,
    SaddleOperator,
    UnsupportedPreconditionerError,
    box_operator,
    cocoercivity_constant,
    dense_range_diagnostics,
    diagonal_precond,
    hvector,
    identity_op,
    l1_operator,
    matrix_op,
    matrix_precond,
    power_iteration_sqnorm,
    scalar_precond,
    scaled_identity_op,
    seminorm,
)
from pdsplit.tv import build_gradient_ops

from conftest import adjoint_gap, identity_saddle, random_saddle, random_state


class TestHVector:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            hvector([1.0, np.nan])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            HVector(np.zeros(5), (2, 2))

    def test_arithmetic_and_norm(self):
        a = hvector([3.0, 4.0])
        b = hvector([1.0, -1.0])
        assert (a + b).data.tolist() == [4.0, 3.0]
        assert (a - b).data.tolist() == [2.0, 5.0]
        assert (2.0 * a).data.tolist() == [6.0, 8.0]
        assert a.norm() == 5.0
        assert a.dot(b) == -1.0

    def test_immutable(self):
        a = hvector([1.0, 2.0])
        with pytest.raises(ValueError):
            a.data[0] = 3.0

    def test_grid_roundtrip(self):
        a = hvector(np.arange(6.0), dims=(2, 3))
        assert a.as_grid().shape == (2, 3)


class TestPrecond:
    @pytest.mark.parametrize("make", [
        lambda: scalar_precond(2.5, 6),
        lambda: diagonal_precond(np.linspace(0.5, 3.0, 6)),
        lambda: matrix_precond(np.diag(np.linspace(0.5, 3.0, 6))
                               + 0.1 * np.ones((6, 6))),
    ])
    def test_inverse_and_sqrt(self, make, rng):
        p = make()
        v = rng.standard_normal(p.dim)
        np.testing.assert_allclose(p.apply_inverse(p.apply(v)), v, rtol=1e-12)
        np.testing.assert_allclose(
            p.apply_sqrt(p.apply_sqrt(v)), p.apply(v), rtol=1e-12
        )

    @pytest.mark.parametrize("make", [
        lambda c, n: scalar_precond(c, n),
        lambda c, n: diagonal_precond(np.full(n, c)),
        lambda c, n: matrix_precond(c * np.eye(n)),
    ], ids=["scalar", "diagonal", "dense"])
    def test_forms_of_a_scalar_agree(self, make, rng):
        # c, as a scalar, a constant diagonal or c*I, is one operator
        def same(a, b):
            np.testing.assert_allclose(a, b, rtol=1e-14, atol=0.0)

        n, m = 6, 4
        p, ref = make(2.5, n), scalar_precond(2.5, n)
        v = rng.standard_normal(n)
        same(p.apply(v), ref.apply(v))
        same(p.inverse().apply(v), ref.inverse().apply(v))
        same(p.as_matrix(), ref.as_matrix())
        assert p.strong_monotonicity_constant == pytest.approx(2.5)
        coupling = (matrix_op(rng.standard_normal((m, n))),)
        same(SaddleOperator(p, (make(0.7, m),), coupling).as_matrix(),
             SaddleOperator(ref, (scalar_precond(0.7, m),),
                            coupling).as_matrix())
        x = rng.uniform(-3.0, 3.0, n)
        for op in (l1_operator(0.8), box_operator(-1.0, 1.0)):
            if p.diag is None:
                with pytest.raises(UnsupportedPreconditionerError):
                    op.resolvent(p, x)
            else:
                same(op.resolvent(p, x), op.resolvent(ref, x))

    def test_self_adjoint_and_strongly_monotone(self, rng):
        m = np.diag([1.0, 2.0, 3.0]) + 0.2
        p = matrix_precond(m)
        for _ in range(100):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            gap = abs(p.apply(x) @ y - x @ p.apply(y))
            assert gap <= 1e-10 * (np.linalg.norm(x) * np.linalg.norm(y) + 1)
            assert p.apply(x) @ x >= (
                p.strong_monotonicity_constant * x @ x - 1e-12
            )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scalar_precond(0.0, 3)
        with pytest.raises(ValueError):
            diagonal_precond([1.0, -2.0])


class TestLinOpAdjoints:
    def test_matrix_op_adjoint_identity(self, rng):
        op = matrix_op(rng.standard_normal((7, 5)))
        assert adjoint_gap(op, rng, trials=100) <= 1e-10

    def test_gradient_ops_adjoint_identity(self, rng):
        d1, d2 = build_gradient_ops(9, 7)
        assert adjoint_gap(d1, rng, trials=100) <= 1e-10
        assert adjoint_gap(d2, rng, trials=100) <= 1e-10

    @pytest.mark.parametrize("n2", range(2, 10))
    def test_gradient_adjoints_are_transposes_on_small_grids(self, n2):
        for n1 in range(2, 10):
            for op in build_gradient_ops(n1, n2):
                adj = np.column_stack(
                    [op.adjoint(e) for e in np.eye(op.cod_dim)]
                )
                np.testing.assert_array_equal(adj, op.as_matrix().T)


class TestPowerIteration:
    def test_identity(self):
        assert power_iteration_sqnorm(identity_op(10)) == pytest.approx(1.0)

    def test_scaled_identity_normal(self):
        op = scaled_identity_op(2.0, 10).normal()
        assert power_iteration_sqnorm(op) == pytest.approx(4.0)

    def test_zero_operator(self):
        op = scaled_identity_op(0.0, 5)
        assert power_iteration_sqnorm(op) == 0.0

    def test_matches_dense_singular_value(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 65))
            mat = rng.standard_normal((dim, dim))
            op = matrix_op(mat).normal()
            est = power_iteration_sqnorm(op, tol=1e-12, max_iter=200000,
                                         seed=3)
            exact = float(np.linalg.svd(mat, compute_uv=False)[0] ** 2)
            assert est == pytest.approx(exact, rel=1e-6)

    def test_deterministic_per_seed(self):
        op = matrix_op(np.diag([3.0, 1.0, 0.5])).normal()
        a = power_iteration_sqnorm(op, seed=11)
        b = power_iteration_sqnorm(op, seed=11)
        assert a == b

    def test_nonconvergence_carries_estimate(self):
        op = matrix_op(np.diag([2.0, 1.999999])).normal()
        with pytest.raises(PowerIterationError) as exc:
            power_iteration_sqnorm(op, tol=1e-16, max_iter=3)
        assert exc.value.last_estimate > 0.0

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            power_iteration_sqnorm(identity_op(3), tol=0.0)


class TestSaddleOperator:
    def test_kernel_vector_maps_to_zero(self, rng):
        v_op = identity_saddle(4)
        v = hvector(rng.standard_normal(4))
        z = PDState(v, (v,))
        out = v_op.apply(z)
        assert out.x.norm() == pytest.approx(0.0, abs=1e-15)
        assert out.duals[0].norm() == pytest.approx(0.0, abs=1e-15)

    def test_direct_evaluation(self):
        v_op = identity_saddle(1)
        z = PDState(hvector([1.0]), (hvector([0.0]),))
        out = v_op.apply(z)
        assert out.x.data[0] == 1.0
        assert out.duals[0].data[0] == -1.0

    def test_self_adjoint_on_random_pairs(self, rng):
        v_op = random_saddle(rng, 6, 4, scale=0.9)
        for _ in range(50):
            z = random_state(rng, v_op.block_dims)
            w = random_state(rng, v_op.block_dims)
            lhs = v_op.apply(z).dot(w)
            rhs = z.dot(v_op.apply(w))
            assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(lhs)))

    def test_monotone_under_condition(self, rng):
        for scale in (0.5, 0.9, 1.0):
            v_op = random_saddle(rng, 5, 3, scale=scale)
            for _ in range(1000):
                z = random_state(rng, v_op.block_dims)
                assert v_op.quad_form(z) >= -1e-10 * z.dot(z)

    def test_dimension_mismatch(self, rng):
        v_op = identity_saddle(3)
        z = random_state(rng, (3, 4))
        with pytest.raises(ValueError):
            v_op.apply(z)


class TestSeminorm:
    def test_kernel_vector_gives_zero(self, rng):
        v_op = identity_saddle(3)
        v = hvector(rng.standard_normal(3))
        assert seminorm(v_op, PDState(v, (v,))) == pytest.approx(0.0,
                                                                 abs=1e-12)

    def test_hand_evaluated_quadratic_form(self):
        v_op = identity_saddle(1)
        z = PDState(hvector([1.0]), (hvector([0.0]),))
        # V = [[1, -1], [-1, 1]] acting on (1, 0): quadratic form is 1
        assert seminorm(v_op, z) == pytest.approx(1.0)

    def test_homogeneity(self, rng):
        v_op = random_saddle(rng, 4, 4, scale=0.8)
        z = random_state(rng, v_op.block_dims)
        assert seminorm(v_op, 2.0 * z) == pytest.approx(
            2.0 * seminorm(v_op, z), rel=1e-12
        )

    def test_kernel_shift_invariance(self, rng):
        v_op = identity_saddle(2)
        diag = dense_range_diagnostics(v_op)
        z = random_state(rng, v_op.block_dims)
        base = seminorm(v_op, z)
        for j in range(diag.kernel_basis.shape[1]):
            k = v_op.unflatten(diag.kernel_basis[:, j], template=z)
            assert seminorm(v_op, z + k) == pytest.approx(
                base, abs=1e-9 * (1 + base)
            )

    def test_raises_on_indefinite_form(self, rng):
        # violated condition: coupling norm far above critical
        v_op = SaddleOperator(
            scalar_precond(1.0, 2),
            (scalar_precond(1.0, 2),),
            (scaled_identity_op(2.0, 2),),
        )
        z = PDState(hvector([1.0, 0.0]), (hvector([1.0, 0.0]),))
        with pytest.raises(ValueError):
            seminorm(v_op, z)


class TestCocoercivity:
    def test_reference_values(self):
        assert cocoercivity_constant(1.0, 1.0) == pytest.approx(0.5)
        assert cocoercivity_constant(2.0, 2.0) == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cocoercivity_constant(0.0, 1.0)

    def test_inequality_on_samples(self, rng):
        tau, sig = 0.7, 1.3
        n = 4
        mat = rng.standard_normal((n, n))
        mat *= 1.0 / (np.linalg.norm(mat, 2) * math.sqrt(tau * sig))
        v_op = SaddleOperator(
            scalar_precond(tau, n), (scalar_precond(sig, n),),
            (matrix_op(mat),),
        )
        beta = cocoercivity_constant(tau, sig)
        for _ in range(1000):
            z = random_state(rng, v_op.block_dims)
            vz = v_op.apply(z)
            assert z.dot(vz) >= beta * vz.dot(vz) - 1e-9


class TestDenseRangeDiagnostics:
    def test_critical_identity_case(self):
        diag = dense_range_diagnostics(identity_saddle(1))
        assert diag.rank == 1
        assert diag.min_nonzero_eig == pytest.approx(2.0)
        kb = diag.kernel_basis
        assert kb.shape == (2, 1)
        np.testing.assert_allclose(np.abs(kb[:, 0]),
                                   [1 / math.sqrt(2)] * 2, rtol=1e-12)

    def test_strict_condition_gives_full_rank(self, rng):
        v_op = random_saddle(rng, 5, 3, scale=0.8)
        diag = dense_range_diagnostics(v_op)
        assert diag.rank == 8
        assert diag.kernel_basis.shape[1] == 0

    def test_zero_matrix_rank_zero(self):
        diag = dense_range_diagnostics(np.zeros((4, 4)))
        assert diag.rank == 0
        assert diag.min_nonzero_eig == 0.0
        assert diag.kernel_basis.shape == (4, 4)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            dense_range_diagnostics(np.zeros((10, 10)), max_dim=5)

    def test_range_projection_idempotent(self, rng):
        v_op = identity_saddle(2)
        diag = dense_range_diagnostics(v_op)
        vec = rng.standard_normal(4)
        proj = diag.project_range(vec)
        np.testing.assert_allclose(diag.project_range(proj), proj,
                                   atol=1e-12)
        # projection of V z equals V z (it already lies in the range)
        z = random_state(rng, v_op.block_dims)
        vz = v_op.flatten(v_op.apply(z))
        np.testing.assert_allclose(diag.project_range(vz), vz, atol=1e-10)


class TestGradientNorm:
    def test_paper_scale_grid(self):
        d1, _ = build_gradient_ops(256, 256)
        est = power_iteration_sqnorm(d1.normal(), tol=3e-8, max_iter=100000,
                                     seed=0)
        assert est == pytest.approx(3.9998, abs=1e-3)

    def test_small_grid_matches_dense(self, rng):
        d1, d2 = build_gradient_ops(6, 5)
        for op in (d1, d2):
            est = power_iteration_sqnorm(op.normal(), tol=1e-12,
                                         max_iter=100000, seed=1)
            exact = float(np.linalg.svd(op.as_matrix(),
                                        compute_uv=False)[0] ** 2)
            assert est == pytest.approx(exact, rel=1e-6)
