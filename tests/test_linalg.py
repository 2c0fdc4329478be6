import math

import numpy as np
import pytest

from pdsplit import (
    HVector,
    LinOp,
    PDProblem,
    PowerIterationError,
    UnsupportedPreconditionerError,
    box_operator,
    dense_range_diagnostics,
    diagonal_precond,
    hvector,
    identity_op,
    l1_operator,
    matrix_op,
    matrix_precond,
    power_iteration_sqnorm,
    scalar_precond,
    zero_operator,
)
from pdsplit.linalg import DENSE_DIM_LIMIT
from pdsplit.tv import (build_gaussian_blur, build_gradient_ops,
                        gradient_norm_sq)

from conftest import (
    adjoint_gap,
    identity_saddle,
    metric_problem,
    normal,
    random_saddle,
    random_state,
)


class TestHVector:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            hvector([1.0, np.nan])

    def test_immutable(self):
        a = hvector([1.0, 2.0])
        with pytest.raises(ValueError):
            a.data[0] = 3.0

    def test_source_writes_do_not_reach_the_copy(self):
        x = np.array([1.0, 2.0])
        h, g = hvector(x), HVector(x)
        x[0] = np.nan
        assert h.data[0] == 1.0 and g.data[0] == 1.0
        assert x.flags.writeable


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
        np.testing.assert_allclose(p.inverse.apply(p.apply(v)), v,
                                   rtol=1e-12)
        np.testing.assert_allclose(
            p.sqrt.apply(p.sqrt.apply(v)), p.apply(v), rtol=1e-12
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
        same(p.inverse.apply(v), ref.inverse.apply(v))
        same(p.as_matrix(), ref.as_matrix())
        assert np.linalg.eigvalsh(p.as_matrix())[0] == pytest.approx(2.5)
        coupling = matrix_op(rng.standard_normal((m, n)))
        same(metric_problem(p, make(0.7, m), coupling).metric_matrix(),
             metric_problem(ref, scalar_precond(0.7, m),
                            coupling).metric_matrix())
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
        lam_min = np.linalg.eigvalsh(m)[0]
        for _ in range(100):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            gap = abs(p.apply(x) @ y - x @ p.apply(y))
            assert gap <= 1e-10 * (np.linalg.norm(x) * np.linalg.norm(y) + 1)
            assert p.apply(x) @ x >= lam_min * x @ x - 1e-12

    def test_keeps_a_copy_of_its_matrix(self):
        m = np.diag([1.0, 2.0])
        p = matrix_precond(m)
        m[0, 0] = 5.0
        assert p.matrix[0, 0] == 1.0

    def test_rejects_nonpositive(self):
        for bad in (0.0, -2.0, math.nan):
            with pytest.raises(ValueError):
                scalar_precond(bad, 3)
            with pytest.raises(ValueError):
                diagonal_precond([1.0, bad])


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
        def adjoint_matrix(op):
            return np.column_stack([op.adjoint(e) for e in np.eye(op.cod_dim)])

        for n1 in range(2, 10):
            for op in build_gradient_ops(n1, n2):
                np.testing.assert_array_equal(adjoint_matrix(op),
                                              op.as_matrix().T)
            for size in (1, 3, 5):
                if size <= min(n1, n2):
                    op = build_gaussian_blur(n1, n2, size, 1.3)
                    np.testing.assert_allclose(adjoint_matrix(op),
                                               op.as_matrix().T,
                                               rtol=0, atol=1e-15)


LINOP_FACTORIES = {
    "identity": lambda rng: identity_op(6),
    "matrix": lambda rng: matrix_op(rng.standard_normal((5, 5))),
    "matrix-wide": lambda rng: matrix_op(rng.standard_normal((3, 7))),
    "matrix-tall": lambda rng: matrix_op(rng.standard_normal((7, 3))),
    "d1": lambda rng: build_gradient_ops(6, 5)[0],
    "d2": lambda rng: build_gradient_ops(6, 8)[1],
    "blur": lambda rng: build_gaussian_blur(6, 5, 3, 1.0),
}


class TestOutForms:
    @pytest.mark.parametrize("make", LINOP_FACTORIES.values(),
                             ids=LINOP_FACTORIES.keys())
    def test_linop_out_matches_allocating_call(self, make, rng):
        op = make(rng)
        for _ in range(5):
            x = rng.standard_normal(op.dom_dim)
            y = rng.standard_normal(op.cod_dim)
            fwd_buf = np.full(op.cod_dim, np.nan)
            adj_buf = np.full(op.dom_dim, np.nan)
            fx = op.forward(x, out=fwd_buf)
            ay = op.adjoint(y, out=adj_buf)
            assert fx is fwd_buf and ay is adj_buf
            np.testing.assert_array_equal(fx, op.forward(x))
            np.testing.assert_array_equal(ay, op.adjoint(y))
            scale = np.linalg.norm(x) * np.linalg.norm(y) + 1.0
            assert abs(fx @ y - x @ ay) <= 1e-10 * scale

    def test_linop_writes_into_a_slot_of_a_larger_array(self, rng):
        d1, d2 = build_gradient_ops(4, 3)
        x = rng.standard_normal(12)
        state = np.zeros(30)
        d2.forward(x, out=state[12:24])
        np.testing.assert_array_equal(state[12:24], d2.forward(x))
        assert not state[:12].any() and not state[24:].any()

    @pytest.mark.parametrize("make", [
        lambda: scalar_precond(2.5, 4),
        lambda: diagonal_precond([0.5, 1.0, 2.0, 3.0]),
        lambda: matrix_precond(np.diag([1.0, 2.0, 3.0, 4.0]) + 0.2),
    ], ids=["scalar", "diagonal", "matrix"])
    def test_precond_apply_out(self, make, rng):
        p = make()
        v = rng.standard_normal(4)
        want = p.apply(v)
        buf = np.full(4, np.nan)
        assert p.apply(v, out=buf) is buf
        np.testing.assert_array_equal(buf, want)
        assert p.apply(v, out=v) is v
        np.testing.assert_array_equal(v, want)


class TestPowerIteration:
    def test_identity(self):
        assert power_iteration_sqnorm(identity_op(10)) == pytest.approx(1.0)

    def test_scaled_identity_normal(self):
        op = normal(matrix_op(2.0 * np.eye(10)))
        assert power_iteration_sqnorm(op) == pytest.approx(4.0)

    def test_zero_operator(self):
        op = matrix_op(np.zeros((5, 5)))
        assert power_iteration_sqnorm(op) == 0.0

    def test_matches_dense_singular_value(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 65))
            mat = rng.standard_normal((dim, dim))
            op = normal(matrix_op(mat))
            est = power_iteration_sqnorm(op, tol=1e-12, max_iter=200000,
                                         seed=3)
            exact = float(np.linalg.svd(mat, compute_uv=False)[0] ** 2)
            assert est == pytest.approx(exact, rel=1e-6)

    def test_deterministic_per_seed(self):
        op = normal(matrix_op(np.diag([3.0, 1.0, 0.5])))
        a = power_iteration_sqnorm(op, seed=11)
        b = power_iteration_sqnorm(op, seed=11)
        assert a == b

    def test_nonconvergence_carries_estimate(self):
        # Lanczos is exact on a 2-D operator in two steps; 50 distinct
        # eigenvalues keep three steps short of the tolerance
        op = normal(matrix_op(np.diag(np.linspace(1.0, 2.0, 50))))
        with pytest.raises(PowerIterationError) as exc:
            power_iteration_sqnorm(op, tol=1e-16, max_iter=3)
        assert exc.value.last_estimate > 0.0

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            power_iteration_sqnorm(identity_op(3), tol=0.0)

    def test_random_psd_within_rounding_of_top_eigenvalue(self, rng):
        # repeated, clustered and rank-deficient tops over six decades
        for case in range(200):
            dim = int(rng.integers(2, 65))
            w = rng.uniform(0.0, 1.0, dim)
            kind = case % 4
            top = int(rng.integers(1, dim + 1))
            if kind == 1:
                w[:top] = 1.0
            elif kind == 2:
                w[:top] = 1.0 - rng.uniform(0.0, 1e-6, top)
                w[0] = 1.0
            elif kind == 3:
                w[:top] = 0.0
                w[-1] = 1.0
            w *= 10.0 ** rng.uniform(-3.0, 3.0)
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            est = power_iteration_sqnorm(matrix_op((q * w) @ q.T),
                                         tol=1e-12, seed=case)
            lam = float(w.max())
            assert lam * (1 - 1e-9) <= est <= lam * (1 + 1e-12), case

    def test_breakdown_is_exact(self):
        # the identity and 1-D maps end after one step, at the exact value
        assert power_iteration_sqnorm(identity_op(10)) == 1.0
        assert power_iteration_sqnorm(matrix_op([[3.0]])) == 3.0


class TestSaddleOperator:
    def test_kernel_vector_maps_to_zero(self, rng):
        p = identity_saddle(4)
        v = rng.standard_normal(4)
        out = p.metric(np.concatenate((v, v)))
        assert np.linalg.norm(out[:4]) == pytest.approx(0.0, abs=1e-15)
        assert np.linalg.norm(out[4:]) == pytest.approx(0.0, abs=1e-15)

    def test_direct_evaluation(self):
        p = identity_saddle(1)
        out = p.metric(np.array([1.0, 0.0]))
        assert out[0] == 1.0
        assert out[1] == -1.0

    def test_self_adjoint_on_random_pairs(self, rng):
        p = random_saddle(rng, 6, 4, scale=0.9)
        for _ in range(50):
            z = random_state(rng, p)
            w = random_state(rng, p)
            lhs = p.metric(z) @ w
            rhs = z @ p.metric(w)
            assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(lhs)))

    def test_monotone_under_condition(self, rng):
        for scale in (0.5, 0.9, 1.0):
            p = random_saddle(rng, 5, 3, scale=scale)
            for _ in range(1000):
                z = random_state(rng, p)
                assert z @ p.metric(z) >= -1e-10 * (z @ z)

    @pytest.mark.parametrize("make", [
        lambda n: scalar_precond(0.7, n),
        lambda n: diagonal_precond(np.linspace(0.5, 1.5, n)),
        lambda n: matrix_precond(np.diag(np.linspace(0.5, 1.5, n))
                                 + 0.1 * np.ones((n, n))),
    ], ids=["scalar", "diagonal", "dense"])
    def test_metric_matrix_is_the_block_matrix(self, make, rng):
        # metric_matrix, built from V's action, against the blocks
        # [[Y^-1, -L^T], [-L, S^-1]] assembled from as_matrix
        n = 5
        p = PDProblem(
            A=zero_operator(),
            blocks=((zero_operator(), matrix_op(rng.standard_normal((3, n)))),
                    (zero_operator(), identity_op(n))),
            upsilon=make(n),
            sigmas=(scalar_precond(0.4, 3),
                    diagonal_precond(np.linspace(0.2, 0.6, n))),
        )
        want = np.zeros((p.total_dim, p.total_dim))
        want[:n, :n] = p.upsilon.inverse.as_matrix()
        for (_, l), s, sl in zip(p.blocks, p.sigmas, p.dual_slices):
            lm = l.as_matrix()
            want[:n, sl] = -lm.T
            want[sl, :n] = -lm
            want[sl, sl] = s.inverse.as_matrix()
        np.testing.assert_array_equal(p.metric_matrix(), want)

    def test_dimension_mismatch(self, rng):
        p = identity_saddle(3)
        z = rng.standard_normal(7)
        with pytest.raises(ValueError):
            p.metric(z)


class TestSeminorm:
    def test_kernel_vector_gives_zero(self, rng):
        p = identity_saddle(3)
        v = rng.standard_normal(3)
        assert p.seminorm(np.concatenate((v, v))) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_hand_evaluated_quadratic_form(self):
        p = identity_saddle(1)
        z = np.array([1.0, 0.0])
        # V = [[1, -1], [-1, 1]] acting on (1, 0): quadratic form is 1
        assert p.seminorm(z) == pytest.approx(1.0)

    def test_homogeneity(self, rng):
        p = random_saddle(rng, 4, 4, scale=0.8)
        z = random_state(rng, p)
        assert p.seminorm(2.0 * z) == pytest.approx(
            2.0 * p.seminorm(z), rel=1e-12
        )

    def test_kernel_shift_invariance(self, rng):
        p = identity_saddle(2)
        diag = dense_range_diagnostics(p.metric_matrix())
        z = random_state(rng, p)
        base = p.seminorm(z)
        for j in range(diag.kernel_basis.shape[1]):
            k = diag.kernel_basis[:, j]
            assert p.seminorm(z + k) == pytest.approx(
                base, abs=1e-9 * (1 + base)
            )

    def test_raises_on_indefinite_form(self, rng):
        # violated condition: coupling norm far above critical
        p = metric_problem(scalar_precond(1.0, 2), scalar_precond(1.0, 2),
                           matrix_op(2 * np.eye(2)))
        z = np.array([1.0, 0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            p.seminorm(z)


class TestCocoercivity:
    def test_inequality_on_samples(self, rng):
        tau, sig = 0.7, 1.3
        n = 4
        mat = rng.standard_normal((n, n))
        mat *= 1.0 / (np.linalg.norm(mat, 2) * math.sqrt(tau * sig))
        p = metric_problem(scalar_precond(tau, n), scalar_precond(sig, n),
                           matrix_op(mat))
        # cocoercivity constant of V at scalar steps tau and sigma
        beta = tau * sig / (tau + sig)
        for _ in range(1000):
            z = random_state(rng, p)
            vz = p.metric(z)
            assert z @ vz >= beta * (vz @ vz) - 1e-9


class TestDenseRangeDiagnostics:
    def test_critical_identity_case(self):
        diag = dense_range_diagnostics(identity_saddle(1).metric_matrix())
        assert diag.rank == 1
        assert diag.min_nonzero_eig == pytest.approx(2.0)
        kb = diag.kernel_basis
        assert kb.shape == (2, 1)
        np.testing.assert_allclose(np.abs(kb[:, 0]),
                                   [1 / math.sqrt(2)] * 2, rtol=1e-12)

    def test_strict_condition_gives_full_rank(self, rng):
        p = random_saddle(rng, 5, 3, scale=0.8)
        diag = dense_range_diagnostics(p.metric_matrix())
        assert diag.rank == 8
        assert diag.kernel_basis.shape[1] == 0

    def test_zero_matrix_rank_zero(self):
        diag = dense_range_diagnostics(np.zeros((4, 4)))
        assert diag.rank == 0
        assert diag.min_nonzero_eig == 0.0
        assert diag.kernel_basis.shape == (4, 4)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            dense_range_diagnostics(
                np.broadcast_to(0.0, (DENSE_DIM_LIMIT + 1,) * 2))

    def test_range_projection_idempotent(self, rng):
        p = identity_saddle(2)
        kb = dense_range_diagnostics(p.metric_matrix()).kernel_basis

        def project_range(v):
            # the range is the orthogonal complement of the kernel
            return v - kb @ (kb.T @ v)

        vec = rng.standard_normal(4)
        proj = project_range(vec)
        np.testing.assert_allclose(project_range(proj), proj, atol=1e-12)
        # projection of V z equals V z (it already lies in the range)
        z = random_state(rng, p)
        vz = p.metric(z)
        np.testing.assert_allclose(project_range(vz), vz, atol=1e-10)


class TestGradientNorm:
    def test_paper_scale_grid(self):
        d1, _ = build_gradient_ops(256, 256)
        est = power_iteration_sqnorm(normal(d1), tol=3e-8, max_iter=100000,
                                     seed=0)
        assert est == pytest.approx(3.9998, abs=1e-3)

    def test_paper_scale_application_budget(self):
        d1, _ = build_gradient_ops(256, 256)
        op = normal(d1)
        calls = 0

        def counted(v):
            nonlocal calls
            calls += 1
            return op.forward(v)

        est = power_iteration_sqnorm(LinOp(counted, counted, op.dom_dim,
                                           op.dom_dim), tol=1e-8)
        assert est == pytest.approx(gradient_norm_sq(256), rel=1e-12)
        assert calls <= 400

    def test_small_grid_matches_dense(self, rng):
        d1, d2 = build_gradient_ops(6, 5)
        for op in (d1, d2):
            est = power_iteration_sqnorm(normal(op), tol=1e-12,
                                         max_iter=100000, seed=1)
            exact = float(np.linalg.svd(op.as_matrix(),
                                        compute_uv=False)[0] ** 2)
            assert est == pytest.approx(exact, rel=1e-6)


# every input check of linalg, by the exception and a fragment of its
# message
@pytest.mark.parametrize("call,exc,fragment", [
    pytest.param(lambda: matrix_op(np.ones(3)), ValueError, "2-D array",
                 id="matrix-op-1d"),
    pytest.param(lambda: matrix_precond(np.ones((2, 3))), ValueError,
                 "must be square", id="matrix-precond-not-square"),
    pytest.param(lambda: matrix_precond([[1.0, 2.0], [0.0, 1.0]]),
                 ValueError, "must be symmetric",
                 id="matrix-precond-not-symmetric"),
    pytest.param(lambda: matrix_precond([[1.0, 0.0], [0.0, -1.0]]),
                 ValueError, "positive definite",
                 id="matrix-precond-indefinite"),
    pytest.param(lambda: power_iteration_sqnorm(matrix_op(np.ones((2, 3)))),
                 ValueError, "must be square", id="power-iteration-not-square"),
    # NaN fails every comparison, so "tol <= 0" would let it through
    pytest.param(lambda: power_iteration_sqnorm(identity_op(3), tol=math.nan),
                 ValueError, "tol must be positive",
                 id="power-iteration-tol-nan"),
    pytest.param(lambda: dense_range_diagnostics(np.ones((2, 3))),
                 ValueError, "matrix must be square",
                 id="range-diagnostics-not-square"),
])
def test_input_checks(call, exc, fragment):
    with pytest.raises(exc) as info:
        call()
    assert fragment in str(info.value)
