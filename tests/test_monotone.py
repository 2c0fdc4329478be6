import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdsplit import (
    QuadraticDataFit,
    UnsupportedPreconditionerError,
    box_operator,
    diagonal_precond,
    dual_resolvent,
    hvector,
    identity_op,
    l1_operator,
    matrix_op,
    matrix_precond,
    monotone_linear,
    project_box,
    prox_l1,
    scalar_precond,
    zero_operator,
)
from pdsplit.tv import build_gaussian_blur, gaussian_kernel


def prox_grid_oracle(x, kappa, lo=-10.0, hi=10.0, step=1e-4):
    """Per-coordinate grid search for argmin kappa*|y| + 0.5*(y - x)^2."""
    grid = np.arange(lo, hi + step, step)
    out = np.empty_like(x)
    for j, xj in enumerate(x):
        vals = kappa * np.abs(grid) + 0.5 * (grid - xj) ** 2
        out[j] = grid[np.argmin(vals)]
    return out


class TestProxL1:
    def test_shrinkage(self):
        assert prox_l1(np.array([2.0]), 1.0)[0] == 1.0

    def test_dead_zone(self):
        assert prox_l1(np.array([-0.5]), 1.0)[0] == 0.0

    def test_matches_grid_oracle(self, rng):
        x = rng.uniform(-5, 5, size=16)
        got = prox_l1(x, 0.3)
        want = prox_grid_oracle(x, 0.3)
        np.testing.assert_allclose(got, want, atol=2e-4)

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            prox_l1(np.array([1.0]), -0.1)

    def test_subgradient_characterization(self, rng):
        # x - prox(x) must be in kappa * sign-subdifferential at prox(x)
        kappa = 0.7
        x = rng.uniform(-3, 3, size=50)
        p = prox_l1(x, kappa)
        r = x - p
        on = np.abs(p) > 0
        np.testing.assert_allclose(r[on], kappa * np.sign(p[on]), atol=1e-12)
        assert np.all(np.abs(r[~on]) <= kappa + 1e-12)

    def test_subgradient_inequality_on_comparison_points(self, rng):
        # f(y) >= f(p) + <x - p, y - p> for f = kappa*||.||_1 at p = prox(x)
        kappa = 1.3
        x = rng.uniform(-3, 3, size=12)
        p = prox_l1(x, kappa)
        fp = kappa * np.abs(p).sum()
        for _ in range(50):
            y = rng.uniform(-5, 5, size=12)
            fy = kappa * np.abs(y).sum()
            assert fy >= fp + (x - p) @ (y - p) - 1e-10


class TestProjectBox:
    @pytest.mark.parametrize("x,expect", [(300.0, 255.0), (-3.0, 0.0),
                                          (128.0, 128.0)])
    def test_clamps(self, x, expect):
        assert project_box(np.array([x]), 0.0, 255.0)[0] == expect

    def test_rejects_empty_box(self):
        with pytest.raises(ValueError):
            project_box(np.array([1.0]), 2.0, 1.0)

    def test_subgradient_inequality_on_comparison_points(self, rng):
        # indicator of the box: <x - p, y - p> <= 0 for every feasible y
        lo, hi = -1.0, 2.0
        x = rng.uniform(-4, 4, size=10)
        p = project_box(x, lo, hi)
        for _ in range(50):
            y = rng.uniform(lo, hi, size=10)
            assert (x - p) @ (y - p) <= 1e-10


class TestResolventQuadratic:
    def test_identity_zero_data(self):
        q = QuadraticDataFit(identity_op(1), hvector([0.0]))
        assert q.resolvent(1.0, np.array([2.0]))[0] \
            == pytest.approx(1.0)

    def test_identity_with_data(self):
        q = QuadraticDataFit(identity_op(1), hvector([4.0]))
        got = q.resolvent(1.0, np.array([0.0]))[0]
        assert got == pytest.approx(2.0)
        # grid oracle on the objective 0.5*(y-4)^2 + 0.5*(y-0)^2
        grid = np.arange(-10, 10, 1e-4)
        vals = 0.5 * (grid - 4.0) ** 2 + 0.5 * grid ** 2
        assert got == pytest.approx(grid[np.argmin(vals)], abs=2e-4)

    def test_matches_dense_solve(self, rng):
        for _ in range(20):
            mat = rng.standard_normal((4, 4))
            b = rng.standard_normal(4)
            x = rng.standard_normal(4)
            tau = float(rng.uniform(0.1, 3.0))
            q = QuadraticDataFit(matrix_op(mat), hvector(b))
            got = q.resolvent(tau, x)
            want = np.linalg.solve(
                np.eye(4) + tau * mat.T @ mat, x + tau * mat.T @ b
            )
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_normal_equation_residual(self, rng):
        mat = rng.standard_normal((6, 6))
        b = rng.standard_normal(6)
        x = rng.standard_normal(6)
        q = QuadraticDataFit(matrix_op(mat), hvector(b))
        tau = 0.7
        y = q.resolvent(tau, x)
        rhs = x + tau * mat.T @ b
        lhs = y + tau * mat.T @ (mat @ y)
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_fft_path_matches_dense(self, rng):
        n1 = n2 = 16
        blur = build_gaussian_blur(n1, n2, size=5, std=1.5)
        b = rng.standard_normal(n1 * n2)
        x = rng.standard_normal(n1 * n2)
        q = QuadraticDataFit(blur, hvector(b))
        got = q.resolvent(0.4, x)
        mat = blur.as_matrix()
        want = np.linalg.solve(
            np.eye(n1 * n2) + 0.4 * mat.T @ mat, x + 0.4 * mat.T @ b
        )
        np.testing.assert_allclose(got, want, atol=1e-10)

    @staticmethod
    def random_fit(n1, n2, seed):
        """A blur of random odd size and width on an n1 x n2 grid, its
        fit to a random observation, and the rng."""
        rng = np.random.default_rng(seed)
        size = int(rng.choice(np.arange(1, min(n1, n2) + 1, 2)))
        blur = build_gaussian_blur(n1, n2, size, float(rng.uniform(0.3, 3.0)))
        b = rng.standard_normal(n1 * n2)
        return blur, b, QuadraticDataFit(blur, hvector(b)), rng

    # n2 = 2 has no column with a mirror image, odd n2 no n2/2 column
    grids = given(n1=st.integers(2, 9), n2=st.integers(2, 9),
                  seed=st.integers(0, 2**32 - 1))

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @grids
    @example(n1=5, n2=2, seed=0)
    @example(n1=2, n2=7, seed=1)
    def test_value_is_half_squared_residual(self, n1, n2, seed):
        blur, b, q, rng = self.random_fit(n1, n2, seed)
        for _ in range(3):
            x = rng.standard_normal(n1 * n2) * 10.0 ** rng.uniform(-2, 2)
            r = blur.forward(x) - b
            assert q.value(x) == pytest.approx(0.5 * float(r @ r), rel=1e-12)
            # the resolvent shares the spectrum buffer; value keeps no state
            q.resolvent(0.5, x)

    def test_dense_value_is_half_squared_residual(self, rng):
        mat = rng.standard_normal((5, 3))
        b = rng.standard_normal(5)
        x = rng.standard_normal(3)
        q = QuadraticDataFit(matrix_op(mat), hvector(b))
        r = mat @ x - b
        assert q.value(x) == pytest.approx(0.5 * float(r @ r), rel=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @grids
    @example(n1=5, n2=2, seed=0)
    @example(n1=2, n2=7, seed=1)
    def test_fft_solve_is_the_spectral_division(self, n1, n2, seed):
        # the same bits as dividing the spectrum of x + tau R*b by
        # 1 + tau |s|^2 and inverting with irfft2
        blur, b, q, rng = self.random_fit(n1, n2, seed)
        taus = 10.0 ** rng.uniform(-2, 1, size=2)
        for tau in (*taus, taus[0]):
            x = rng.standard_normal(n1 * n2)
            spec = np.fft.rfft2((x + tau * blur.adjoint(b)).reshape(n1, n2))
            want = np.fft.irfft2(
                spec / (1.0 + tau * np.abs(blur.fft_symbol) ** 2),
                s=(n1, n2),
            ).ravel()
            assert np.array_equal(q.resolvent(tau, x), want)

    def test_rejects_nonpositive_tau(self):
        q = QuadraticDataFit(identity_op(2), hvector([0.0, 0.0]))
        with pytest.raises(ValueError):
            q.resolvent(0.0, np.array([1.0, 1.0]))


class TestMoreauInverseResolvent:
    """The Moreau path of ``dual_resolvent``, q = u - S J_{S^-1 B}(S^-1 u),
    which a family without a closed form takes; the l1 family is sent
    down it by dropping its ``conj_resolvent``."""

    @staticmethod
    def _moreau(op, sigma, u):
        return dual_resolvent(dataclasses.replace(op, conj_resolvent=None),
                              scalar_precond(sigma, u.size), u)

    def test_zero_function_collapses(self, rng):
        u = rng.standard_normal(8)
        out = self._moreau(zero_operator(), 2.0, u)
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_scalar_projection_oracle(self):
        # dual resolvent of |.| is the projection onto [-1, 1], any sigma
        for sigma in (0.5, 1.0, 3.0):
            for u, want in [(0.3, 0.3), (5.0, 1.0), (-2.0, -1.0)]:
                got = self._moreau(l1_operator(1.0), sigma, np.array([u]))[0]
                assert got == pytest.approx(want, abs=1e-12)

    def test_projection_oracle_vectors(self, rng):
        u = rng.uniform(-4, 4, size=100)
        got = self._moreau(l1_operator(1.0), 1.7, u)
        np.testing.assert_allclose(got, np.clip(u, -1.0, 1.0), atol=1e-10)

    def test_moreau_identity_roundtrip(self, rng):
        sigma = 2.3
        for _ in range(50):
            v = rng.standard_normal(6)
            lhs = prox_l1(v, 1.0 / sigma) \
                + self._moreau(l1_operator(1.0), sigma, sigma * v) / sigma
            np.testing.assert_allclose(lhs, v, atol=1e-10)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            self._moreau(l1_operator(1.0), 0.0, np.array([1.0]))


class TestResolventGeneric:
    def test_zero_operator_is_identity(self, rng):
        x = rng.standard_normal(5)
        out = zero_operator().resolvent(scalar_precond(2.0, 5), x)
        np.testing.assert_allclose(out, x)

    def test_identity_monotone_map(self):
        op = monotone_linear(1.0, 0.0)
        tau = 3.0
        x = np.array([2.0])
        got = op.resolvent(scalar_precond(tau, 1), x)
        assert got[0] == pytest.approx(2.0 / (1.0 + tau))

    def test_l1_matches_grid_oracle(self, rng):
        alpha, tau = 0.8, 0.5
        x = rng.uniform(-4, 4, size=12)
        got = l1_operator(alpha).resolvent(
            scalar_precond(tau, 12), x
        )
        want = prox_grid_oracle(x, alpha * tau)
        np.testing.assert_allclose(got, want, atol=2e-4)

    def test_unsupported_preconditioner(self):
        p = matrix_precond(np.diag([1.0, 2.0]) + 0.1)
        with pytest.raises(UnsupportedPreconditionerError):
            l1_operator(1.0).resolvent(p, np.array([1.0, 2.0]))

    def test_affine_solves_inclusion(self, rng):
        # J_{tau A} x satisfies p + tau (p + c) = x for A: y -> y + c
        c = rng.standard_normal(4)
        op = monotone_linear(1.0, c)
        tau = 1.3
        x = rng.standard_normal(4)
        p = op.resolvent(scalar_precond(tau, 4), x)
        np.testing.assert_allclose(p + tau * (p + c), x, atol=1e-12)


class TestDualResolvent:
    def test_matches_moreau_for_scalar(self, rng):
        alpha, sigma = 1.0, 2.5
        op = l1_operator(alpha)
        u = rng.standard_normal(10)
        got = dual_resolvent(op, scalar_precond(sigma, 10), u)
        want = dual_resolvent(dataclasses.replace(op, conj_resolvent=None),
                              scalar_precond(sigma, 10), u)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_diagonal_preconditioner(self, rng):
        # separable l1: dual resolvent is the componentwise projection
        d = rng.uniform(0.5, 2.0, size=8)
        u = rng.uniform(-3, 3, size=8)
        got = dual_resolvent(
            l1_operator(1.0), diagonal_precond(d), u
        )
        np.testing.assert_allclose(got, np.clip(u, -1, 1), atol=1e-12)


class TestConjResolvent:
    """The closed forms of ``conj_resolvent`` against the Moreau path
    that ``dual_resolvent`` takes for a family without one."""

    FAMILIES = {
        "l1": lambda: l1_operator(0.7),
        "box": lambda: box_operator(-0.5, 2.0),
    }

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(family=st.sampled_from(sorted(FAMILIES)),
           diagonal=st.booleans(),
           out_mode=st.sampled_from(["none", "separate", "input"]),
           log_sigma=st.floats(-3.0, 3.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_moreau_path(self, family, diagonal, out_mode,
                                 log_sigma, seed):
        rng = np.random.default_rng(seed)
        n = 40
        if diagonal:
            sigma = diagonal_precond(10.0 ** rng.uniform(log_sigma - 1.0,
                                                         log_sigma + 1.0, n))
        else:
            sigma = scalar_precond(10.0 ** log_sigma, n)
        op = self.FAMILIES[family]()
        assert op.conj_resolvent is not None
        u = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 3, n)
        want = dual_resolvent(
            dataclasses.replace(op, conj_resolvent=None), sigma, u
        )
        given_u = u.copy()
        out = {"none": None, "separate": np.full(n, np.nan),
               "input": given_u}[out_mode]
        got = dual_resolvent(op, sigma, given_u, out=out)
        if out is not None:
            assert got is out
        if out is not given_u:
            np.testing.assert_array_equal(given_u, u)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(u))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matrix_sigma_unsupported(self, family):
        sigma = matrix_precond(np.diag([1.0, 2.0]) + 0.1)
        with pytest.raises(UnsupportedPreconditionerError):
            dual_resolvent(self.FAMILIES[family](), sigma,
                           np.array([1.0, -3.0]))


class TestFirmNonexpansiveness:
    @pytest.mark.parametrize("make_op", [
        lambda rng: zero_operator(),
        lambda rng: l1_operator(0.6),
        lambda rng: box_operator(-1.0, 1.0),
        lambda rng: monotone_linear(2.0, 0.5),
        lambda rng: monotone_linear(
            (lambda m: m @ m.T + 0.1 * np.eye(5))(rng.standard_normal((5, 5)))
        ),
    ])
    def test_firmly_nonexpansive(self, make_op, rng):
        op = make_op(rng)
        tau = 0.9
        p = scalar_precond(tau, 5)
        for _ in range(200):
            x = rng.standard_normal(5)
            y = rng.standard_normal(5)
            jx = op.resolvent(p, x)
            jy = op.resolvent(p, y)
            lhs = np.linalg.norm(jx - jy) ** 2 \
                + np.linalg.norm((x - jx) - (y - jy)) ** 2
            assert lhs <= np.linalg.norm(x - y) ** 2 + 1e-9


class TestGaussianKernel:
    def test_normalized(self):
        k = gaussian_kernel(9, 4.0)
        assert k.sum() == pytest.approx(1.0, rel=1e-12)
        assert k.shape == (9, 9)
        np.testing.assert_allclose(k, k.T)

    def test_rejects_even_size(self):
        with pytest.raises(ValueError):
            gaussian_kernel(8, 4.0)
