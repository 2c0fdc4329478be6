import math

import numpy as np
import pytest

from pdsplit import (
    DisplacementMonitor,
    FejerMonitor,
    RelaxationSchedule,
    hvector,
    km_iterate,
    residual_rel,
    seminorm,
)

from conftest import identity_saddle, random_state


def affine_map(mat, shift):
    def apply(z):
        return mat @ z + shift
    return apply


class TestRelaxationSchedule:
    def test_constant(self):
        s = RelaxationSchedule.constant(1.5)
        assert s.lambda_at(0) == 1.5
        assert s.lambda_at(999) == 1.5

    def test_sequence_extends_last(self):
        s = RelaxationSchedule.from_sequence([0.5, 1.9])
        assert s.lambda_at(0) == 0.5
        assert s.lambda_at(1) == 1.9
        assert s.lambda_at(7) == 1.9

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RelaxationSchedule.constant(2.1)
        with pytest.raises(ValueError):
            RelaxationSchedule.from_sequence([1.0, -0.1])

    def test_divergence_surrogate(self):
        s = RelaxationSchedule.constant(1.0)
        assert s.divergence_surrogate(10) == pytest.approx(10.0)
        s2 = RelaxationSchedule.constant(2.0)
        assert s2.divergence_surrogate(10) == 0.0

    def test_degenerate_schedule_warns(self):
        s = RelaxationSchedule.constant(2.0)
        z0 = hvector([1.0])
        with pytest.warns(UserWarning):
            km_iterate(lambda z: z, z0, s, 1e-8, 5)


class TestResidualRel:
    def test_stationary(self):
        z = hvector([1.0, 2.0])
        assert residual_rel(z, z) == 0.0

    def test_unit_relative_step(self):
        z = hvector([1.0, 0.0])
        z_next = hvector([2.0, 0.0])
        assert residual_rel(z_next, z) == pytest.approx(1.0)

    def test_zero_base_point_sentinel(self):
        z = hvector([0.0, 0.0])
        assert residual_rel(hvector([1.0, 0.0]), z) == math.inf

    def test_matches_direct_recomputation(self, rng):
        z = hvector(rng.standard_normal(9))
        w = hvector(rng.standard_normal(9))
        want = np.linalg.norm(w.data - z.data) / np.linalg.norm(z.data)
        assert residual_rel(w, z) == pytest.approx(want, rel=1e-14)


class TestKMIterate:
    def test_constant_map_one_step(self):
        c = hvector([3.0, -1.0])
        s = lambda z: c.data
        res = km_iterate(s, hvector([1.0, 1.0]),
                         RelaxationSchedule.constant(1.0), 1e-12, 50)
        assert res.converged
        assert res.stop_reason == "eps"
        np.testing.assert_allclose(res.state.data, c.data)
        assert res.trace[1].residual == 0.0

    def test_geometric_decay(self):
        s = lambda z: 0.5 * z
        res = km_iterate(s, hvector([1.0]),
                         RelaxationSchedule.constant(1.0), 1e-30, 10)
        assert not res.converged
        assert res.state.data[0] == pytest.approx(2.0 ** -10)

    def test_averaged_affine_matches_dense_solve(self, rng):
        # S y = (y + Q y)/2 with Q a scaled rotation plus shift
        dim = 8
        raw = rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(raw)
        q *= 0.9
        shift = rng.standard_normal(dim)
        mat = 0.5 * (np.eye(dim) + q)
        s = affine_map(mat, 0.5 * shift)
        fixed = np.linalg.solve(np.eye(dim) - q, shift)
        res = km_iterate(s, hvector(rng.standard_normal(dim)),
                         RelaxationSchedule.constant(1.0), 1e-12, 5000)
        assert res.converged
        np.testing.assert_allclose(res.state.data, fixed, atol=1e-8)

    def test_nonconvergence_flagged_not_raised(self):
        s = lambda z: 0.999 * z
        res = km_iterate(s, hvector([1.0]),
                         RelaxationSchedule.constant(1.0), 1e-12, 10)
        assert not res.converged
        assert res.stop_reason == "max_iter"
        assert res.iterations == 10
        assert len(res.trace) == 10

    def test_nonfinite_step_stops_at_last_finite_iterate(self):
        z0 = hvector([1.0, -2.0])
        res = km_iterate(lambda z: np.full_like(z, np.nan), z0,
                         RelaxationSchedule.constant(1.0), 1e-8, 10)
        assert res.stop_reason == "nonfinite"
        assert not res.converged
        assert res.iterations == 1
        assert math.isnan(res.final_residual)
        assert (res.state.data == z0.data).all()

    def test_step_norms_nonincreasing_for_averaged_map(self, rng):
        dim = 6
        raw = rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(raw)
        mat = 0.5 * (np.eye(dim) + 0.95 * q)
        s = affine_map(mat, rng.standard_normal(dim))
        z = rng.standard_normal(dim)
        prev = None
        sched = RelaxationSchedule.constant(1.0)
        for n in range(200):
            z_next = s(z)
            step = np.linalg.norm(z_next - z)
            if prev is not None:
                assert step <= prev + 1e-12 * (1.0 + prev)
            prev = step
            z = z_next

    def test_bit_deterministic(self, rng):
        dim = 5
        mat = 0.5 * (np.eye(dim) + 0.8 * np.linalg.qr(
            rng.standard_normal((dim, dim)))[0])
        shift = rng.standard_normal(dim)
        z0 = hvector(rng.standard_normal(dim))
        sched = RelaxationSchedule.from_sequence([1.0, 1.7, 0.4] * 40)
        r1 = km_iterate(affine_map(mat, shift), z0, sched, 1e-10, 100)
        r2 = km_iterate(affine_map(mat, shift), z0, sched, 1e-10, 100)
        assert r1.iterations == r2.iterations
        assert (r1.state.data == r2.state.data).all()
        assert [t.residual for t in r1.trace] \
            == [t.residual for t in r2.trace]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_zero_relaxation_never_converges(self):
        # lambda = 0 leaves z unchanged: the step is zero, not converged
        res = km_iterate(lambda z: 0.5 * z, hvector([2.0]),
                         RelaxationSchedule.constant(0.0), 1e-8, 7)
        assert not res.converged
        assert res.iterations == 7
        assert all(t.residual == 0.0 for t in res.trace)

    def test_rejects_bad_eps(self):
        s = lambda z: z
        with pytest.raises(ValueError):
            km_iterate(s, hvector([1.0]),
                       RelaxationSchedule.constant(1.0), -1.0, 5)

    def test_objective_recorded(self):
        s = lambda z: 0.5 * z
        res = km_iterate(
            s, hvector([2.0]), RelaxationSchedule.constant(1.0), 1e-30, 5,
            objective_fn=lambda z: float(z[0] ** 2),
        )
        assert res.trace[0].objective == pytest.approx(1.0)
        assert res.trace[1].objective == pytest.approx(0.25)


class TestMonitors:
    def _contraction_state_map(self, v_op, fixed=None):
        # contraction toward `fixed` (zero state by default)
        def apply(z):
            if fixed is None:
                return 0.5 * z
            return 0.5 * z + 0.5 * fixed.flat()
        return apply

    def test_fejer_decreasing_for_contraction(self, rng):
        v_op = identity_saddle(3)
        anchor = 0.0 * random_state(rng, v_op.block_dims)
        mon = FejerMonitor(v_op, anchor)
        z0 = random_state(rng, v_op.block_dims)
        km_iterate(self._contraction_state_map(v_op), z0,
                   RelaxationSchedule.constant(1.0), 1e-14, 60,
                   monitors=(mon,))
        diffs = np.diff(mon.values)
        assert np.all(diffs <= 1e-15)
        assert mon.max_single_step_increase <= 1e-15

    def test_fejer_anchor_at_current_iterate(self, rng):
        v_op = identity_saddle(2)
        z0 = random_state(rng, v_op.block_dims)
        mon = FejerMonitor(v_op, z0)
        assert seminorm(v_op, z0 - z0) == 0.0
        km_iterate(self._contraction_state_map(v_op), z0,
                   RelaxationSchedule.constant(1.0), 1e-14, 5,
                   monitors=(mon,))
        assert mon.values[0] == 0.0
        # unless z0 is fixed, later distances are positive
        assert any(v > 0 for v in mon.values[1:])

    def test_displacement_zero_at_fixed_start(self, rng):
        v_op = identity_saddle(2)
        z0 = 0.0 * random_state(rng, v_op.block_dims)
        mon = DisplacementMonitor(v_op)
        km_iterate(self._contraction_state_map(v_op), z0,
                   RelaxationSchedule.constant(1.0), 1e-14, 3,
                   monitors=(mon,))
        assert mon.values[0] == 0.0

    def test_displacement_ratio_small_after_convergence(self, rng):
        v_op = identity_saddle(4)
        mon = DisplacementMonitor(v_op)
        z0 = random_state(rng, v_op.block_dims)
        fixed = random_state(rng, v_op.block_dims)
        res = km_iterate(self._contraction_state_map(v_op, fixed), z0,
                         RelaxationSchedule.constant(1.0), 1e-10, 200,
                         monitors=(mon,))
        assert res.converged
        assert mon.ratio < 1e-4

    def test_displacement_recorded_in_trace(self, rng):
        v_op = identity_saddle(2)
        mon = DisplacementMonitor(v_op)
        z0 = random_state(rng, v_op.block_dims)
        res = km_iterate(self._contraction_state_map(v_op), z0,
                         RelaxationSchedule.constant(1.0), 1e-14, 4,
                         monitors=(mon,))
        assert res.trace[0].displacement == pytest.approx(mon.values[0])
