import math
import weakref

import numpy as np
import pytest

from pdsplit import (
    DisplacementMonitor,
    FejerMonitor,
    Monitor,
    RelaxationSchedule,
    hvector,
    km_iterate,
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

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RelaxationSchedule.from_sequence([])

    def test_array_and_list_give_equal_schedules(self):
        vals = [0.5, 1.9, 1.0]
        assert RelaxationSchedule.from_sequence(np.array(vals)) \
            == RelaxationSchedule.from_sequence(vals)
        assert RelaxationSchedule.constant(1) \
            == RelaxationSchedule.from_sequence([1.0])


class TestKMIterate:
    def test_constant_map_one_step(self):
        c = hvector([3.0, -1.0])
        s = lambda z: c.data
        res = km_iterate(s, hvector([1.0, 1.0]),
                         RelaxationSchedule.constant(1.0), 1e-12, 50)
        assert res.converged
        assert res.stop_reason == "eps"
        np.testing.assert_allclose(res.state, c.data)
        assert res.residuals[1] == 0.0

    def test_exact_fixed_point_at_zero_converges(self):
        res = km_iterate(lambda z: np.zeros_like(z), np.zeros(3),
                         RelaxationSchedule.constant(1.0), 1e-8, 50)
        assert res.stop_reason == "eps"
        assert res.iterations == 1
        assert res.residuals[0] == 0.0

    def test_geometric_decay(self):
        s = lambda z: 0.5 * z
        res = km_iterate(s, hvector([1.0]),
                         RelaxationSchedule.constant(1.0), 1e-30, 10)
        assert not res.converged
        assert res.state[0] == pytest.approx(2.0 ** -10)

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
        np.testing.assert_allclose(res.state, fixed, atol=1e-8)

    def test_nonconvergence_flagged_not_raised(self):
        s = lambda z: 0.999 * z
        res = km_iterate(s, hvector([1.0]),
                         RelaxationSchedule.constant(1.0), 1e-12, 10)
        assert not res.converged
        assert res.stop_reason == "max_iter"
        assert res.iterations == 10
        assert len(res.residuals) == 10

    def test_nonfinite_step_stops_at_last_finite_iterate(self):
        z0 = hvector([1.0, -2.0])
        res = km_iterate(lambda z: np.full_like(z, np.nan), z0,
                         RelaxationSchedule.constant(1.0), 1e-8, 10)
        assert res.stop_reason == "nonfinite"
        assert not res.converged
        assert res.iterations == 1
        assert math.isnan(res.final_residual)
        assert (res.state == z0.data).all()

    @pytest.mark.parametrize("with_objective", [False, True])
    def test_record_arrays_on_nonfinite_stop(self, with_objective):
        # two finite steps, then a non-finite one: it records a NaN
        # residual and no objective
        calls = []

        def s(z):
            calls.append(None)
            return 0.5 * z if len(calls) < 3 else np.full_like(z, np.inf)

        res = km_iterate(
            s, np.ones(2), RelaxationSchedule.constant(1.0), 1e-8, 10,
            objective_fn=(lambda z: float(z @ z)) if with_objective else None,
        )
        assert res.stop_reason == "nonfinite"
        assert isinstance(res.residuals, np.ndarray)
        assert res.residuals.dtype == np.float64
        assert len(res.residuals) == res.iterations == 3
        assert np.isfinite(res.residuals[:2]).all()
        assert math.isnan(res.residuals[-1])
        if with_objective:
            assert res.objectives.dtype == np.float64
            assert res.objectives.tolist() == [0.5, 0.125]
        else:
            assert res.objectives is None

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
        assert (r1.state == r2.state).all()
        assert (r1.residuals == r2.residuals).all()

    def test_zero_relaxation_never_converges(self):
        # lambda = 0 leaves z unchanged: the step is zero, not converged
        res = km_iterate(lambda z: 0.5 * z, hvector([2.0]),
                         RelaxationSchedule.constant(0.0), 1e-8, 7)
        assert not res.converged
        assert res.iterations == 7
        assert (res.residuals == 0.0).all()

    # the identity map has a zero step from the start: the run stops
    # once sum(lambda_n (2 - lambda_n)) over the steps taken reaches 1
    @pytest.mark.parametrize("values,stop_at", [
        pytest.param([1.0], 1, id="lambda-1"),
        pytest.param([1.9], 6, id="lambda-1.9"),
        pytest.param([0.0, 0.0, 1.0], 3, id="zeros-then-1"),
        pytest.param([1e-12], None, id="lambda-1e-12"),
        pytest.param([2.0], None, id="lambda-2"),
    ])
    def test_stops_once_the_km_sum_reaches_one(self, values, stop_at):
        res = km_iterate(lambda z: z, np.ones(2),
                         RelaxationSchedule.from_sequence(values), 1e-8, 20)
        assert (res.residuals == 0.0).all()
        if stop_at is None:
            assert res.stop_reason == "max_iter" and res.iterations == 20
        else:
            assert res.stop_reason == "eps" and res.iterations == stop_at

    def test_rejects_bad_eps(self):
        s = lambda z: z
        # every finite step is below an infinite eps, so the first
        # iteration would report a convergence it did not reach
        for eps in (-1.0, math.inf):
            with pytest.raises(ValueError):
                km_iterate(s, hvector([1.0]),
                           RelaxationSchedule.constant(1.0), eps, 5)

    def test_objective_recorded(self):
        s = lambda z: 0.5 * z
        res = km_iterate(
            s, hvector([2.0]), RelaxationSchedule.constant(1.0), 1e-30, 5,
            objective_fn=lambda z: float(z[0] ** 2),
        )
        assert res.objectives[0] == pytest.approx(1.0)
        assert res.objectives[1] == pytest.approx(0.25)

    def test_map_output_released_before_the_next_call(self):
        # a solve keeps no map output past the step it was made for, so
        # S may allocate its next output while the last one is freed
        refs = []

        def s(z):
            assert all(r() is None for r in refs)
            out = 0.5 * z
            refs.append(weakref.ref(out))
            return out

        res = km_iterate(s, np.ones(3), RelaxationSchedule.constant(1.0),
                         None, 5, monitors=(Monitor(),),
                         objective_fn=lambda z: float(z[0]))
        assert res.iterations == 5 and len(refs) == 5


class TestMonitors:
    def _contraction_state_map(self, fixed=None):
        # contraction toward `fixed` (zero state by default)
        def apply(z):
            if fixed is None:
                return 0.5 * z
            return 0.5 * z + 0.5 * fixed
        return apply

    def test_fejer_decreasing_for_contraction(self, rng):
        p = identity_saddle(3)
        anchor = 0.0 * random_state(rng, p)
        mon = FejerMonitor(p, anchor)
        z0 = random_state(rng, p)
        km_iterate(self._contraction_state_map(), z0,
                   RelaxationSchedule.constant(1.0), 1e-14, 60,
                   monitors=(mon,))
        diffs = np.diff(mon.values)
        assert np.all(diffs <= 1e-15)
        assert mon.max_single_step_increase <= 1e-15

    def test_fejer_anchor_at_current_iterate(self, rng):
        p = identity_saddle(2)
        z0 = random_state(rng, p)
        mon = FejerMonitor(p, z0)
        assert p.seminorm(z0 - z0) == 0.0
        km_iterate(self._contraction_state_map(), z0,
                   RelaxationSchedule.constant(1.0), 1e-14, 5,
                   monitors=(mon,))
        assert mon.values[0] == 0.0
        # unless z0 is fixed, later distances are positive
        assert any(v > 0 for v in mon.values[1:])

    def test_displacement_zero_at_fixed_start(self, rng):
        p = identity_saddle(2)
        z0 = 0.0 * random_state(rng, p)
        mon = DisplacementMonitor(p)
        km_iterate(self._contraction_state_map(), z0,
                   RelaxationSchedule.constant(1.0), 1e-14, 3,
                   monitors=(mon,))
        assert mon.values[0] == 0.0

    def test_displacement_ratio_small_after_convergence(self, rng):
        p = identity_saddle(4)
        mon = DisplacementMonitor(p)
        z0 = random_state(rng, p)
        fixed = random_state(rng, p)
        res = km_iterate(self._contraction_state_map(fixed), z0,
                         RelaxationSchedule.constant(1.0), 1e-10, 200,
                         monitors=(mon,))
        assert res.converged
        assert mon.ratio < 1e-4


# every input check of km_iterate, by the exception and a fragment of
# its message
@pytest.mark.parametrize("call,exc,fragment", [
    pytest.param(lambda: km_iterate(lambda z: z, np.ones(1),
                                    RelaxationSchedule.constant(1.0), 1e-8, 0),
                 ValueError, "max_iter must be at least 1", id="max-iter-0"),
])
def test_input_checks(call, exc, fragment):
    with pytest.raises(exc) as info:
        call()
    assert fragment in str(info.value)
