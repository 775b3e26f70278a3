import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffpath.errors import ParameterError
from diffpath.schedule import (AlphaSchedule, ScheduleSpec, TimestepGrid,
                               build_linear_beta_schedule, make_timestep_grid,
                               omega)


class TestLinearBetaSchedule:
    def test_zero_noise_single_step(self):
        sched = build_linear_beta_schedule(1, 0.0, 0.0)
        assert sched.alpha_bar.tolist() == [1.0, 1.0]

    def test_zero_noise_keeps_all_ones(self):
        sched = build_linear_beta_schedule(1000, 0.0, 0.0)
        assert np.all(sched.alpha_bar == 1.0)

    def test_standard_schedule_matches_high_precision_product(self):
        # independent oracle: cumulative product in 60-digit arithmetic
        import mpmath as mp
        mp.mp.dps = 60
        bmin, bmax = mp.mpf("1e-4"), mp.mpf("0.02")
        prod = mp.mpf(1)
        for j in range(1000):
            prod *= 1 - (bmin + (bmax - bmin) * j / 999)
        sched = build_linear_beta_schedule(1000, 1e-4, 0.02)
        assert float(abs(mp.mpf(sched.alpha_bar[1000]) - prod) / prod) < 1e-12
        assert sched.alpha_bar[1000] == pytest.approx(4.04e-5, rel=2e-3)

    @pytest.mark.parametrize("args", [(0, 0.0, 0.1), (10, -0.1, 0.1),
                                      (10, 0.2, 0.1), (10, 0.1, 1.0)])
    def test_invalid_ranges(self, args):
        with pytest.raises(ParameterError):
            build_linear_beta_schedule(*args)

    @given(t_train=st.integers(1, 400),
           beta_min=st.floats(1e-6, 0.01),
           spread=st.floats(0.0, 0.05))
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_strictly_decreasing_for_positive_beta(self, t_train, beta_min, spread):
        sched = build_linear_beta_schedule(t_train, beta_min, beta_min + spread)
        diffs = np.diff(sched.alpha_bar)
        assert np.all(diffs < 0.0)
        assert sched.alpha_bar[0] == 1.0
        assert np.all(sched.alpha_bar > 0.0)

    def test_validation_rejects_bad_arrays(self):
        with pytest.raises(ParameterError):
            AlphaSchedule(np.array([1.0, 0.5, 0.6]))
        with pytest.raises(ParameterError):
            AlphaSchedule(np.array([0.9, 0.5]))
        with pytest.raises(ParameterError):
            AlphaSchedule(np.array([1.0, 0.0]))


class TestTimestepGrid:
    def test_identity_grid(self):
        assert make_timestep_grid(10, 10).steps == tuple(range(10, 0, -1))

    def test_standard_grid_matches_enumeration(self):
        grid = make_timestep_grid(1000, 50)
        # enumeration oracle: every 20th index, descending from 1000
        assert grid.steps == tuple(1000 - 20 * i for i in range(50))
        assert grid.steps[0] == 1000 and grid.steps[-1] == 20

    def test_oversampling_is_an_error(self):
        with pytest.raises(ParameterError):
            make_timestep_grid(1000, 1001)

    @given(t_train=st.integers(1, 2000), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_grids_strictly_decreasing_and_anchored(self, t_train, data):
        t_sample = data.draw(st.integers(1, t_train))
        grid = make_timestep_grid(t_train, t_sample)
        steps = np.array(grid.steps)
        assert steps[0] == t_train
        assert len(steps) == t_sample
        assert np.all(np.diff(steps) < 0)
        assert steps[-1] >= 1

    def test_rejects_non_decreasing(self):
        with pytest.raises(ParameterError):
            TimestepGrid((10, 10, 5))


class TestOmega:
    def test_constant_window(self):
        spec = ScheduleSpec("constant", 30, 50, 50, 1.0)
        assert omega(spec, 40) == 1.0
        assert omega(spec, 30) == 1.0 and omega(spec, 50) == 1.0
        assert omega(spec, 29) == 0.0

    def test_cosine_vanishes_at_window_start(self):
        spec = ScheduleSpec("cosine", 30, 50, 50, 1.0)
        assert omega(spec, 30) == 0.0

    def test_linear_midpoint(self):
        spec = ScheduleSpec("linear", 30, 50, 50, 1.0)
        assert omega(spec, 40) == 0.5

    def test_exponential_floor(self):
        spec = ScheduleSpec("exponential", 30, 50, 50, 1.0)
        assert omega(spec, 30) == pytest.approx(math.exp(-5.0), abs=1e-15)
        assert omega(spec, 30) == pytest.approx(6.7379e-3, rel=1e-4)

    @pytest.mark.parametrize("kind", ["linear", "cosine", "exponential"])
    def test_decaying_kinds_hit_amplitude_at_top(self, kind):
        spec = ScheduleSpec(kind, 12, 50, 50, 0.73)
        assert omega(spec, 50) == 0.73
        assert omega(spec, 11) == 0.0

    @given(kind=st.sampled_from(["constant", "linear", "cosine", "exponential"]),
           total=st.integers(2, 120), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_bounded_and_zero_outside_support(self, kind, total, data):
        t_min = data.draw(st.integers(0, total - 1))
        t_max = total if kind != "constant" else data.draw(st.integers(t_min, total))
        amplitude = data.draw(st.floats(0.0, 1.0))
        spec = ScheduleSpec(kind, t_min, t_max, total, amplitude)
        for t in range(total + 1):
            w = omega(spec, t)
            assert 0.0 <= w <= amplitude
            inside = (t_min <= t <= t_max) if kind == "constant" else (t >= t_min)
            if not inside:
                assert w == 0.0

    def test_out_of_range_step(self):
        spec = ScheduleSpec("constant", 0, 50, 50, 1.0)
        with pytest.raises(ParameterError):
            omega(spec, 51)
        with pytest.raises(ParameterError):
            omega(spec, -1)

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            ScheduleSpec("linear", 50, 50, 50, 1.0)   # zero-width decay window
        with pytest.raises(ParameterError):
            ScheduleSpec("cosine", 10, 40, 50, 1.0)   # decaying kinds pin t_max
        with pytest.raises(ParameterError):
            ScheduleSpec("constant", 30, 20, 50, 1.0)
        with pytest.raises(ParameterError):
            ScheduleSpec("constant", 0, 50, 50, 1.5)
        with pytest.raises(ParameterError):
            ScheduleSpec("sigmoid", 0, 50, 50, 1.0)
