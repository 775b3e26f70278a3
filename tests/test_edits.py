import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffpath.config import (ManipulationConfig, cam_hook_names, normalize_kind,
                             register_cam_hook, validate_mask)
from diffpath import edits
from diffpath.edits import CamContext, prompt_switch, prompt_switches, run_edit, run_edits
from diffpath.errors import DenoiserError, ParameterError
from diffpath.sampler import generate
from diffpath.schedule import ScheduleSpec, make_timestep_grid, omega

from references import apply_mask, ddim_step, lerp
from conftest import preset_config
from test_call_counts import KIND_PRESETS, CountingDenoiser


def _spec(t_min, t_max, total, amplitude=1.0, kind="constant"):
    return ScheduleSpec(kind, t_min, t_max, total, amplitude)


class TestLerp:
    def test_endpoints_exact(self):
        a, b = np.array([2.0, 0.0]), np.array([0.0, 2.0])
        assert np.array_equal(lerp(a, b, 1.0), a)
        assert np.array_equal(lerp(a, b, 0.0), b)

    def test_interior_value(self):
        got = lerp(np.array([2.0, 0.0]), np.array([0.0, 2.0]), 0.25)
        assert np.allclose(got, [0.5, 1.5], atol=1e-15)

    def test_first_argument_is_weighted(self):
        # call-site contract: weight 1 selects the first (reference) operand
        a, b = np.array([5.0]), np.array([-5.0])
        assert lerp(a, b, 1.0)[0] == 5.0

    @given(w=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_convexity(self, w, seed):
        gen = np.random.default_rng(seed)
        a, b = gen.normal(size=3), gen.normal(size=3)
        out = lerp(a, b, w)
        lo = np.minimum(a, b) - 1e-12
        hi = np.maximum(a, b) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)


class TestApplyMask:
    def test_extremes(self):
        a, b = np.array([1.0, 1.0]), np.array([3.0, 3.0])
        assert np.array_equal(apply_mask(a, b, np.ones(2)), a)
        assert np.array_equal(apply_mask(a, b, np.zeros(2)), b)

    def test_elementwise_splice(self):
        got = apply_mask(np.array([1.0, 1.0]), np.array([3.0, 3.0]),
                         np.array([1.0, 0.0]))
        assert got.tolist() == [1.0, 3.0]

    def test_signed_zeros_are_copied(self):
        got = apply_mask(np.array([-0.0, 2.0]), np.array([1.0, -0.0]), np.array([1.0, 0.0]))
        assert got.tobytes() == np.array([-0.0, -0.0]).tobytes()

    def test_soft_masks_rejected(self):
        with pytest.raises(ParameterError):
            validate_mask(np.array([0.5, 1.0]), 2)
        with pytest.raises(ParameterError):
            validate_mask(np.array([1.0, 0.0, 1.0]), 2)


class TestConfigValidation:
    TOTAL = 50

    def test_kind_aliases(self):
        assert normalize_kind(" Noise_Interp ") == "noise_interp"
        for shorthand in ("PNI", "cam", "xyz"):
            with pytest.raises(ParameterError):
                normalize_kind(shorthand)

    def test_guidance_requires_beta(self):
        with pytest.raises(ParameterError):
            ManipulationConfig("guidance", _spec(0, 50, 50))

    def test_beta_rejected_elsewhere(self):
        with pytest.raises(ParameterError):
            ManipulationConfig("noise_interp", _spec(0, 50, 50), beta=-0.5)

    def test_guidance_extrapolation_warns(self):
        with pytest.warns(UserWarning):
            ManipulationConfig("guidance", _spec(0, 50, 50), beta=0.5)
        with pytest.warns(UserWarning):
            ManipulationConfig("guidance", _spec(0, 50, 50), beta=-1.5)

    def test_masked_kinds_require_mask_and_constant_window(self):
        with pytest.raises(ParameterError):
            ManipulationConfig("noise_mask", _spec(0, 50, 50))
        with pytest.raises(ParameterError):
            ManipulationConfig("latent_mask", _spec(10, 50, 50, kind="cosine"),
                               mask=np.ones(2))
        with pytest.raises(ParameterError):
            ManipulationConfig("cond_interp", _spec(0, 50, 50), mask=np.ones(2))

    def test_attention_requires_known_hook(self):
        with pytest.raises(ParameterError):
            ManipulationConfig("attention", _spec(0, 50, 50))
        with pytest.raises(ParameterError):
            ManipulationConfig("attention", _spec(0, 50, 50), cam_hook="missing")
        assert {"identity", "replay"} <= set(cam_hook_names())


class ConditionSpy(CountingDenoiser):
    """Counts like ``CountingDenoiser`` and records whether each batch's conditions are writeable."""

    def __init__(self, inner):
        super().__init__(inner)
        self.writeable = []

    def predict_noise_batch(self, X, C, alpha_bar, t):
        self.writeable.append(C.flags.writeable)
        return super().predict_noise_batch(X, C, alpha_bar, t)


class TestRunEdit:
    def _ctx(self, demo):
        return (demo["denoiser"], demo["x_top"], demo["c_a"], demo["c_b"],
                demo["grid"], demo["schedule"])

    def test_no_configs_make_no_call(self, demo):
        den, x_top, c_a, c_b, grid, sched = self._ctx(demo)
        counting = CountingDenoiser(den)
        assert run_edits(counting, x_top, c_a, c_b, (), grid, sched, with_path_b=True) == ()
        assert counting.calls == 0

    def test_full_strength_noise_interp_replays_reference(self, demo):
        den, x_top, c_a, c_b, grid, sched = self._ctx(demo)
        t = grid.t_sample
        path_a = generate(den, x_top, c_a, grid, sched)
        res = run_edit(den, x_top, c_a, c_b,
                       ManipulationConfig("noise_interp", _spec(0, t, t, 1.0)),
                       grid, sched)
        assert all(np.array_equal(l, a) for l, a in zip(res.path.latents, path_a.latents))

    def test_zero_amplitude_is_plain_editing_path(self, demo):
        den, x_top, c_a, c_b, grid, sched = self._ctx(demo)
        t = grid.t_sample
        path_b = generate(den, x_top, c_b, grid, sched)
        res = run_edit(den, x_top, c_a, c_b,
                       ManipulationConfig("latent_interp", _spec(0, t, t, 0.0)),
                       grid, sched)
        assert all(np.array_equal(l, b) for l, b in zip(res.path.latents, path_b.latents))

    def test_weights_recorded_and_zero_outside_window(self, demo):
        den, x_top, c_a, c_b, grid, sched = self._ctx(demo)
        t = grid.t_sample
        spec = _spec(28, 48, t, 0.6)
        res = run_edit(den, x_top, c_a, c_b,
                       ManipulationConfig("noise_interp", spec), grid, sched)
        assert len(res.weights) == t
        for i, w in enumerate(res.weights):
            sampling_step = t - i
            assert w == omega(spec, sampling_step)
            if not 28 <= sampling_step <= 48:
                assert w == 0.0

    def test_window_exactness(self, demo):
        # steps with zero weight are bit-identical to plain editing-condition
        # denoising from the same latent
        den, x_top, c_a, c_b, grid, sched = self._ctx(demo)
        t = grid.t_sample
        res = run_edit(den, x_top, c_a, c_b,
                       ManipulationConfig("noise_interp", _spec(20, 40, t, 1.0)),
                       grid, sched)
        for i, w in enumerate(res.weights):
            if w != 0.0:
                continue
            a_t = sched.at(grid.steps[i])
            a_prev = sched.at((*grid.steps, 0)[i + 1])
            eps = den.predict_noise(res.path.latents[i], c_b, a_t, grid.steps[i])
            redo = ddim_step(res.path.latents[i], eps, a_t, a_prev)
            assert np.array_equal(redo, res.path.latents[i + 1])

    def test_latent_interp_follows_post_step_blend(self, demo):
        # hand-rolled loop: predict under c_b, step, then blend with the
        # reference latent after the step
        den, x_top, c_a, c_b, grid, sched = self._ctx(demo)
        t = grid.t_sample
        w_amp = 0.6
        spec = _spec(0, t, t, w_amp)
        res = run_edit(den, x_top, c_a, c_b,
                       ManipulationConfig("latent_interp", spec), grid, sched)
        path_a = generate(den, x_top, c_a, grid, sched)
        x = x_top.copy()
        for i in range(t):
            a_t = sched.at(grid.steps[i])
            a_prev = sched.at((*grid.steps, 0)[i + 1])
            eps_b = den.predict_noise(x, c_b, a_t, grid.steps[i])
            stepped = ddim_step(x, eps_b, a_t, a_prev)
            target = w_amp * path_a.latents[i + 1] + (1 - w_amp) * stepped
            assert np.allclose(res.path.latents[i + 1], target, rtol=1e-12, atol=1e-12)
            x = res.path.latents[i + 1]

    def test_edited_paths_replay(self, demo):
        den, x_top, c_a, c_b, grid, sched = self._ctx(demo)
        t = grid.t_sample
        configs = [
            ManipulationConfig("noise_interp", _spec(28, 48, t, 0.7)),
            ManipulationConfig("latent_interp", _spec(28, 48, t, 0.7)),
            ManipulationConfig("cond_interp", _spec(0, t, t, 0.5, kind="cosine")),
            ManipulationConfig("guidance", _spec(0, t, t, 1.0), beta=-0.4),
            ManipulationConfig("attention", _spec(10, t, t, 1.0), cam_hook="identity"),
            ManipulationConfig("noise_mask", _spec(28, 48, t, 1.0),
                               mask=np.array([1.0, 0.0])),
            ManipulationConfig("latent_mask", _spec(28, 48, t, 1.0),
                               mask=np.array([0.0, 1.0])),
        ]
        for config in configs:
            res = run_edit(den, x_top, c_a, c_b, config, grid, sched)
            assert res.path.replay_errors(sched).max() == 0.0, config.kind

    def test_guidance_equals_interpolation_inside_range(self, demo):
        den, x_top, c_a, c_b, grid, sched = self._ctx(demo)
        t = grid.t_sample
        beta = -0.35
        res_g = run_edit(den, x_top, c_a, c_b,
                         ManipulationConfig("guidance", _spec(0, t, t, 1.0), beta=beta),
                         grid, sched)
        # manual loop with the lerp(1 + beta) form
        x = x_top.copy()
        for i in range(t):
            a_t = sched.at(grid.steps[i])
            a_prev = sched.at((*grid.steps, 0)[i + 1])
            eps_a = den.predict_noise(x, c_a, a_t, grid.steps[i])
            eps_b = den.predict_noise(x, c_b, a_t, grid.steps[i])
            eps = (1 + beta) * eps_a + (-beta) * eps_b
            x = ddim_step(x, eps, a_t, a_prev)
            assert np.allclose(res_g.path.latents[i + 1], x, rtol=1e-12, atol=1e-14)
            x = res_g.path.latents[i + 1]

    def test_guidance_weight_is_a_gate(self, demo):
        # inside its window guidance predicts under c_a and c_b at any nonzero
        # weight: the weight switches the extrapolation on, beta sets it
        den, x_top, c_a, c_b, grid, sched = self._ctx(demo)
        t = grid.t_sample
        half, full = (run_edit(den, x_top, c_a, c_b,
                               ManipulationConfig("guidance", _spec(20, 50, t, amplitude),
                                                  beta=-0.3), grid, sched)
                      for amplitude in (0.5, 1.0))
        assert all(a.tobytes() == b.tobytes() for a, b in
                   zip(half.path.latents + half.path.noises,
                       full.path.latents + full.path.noises, strict=True))
        assert half.weights == tuple(w / 2 for w in full.weights) != full.weights

    def test_denoiser_gets_read_only_conditions(self, demo):
        den, x_top, c_a, c_b, grid, sched = self._ctx(demo)
        spy = ConditionSpy(den)
        configs = [preset_config(preset).build_manipulation() for preset in KIND_PRESETS.values()]
        run_edits(spy, x_top, c_a, c_b, configs, grid, sched, with_path_b=True)
        for config in configs:
            run_edit(spy, x_top, c_a, c_b, config, grid, sched)
        generate(spy, x_top, c_a, grid, sched, guidance=(2.0, demo["null"]))
        assert spy.writeable == [False] * (9 * 50)

    def test_replay_hook_tracks_reference_inside_window(self, demo):
        den, x_top, c_a, c_b, grid, sched = self._ctx(demo)
        t = grid.t_sample
        path_a = generate(den, x_top, c_a, grid, sched)
        res = run_edit(den, x_top, c_a, c_b,
                       ManipulationConfig("attention", _spec(0, t, t, 1.0),
                                          cam_hook="replay"),
                       grid, sched)
        assert all(np.array_equal(l, a) for l, a in zip(res.path.latents, path_a.latents))

    def test_custom_hook_registration(self, demo):
        den, x_top, c_a, c_b, grid, sched = self._ctx(demo)
        t = grid.t_sample
        seen = []

        def hook(ctx: CamContext):
            seen.append(ctx.sampling_step)
            return ctx.eps_ref

        register_cam_hook("test-ref-a", hook)
        try:
            res = run_edit(den, x_top, c_a, c_b,
                           ManipulationConfig("attention", _spec(30, t, t, 1.0),
                                              cam_hook="test-ref-a"),
                           grid, sched)
            assert seen == list(range(t, 29, -1))
            assert res.path.replay_errors(sched).max() == 0.0
        finally:
            from diffpath.config import _CAM_HOOKS
            _CAM_HOOKS.pop("test-ref-a")

    def test_hook_reads_the_rounds_predictions(self, demo, monkeypatch):
        # next to a guidance row, a hook sees at each weighted step the two
        # conditions' predictions at the reference latent, bit for bit
        den, x_top, c_a, c_b, grid, sched = self._ctx(demo)
        t = grid.t_sample
        from diffpath.config import _CAM_HOOKS
        seen = []

        def recording(ctx: CamContext):
            seen.append(ctx)
            return 0.5 * (ctx.eps_ref + ctx.eps_edit)

        monkeypatch.setitem(_CAM_HOOKS, "test-recording", recording)
        configs = [ManipulationConfig("attention", _spec(20, 45, t, 1.0),
                                      cam_hook="test-recording"),
                   ManipulationConfig("guidance", _spec(0, t, t, 1.0), beta=-0.5)]
        run_edits(den, x_top, c_a, c_b, configs, grid, sched)
        assert [ctx.sampling_step for ctx in seen] == list(range(45, 19, -1))
        for ctx in seen:
            for got, c in ((ctx.eps_ref, c_a), (ctx.eps_edit, c_b)):
                want = den.predict_noise(ctx.x_ref, c, ctx.alpha_bar, ctx.level)
                assert got.tobytes() == want.tobytes()

    def test_hook_named_by_three_rows_runs_once_per_weighted_step(self, demo, monkeypatch):
        den, x_top, c_a, c_b, grid, sched = self._ctx(demo)
        t = grid.t_sample
        from diffpath.config import _CAM_HOOKS
        seen = []

        def recording(ctx: CamContext):
            seen.append(ctx.sampling_step)
            return ctx.eps_edit

        monkeypatch.setitem(_CAM_HOOKS, "test-recording", recording)
        configs = [ManipulationConfig("attention", _spec(t_min, t_max, t, 1.0),
                                      cam_hook="test-recording")
                   for t_min, t_max in ((20, 45), (10, 30), (25, 40))]
        run_edits(den, x_top, c_a, c_b, configs, grid, sched)
        # the windows' union, sampling steps 45 down to 10, one call each
        assert seen == list(range(45, 9, -1))

    def test_two_hooks_in_one_step_give_their_rows_their_own_noise(self, demo, monkeypatch):
        den, x_top, c_a, c_b, grid, sched = self._ctx(demo)
        t = grid.t_sample
        from diffpath.config import _CAM_HOOKS
        monkeypatch.setitem(_CAM_HOOKS, "test-half",
                            lambda ctx: 0.5 * (ctx.eps_ref + ctx.eps_edit))
        configs = [ManipulationConfig("attention", _spec(t_min, t_max, t, 1.0), cam_hook=hook)
                   for hook, t_min, t_max in (("test-half", 10, 40), ("identity", 20, 45),
                                              ("test-half", 25, 35), ("replay", 15, 30))]
        together = run_edits(den, x_top, c_a, c_b, configs, grid, sched)
        for config, res in zip(configs, together):
            alone = run_edit(den, x_top, c_a, c_b, config, grid, sched)
            assert np.array(res.path.noises).tobytes() == np.array(alone.path.noises).tobytes()
            assert np.array(res.path.latents).tobytes() == np.array(alone.path.latents).tobytes()

    def test_generator_hook_is_a_wrong_shape(self, demo, monkeypatch):
        den, x_top, c_a, c_b, grid, sched = self._ctx(demo)
        from diffpath.config import _CAM_HOOKS

        def asking(ctx: CamContext):
            yield ctx.x_ref[None], (ctx.c_b,)

        monkeypatch.setitem(_CAM_HOOKS, "test-asking", asking)
        with pytest.raises(ParameterError, match="cam_hook 'test-asking' returned shape"):
            run_edit(den, x_top, c_a, c_b, ManipulationConfig(
                "attention", _spec(0, grid.t_sample, grid.t_sample, 1.0),
                cam_hook="test-asking"), grid, sched)

    def test_non_finite_hook_output_names_hook_and_step(self, demo, monkeypatch):
        den, x_top, c_a, c_b, grid, sched = self._ctx(demo)
        t = grid.t_sample
        from diffpath.config import _CAM_HOOKS
        monkeypatch.setitem(_CAM_HOOKS, "test-nan", lambda ctx: np.full(2, np.nan))
        with pytest.raises(DenoiserError, match="cam_hook 'test-nan'") as err:
            run_edit(den, x_top, c_a, c_b,
                     ManipulationConfig("attention", _spec(10, 50, t, 1.0),
                                        cam_hook="test-nan"),
                     grid, sched)
        assert err.value.sampling_step == 50
        assert err.value.training_step == grid.steps[0]

    def test_window_grid_mismatch(self, demo):
        den, x_top, c_a, c_b, grid, sched = self._ctx(demo)
        with pytest.raises(ParameterError):
            run_edit(den, x_top, c_a, c_b,
                     ManipulationConfig("noise_interp", _spec(0, 40, 40, 1.0)),
                     grid, sched)


@st.composite
def small_configs(draw):
    total = 8
    kind = draw(st.sampled_from(
        ["noise_interp", "noise_mask", "latent_interp", "latent_mask",
         "cond_interp", "guidance", "attention"]))
    if kind in ("noise_mask", "latent_mask"):
        sched_kind = "constant"
    else:
        sched_kind = draw(st.sampled_from(
            ["constant", "linear", "cosine", "exponential"]))
    t_min = draw(st.integers(0, total - 1))
    t_max = total if sched_kind != "constant" else draw(st.integers(t_min, total))
    amplitude = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    extra = {}
    if kind == "guidance":
        extra["beta"] = draw(st.sampled_from([-0.9, -0.5, -0.1, 0.0]))
    elif kind in ("noise_mask", "latent_mask"):
        extra["mask"] = np.array(draw(st.sampled_from(
            [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])))
    elif kind == "attention":
        extra["cam_hook"] = draw(st.sampled_from(["identity", "replay"]))
    return ManipulationConfig(kind, ScheduleSpec(sched_kind, t_min, t_max, total,
                                                 amplitude), **extra)


class TestEditProperties:
    @given(config=small_configs(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_weights_and_replay_for_random_configs(self, config, seed):
        from diffpath.config import RunConfig
        from diffpath.presets import demo_config_dict
        cfg = RunConfig.from_dict(demo_config_dict())
        den = cfg.build_denoiser()
        conds = cfg.build_conditions()
        sched = cfg.build_noise_schedule()
        grid = make_timestep_grid(1000, 8)
        gen = np.random.default_rng(seed)
        x_top = gen.normal(size=2)
        res = run_edit(den, x_top, conds["a"], conds["b"], config, grid, sched)
        t = grid.t_sample
        assert len(res.weights) == t
        for i, w in enumerate(res.weights):
            assert w == omega(config.schedule, t - i)
            assert 0.0 <= w <= config.schedule.amplitude
        assert res.path.replay_errors(sched).max() == 0.0
        assert len(res.path.latents) == t + 1


class TestWeightTable:
    @pytest.mark.parametrize("total", [1, 7, 50])
    def test_every_weight_has_omegas_bits(self, total):
        # constant rows are one array expression, the decaying kinds' omega's
        # math per step; every entry, at every kind, is omega's float bit for bit
        amplitudes = (0.0, 1 / 3, 0.6, 1.0, 1)
        specs = [_spec(lo, hi, total, amp) for lo in range(total + 1)
                 for hi in range(lo, total + 1) for amp in amplitudes]
        specs += [_spec(lo, total, total, amp, kind) for lo in range(total)
                  for kind in ("linear", "cosine", "exponential") for amp in amplitudes]
        configs = [ManipulationConfig("noise_interp", spec) for spec in specs]
        table = edits._weight_table(configs, total)
        assert table.shape == (len(specs), total) and table.dtype == np.float64
        for spec, row in zip(specs, table.tolist()):
            assert [w.hex() for w in row] == [float(omega(spec, total - i)).hex()
                                              for i in range(total)], spec

    def test_constant_schedules_make_no_omega_calls(self, demo, monkeypatch):
        # a sweep's windows are constant: its weights take no per-step call
        calls = []
        monkeypatch.setattr(edits, "omega", lambda spec, t: calls.append(spec) or omega(spec, t))
        t = demo["grid"].t_sample
        x_top, c_a, c_b = np.array([0.3, -0.2]), demo["c_a"], demo["c_b"]
        configs = [ManipulationConfig("cond_interp", _spec(20, hi, t, 0.5)) for hi in (30, 40)]
        run_edits(demo["denoiser"], x_top, c_a, c_b, configs, demo["grid"], demo["schedule"])
        assert calls == []
        configs.append(ManipulationConfig("cond_interp", _spec(20, t, t, 0.5, "cosine")))
        run_edits(demo["denoiser"], x_top, c_a, c_b, configs, demo["grid"], demo["schedule"])
        assert calls == [configs[-1].schedule] * t


class TestPromptSwitch:
    def test_range_validated(self, demo):
        with pytest.raises(ParameterError):
            prompt_switch(demo["denoiser"], demo["x_top"], demo["c_a"], demo["c_b"],
                          demo["grid"].t_sample + 1, demo["grid"], demo["schedule"])

    def test_extremes(self, demo):
        den, grid, sched = demo["denoiser"], demo["grid"], demo["schedule"]
        t = grid.t_sample
        pure_a = generate(den, demo["x_top"], demo["c_a"], grid, sched)
        pure_b = generate(den, demo["x_top"], demo["c_b"], grid, sched)
        all_a = prompt_switch(den, demo["x_top"], demo["c_a"], demo["c_b"], t, grid, sched)
        all_b = prompt_switch(den, demo["x_top"], demo["c_a"], demo["c_b"], 0, grid, sched)
        assert np.array_equal(all_a.x0, pure_a.x0)
        assert np.array_equal(all_b.x0, pure_b.x0)

    def test_no_switch_points_make_no_call(self, demo):
        counting = CountingDenoiser(demo["denoiser"])
        assert prompt_switches(counting, demo["x_top"], demo["c_a"], demo["c_b"], (),
                               demo["grid"], demo["schedule"]) == ()
        assert counting.calls == 0

    def test_switch_points_together_equal_one_at_a_time(self, demo):
        den, grid, sched = demo["denoiser"], demo["grid"], demo["schedule"]
        args = (demo["x_top"], demo["c_a"], demo["c_b"])
        ks = range(grid.t_sample, -1, -1)
        for k, path in zip(ks, prompt_switches(den, *args, ks, grid, sched), strict=True):
            alone = prompt_switch(den, *args, k, grid, sched)
            assert np.array_equal(path.condition, alone.condition)
            assert all(a.tobytes() == b.tobytes() for a, b in
                       zip(path.latents + path.noises, alone.latents + alone.noises))

    def test_equivalence_with_condition_interpolation(self, demo):
        den, grid, sched = demo["denoiser"], demo["grid"], demo["schedule"]
        t = grid.t_sample
        k = 20
        switched = prompt_switch(den, demo["x_top"], demo["c_a"], demo["c_b"],
                                 k, grid, sched)
        res = run_edit(den, demo["x_top"], demo["c_a"], demo["c_b"],
                       ManipulationConfig("cond_interp", _spec(t - k + 1, t, t, 1.0)),
                       grid, sched)
        assert all(np.array_equal(x, y)
                   for x, y in zip(switched.latents, res.path.latents))
