import hashlib
import itertools
import subprocess
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from diffpath.config import ManipulationConfig
from diffpath.denoiser import ConditionEmbedding
from diffpath.edits import run_edit
from diffpath.errors import DenoiserError, ParameterError
from diffpath.metrics import (EditMetrics, derive_config, inversion_report, run_sweep,
                              score_edit, sweep_digest)
from diffpath.output import SWEEP_CSV_HEADER, sweep_table_csv
from diffpath.presets import EDIT_PRESETS
from diffpath.rng import standard_normals, substream
from diffpath.schedule import ScheduleSpec, make_timestep_grid

from conftest import (WINDOW_AXES, NanRowDenoiser, PerRowDenoiser, preset_config,
                      single_gaussian)

#: the axes of the schedule-grid and guidance-grid demos
SCHEDULE_GRID_AXES = {"schedule": ("linear", "cosine", "exponential"),
                      "t_m": (20, 25, 30, 35, 40, 45, 50)}
GUIDANCE_GRID_AXES = {"beta": (0.7, 0.3, 0.0, -0.3, -0.7), "t_m": (10, 20, 30, 40, 50)}


def _config(demo, seed, base=None):
    """The demo config with ``seed``, sweeping around ``base`` (a noise_interp window)."""
    t = demo["grid"].t_sample
    if base is None:
        base = ManipulationConfig("noise_interp",
                                  ScheduleSpec("constant", 28, 48, t, 1.0))
    return replace(demo["cfg"], seed=seed, manipulation=base)


class TestEditMetrics:
    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            EditMetrics(layout_preservation=np.inf, semantic_alignment=1.0, ab_gap=1.0)
        with pytest.raises(ParameterError):
            EditMetrics(layout_preservation=-0.5, semantic_alignment=1.0, ab_gap=1.0)


class TestScoreEdit:
    def test_full_strength_gives_zero_layout_distance(self, demo):
        t = demo["grid"].t_sample
        res = run_edit(demo["denoiser"], demo["x_top"], demo["c_a"], demo["c_b"],
                       ManipulationConfig("noise_interp",
                                          ScheduleSpec("constant", 0, t, t, 1.0)),
                       demo["grid"], demo["schedule"], with_path_b=True)
        m = score_edit(res, demo["params"])
        assert m.layout_preservation == 0.0
        assert m.ab_gap > 0.0
        assert np.isfinite(m.semantic_alignment) and m.semantic_alignment >= 0.0

    def test_zero_amplitude_layout_equals_gap(self, demo):
        t = demo["grid"].t_sample
        res = run_edit(demo["denoiser"], demo["x_top"], demo["c_a"], demo["c_b"],
                       ManipulationConfig("noise_interp",
                                          ScheduleSpec("constant", 0, t, t, 0.0)),
                       demo["grid"], demo["schedule"], with_path_b=True)
        m = score_edit(res, demo["params"])
        assert m.layout_preservation == m.ab_gap

    def test_affine_midpoint(self, demo, affine_denoiser):
        t = demo["grid"].t_sample
        res = run_edit(affine_denoiser, demo["x_top"], demo["c_a"], demo["c_b"],
                       ManipulationConfig("noise_interp",
                                          ScheduleSpec("constant", 0, t, t, 0.5)),
                       demo["grid"], demo["schedule"], with_path_b=True)
        m = score_edit(res, affine_denoiser.params)
        assert m.layout_preservation == pytest.approx(0.5 * m.ab_gap, rel=1e-9)

    def test_result_without_editing_path_rejected(self, demo):
        t = demo["grid"].t_sample
        res = run_edit(demo["denoiser"], demo["x_top"], demo["c_a"], demo["c_b"],
                       ManipulationConfig("latent_interp",
                                          ScheduleSpec("constant", 0, t, t, 1.0)),
                       demo["grid"], demo["schedule"])
        assert res.path_b is None
        with pytest.raises(ParameterError, match="with_path_b"):
            score_edit(res, demo["params"])

    def test_endpoints_too_far_apart_name_the_metric(self, demo):
        far = ConditionEmbedding(np.array([1e200, 0.0]))
        t = demo["grid"].t_sample
        res = run_edit(demo["denoiser"], demo["x_top"], far, demo["c_b"],
                       ManipulationConfig("noise_interp", ScheduleSpec("constant", 28, 48, t)),
                       demo["grid"], demo["schedule"], with_path_b=True)
        with pytest.raises(ParameterError, match="^layout_preservation exceeds the float range"):
            score_edit(res, demo["params"])


class TestDeriveConfig:
    BASE = ManipulationConfig("noise_interp", ScheduleSpec("constant", 28, 48, 50, 1.0))

    def test_window_length_preserved_when_moving_top(self):
        cfg = derive_config(self.BASE, {"t_max": 44})
        assert cfg.schedule.t_max == 44 and cfg.schedule.t_min == 24

    def test_t_m_sets_length(self):
        cfg = derive_config(self.BASE, {"t_max": 46, "t_m": 10})
        assert (cfg.schedule.t_max, cfg.schedule.t_min) == (46, 36)

    def test_t_min_sets_the_window_bottom(self):
        cfg = derive_config(self.BASE, {"t_min": 10})
        assert (cfg.schedule.t_max, cfg.schedule.t_min) == (48, 10)

    def test_decaying_kind_pins_top(self):
        cfg = derive_config(self.BASE, {"schedule": "cosine", "t_m": 30})
        assert cfg.schedule.kind == "cosine"
        assert cfg.schedule.t_max == 50 and cfg.schedule.t_min == 20

    def test_conflicting_window_axes(self):
        with pytest.raises(ParameterError):
            derive_config(self.BASE, {"t_min": 5, "t_m": 10})

    def test_unknown_axis(self):
        with pytest.raises(ParameterError):
            derive_config(self.BASE, {"breadth": 3})


class TestRunSweep:
    def test_grid_shape_and_order(self, demo):
        rows = run_sweep(demo["denoiser"], _config(demo, demo["cfg"].seed),
                         {"t_max": (50, 48, 46, 44, 42), "t_m": (5, 10, 15, 20, 25)})
        assert len(rows) == 25
        keys = [(r.schedule.t_max, r.schedule.t_max - r.schedule.t_min) for r, _ in rows]
        assert keys == sorted(keys)
        assert all(r.kind == "noise_interp" for r, _ in rows)

    def test_single_point_equals_direct_call(self, demo):
        seed = demo["cfg"].seed
        rows = run_sweep(demo["denoiser"], _config(demo, seed), {"weight": (0.4,)})
        assert len(rows) == 1
        t = demo["grid"].t_sample
        x_top = standard_normals(substream(seed, "sweep", "x_top"), 2)
        config = ManipulationConfig("noise_interp",
                                    ScheduleSpec("constant", 28, 48, t, 0.4))
        res = run_edit(demo["denoiser"], x_top, demo["c_a"], demo["c_b"], config,
                       demo["grid"], demo["schedule"], with_path_b=True)
        direct = score_edit(res, demo["params"])
        _, scores = rows[0]
        assert scores.layout_preservation == direct.layout_preservation
        assert scores.semantic_alignment == direct.semantic_alignment
        assert scores.ab_gap == direct.ab_gap

    def test_repeat_runs_are_byte_identical(self, demo):
        axes = {"t_max": (50, 46), "t_m": (5, 15)}
        t1 = run_sweep(demo["denoiser"], _config(demo, 11), axes)
        t2 = run_sweep(demo["denoiser"], _config(demo, 11), axes)
        assert sweep_table_csv(t1, 11) == sweep_table_csv(t2, 11)
        base = _config(demo, 11).manipulation
        assert sweep_digest(axes, base, 11) == sweep_digest(axes, base, 11) \
            != sweep_digest(axes, base, 12)

    def test_digest_sees_every_mask_entry(self, demo):
        # numpy's repr of a 2000-entry vector elides the middle, so these two
        # masks print alike; the digest must still tell them apart
        d, t = 2000, 2
        masks = [np.zeros(d), np.zeros(d)]
        masks[1][d // 2] = 1.0
        assert repr(masks[0]) == repr(masks[1])
        digests = {sweep_digest({"weight": (1.0,)}, ManipulationConfig(
            "noise_mask", ScheduleSpec("constant", 0, t, t, 1.0), mask=mask), seed=3)
            for mask in masks}
        assert len(digests) == 2

    def test_csv_contract(self, demo):
        text = sweep_table_csv(run_sweep(demo["denoiser"], _config(demo, 3),
                                         {"weight": (0.0, 1.0)}), 3)
        lines = text.strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert lines[0] == ("kind,schedule,t_max,t_min,weight,beta,seed,"
                            "layout_preservation,semantic_alignment,ab_gap")
        assert len(lines) == 3
        # beta column empty for non-guidance kinds
        assert all(line.split(",")[5] == "" for line in lines[1:])

    def test_beta_axis_with_guidance(self, demo):
        t = demo["grid"].t_sample
        base = ManipulationConfig("guidance",
                                  ScheduleSpec("constant", 0, t, t, 1.0), beta=-0.3)
        rows = run_sweep(demo["denoiser"], _config(demo, 5, base), {"beta": (-0.7, -0.3)})
        assert [r.beta for r, _ in rows] == [-0.7, -0.3]
        text = sweep_table_csv(rows, 5)
        assert "-0.69999999999999996" in text  # 17 significant digits

    @pytest.mark.filterwarnings("ignore:guidance beta")
    @pytest.mark.parametrize("preset, axes", [
        *(pytest.param(preset, WINDOW_AXES, id=f"{preset}-window")
          for preset in sorted(EDIT_PRESETS)),
        pytest.param("noise-interp-local", SCHEDULE_GRID_AXES, id="schedule-grid"),
        pytest.param("guidance-default", GUIDANCE_GRID_AXES, id="guidance-grid")])
    def test_batched_sweep_equals_per_row_sweep(self, demo, preset, axes):
        config = preset_config(preset)
        batched = run_sweep(demo["denoiser"], config, axes)
        per_row = PerRowDenoiser(demo["denoiser"])
        assert sweep_table_csv(batched, config.seed) == sweep_table_csv(
            run_sweep(per_row, config, axes), config.seed)
        # the reference: one run_edit per grid point, one prediction per call
        x_top = standard_normals(substream(config.seed, "sweep", "x_top"), 2)
        conds = config.build_conditions()
        edit_by_edit = []
        for combo in sorted(itertools.product(*axes.values())):
            manip = derive_config(config.build_manipulation(), dict(zip(axes, combo)))
            result = run_edit(per_row, x_top, conds[config.condition_a],
                              conds[config.condition_b], manip, config.grid,
                              config.noise_schedule, with_path_b=True)
            edit_by_edit.append((manip, score_edit(result, config.model)))
        assert sweep_table_csv(batched, config.seed) == sweep_table_csv(edit_by_edit,
                                                                        config.seed)

    def test_bad_row_in_a_batched_step_names_the_step(self, demo):
        # row 5 of the edits' batch at sampling step 20 comes back as NaN
        den = NanRowDenoiser(demo["denoiser"], demo["grid"].steps[50 - 20], row=5)
        with pytest.raises(DenoiserError, match=r"non-finite noise \(sampling step 20,") \
                as err:
            run_sweep(den, demo["cfg"], WINDOW_AXES)
        assert err.value.sampling_step == 20

    def test_empty_axis_rejected(self, demo):
        with pytest.raises(ParameterError):
            run_sweep(demo["denoiser"], _config(demo, 1), {"t_max": ()})


class TestInversionReport:
    def test_constant_predictor_is_exact(self):
        den = single_gaussian(base_mean=(0.7, -0.4),
                              cond_map=((0.0, 0.0), (0.0, 0.0)), variance=0.0)
        from diffpath.schedule import build_linear_beta_schedule
        sched = build_linear_beta_schedule(1000, 1e-4, 0.02)
        c = ConditionEmbedding(np.array([1.0, 0.25]))
        rows = inversion_report(den, c, sched, (50,), samples=3, seed=9)
        assert rows[0].max_rel_error <= 1e-9

    def test_error_decreases_with_resolution(self, demo):
        rows = inversion_report(demo["denoiser"], demo["c_a"], demo["schedule"],
                                (50, 100, 200), samples=6, seed=demo["cfg"].seed)
        means = [r.mean_rel_error for r in rows]
        assert means[0] >= means[1] >= means[2]

    def test_single_sample_reproducible(self, demo):
        r1 = inversion_report(demo["denoiser"], demo["c_a"], demo["schedule"],
                              (50,), samples=1, seed=4)
        r2 = inversion_report(demo["denoiser"], demo["c_a"], demo["schedule"],
                              (50,), samples=1, seed=4)
        assert r1 == r2

    def test_sample_count_validated(self, demo):
        with pytest.raises(ParameterError):
            inversion_report(demo["denoiser"], demo["c_a"], demo["schedule"],
                             (50,), samples=0, seed=1)


class _StubIntegers:
    """Generator stand-in whose ``integers`` draws come from ``draw``."""

    def __init__(self, draw):
        self.integers = draw


class TestRng:
    def test_substream_determinism_and_independence(self):
        a1 = substream(7, "x").random(4)
        a2 = substream(7, "x").random(4)
        b = substream(7, "y").random(4)
        c = substream(8, "x").random(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
        assert not np.array_equal(a1, c)

    def test_standard_normals_shape_and_determinism(self):
        g1 = standard_normals(substream(1, "n"), (3, 2))
        g2 = standard_normals(substream(1, "n"), (3, 2))
        assert g1.shape == (3, 2)
        assert np.array_equal(g1, g2)
        assert np.all(np.isfinite(g1))

    @pytest.mark.parametrize("pick", [lambda lo, hi: hi - 1, lambda lo, hi: lo],
                             ids=["top", "bottom"])
    def test_standard_normals_finite_at_grid_extremes(self, pick):
        gen = _StubIntegers(lambda lo, hi, size: np.full(size, pick(lo, hi)))
        z = standard_normals(gen, (2, 3))
        assert z.shape == (2, 3)
        assert np.all(np.isfinite(z))

    def test_standard_normals_match_high_precision_quantile(self):
        js = [int(j) for j in np.random.default_rng(2024).integers(0, 1 << 53, 2000)]
        js += [0, (1 << 53) - 1, 1 << 52]  # both extreme uniforms and u = 0.5
        z = standard_normals(_StubIntegers(lambda lo, hi, size: np.array(js)), len(js))
        with mpmath.workdps(40):
            for j, value in zip(js, z.tolist()):
                # the uniform the docstring promises, rounded and capped below 1
                u = min((j + 0.5) * 2.0**-53, 1.0 - 2.0**-53)
                q = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(u) - 1)
                assert abs(value - q) <= 2e-15 * max(1, abs(q)), (j, value, q)
        assert z[-1] == 0.0

    def test_stream_and_digest_bytes_are_pinned_where_first_loaded(self):
        # a fresh interpreter: the first draw loads statistics, the first hash hashlib
        probe = ("import sys\n"
                 "from diffpath.config import RunConfig, config_digest\n"
                 "from diffpath.presets import demo_config_dict\n"
                 "from diffpath.rng import standard_normals, substream\n"
                 "assert not {'statistics', 'hashlib'} & set(sys.modules)\n"
                 "z = standard_normals(substream(20231117, 'x_top', 3), (64, 2))\n"
                 "print(z.tobytes().hex())\n"
                 "print(substream(5, 'sweep', 0).integers(0, 1 << 63, size=8).tobytes().hex())\n"
                 "print(config_digest(RunConfig.from_dict(demo_config_dict())))\n")
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        normals, draws, digest = result.stdout.split()
        assert hashlib.sha256(bytes.fromhex(normals)).hexdigest() == \
            "ab3a945b3dc8354969b26e98199940d83aa7e06e9f85a4d1e2f8595301be9af4"
        assert hashlib.sha256(bytes.fromhex(draws)).hexdigest() == \
            "b8b4068903f563e245093fd0781a5b1c7bbe769e42fa6008e2daf7e80cfa34ad"
        assert digest == "0ee8652ad6b1"  # test_config.py's pin for the demo config

    def test_normals_roughly_standard(self):
        g = standard_normals(substream(2, "big"), 200_000)
        assert abs(g.mean()) < 0.01
        assert abs(g.std() - 1.0) < 0.01
