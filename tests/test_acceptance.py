"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else.
"""

import contextlib
import json
import sys
import warnings

import numpy as np
import pytest

from diffpath.config import RunConfig, canonical_json
from diffpath.denoiser import ConditionEmbedding, GMMDenoiser, GMMDenoiserParams
from diffpath.edits import ManipulationConfig, lerp, prompt_switch, run_edit
from diffpath.metrics import (SweepScenario, inversion_report, run_sweep,
                              score_edit)
from diffpath.output import sweep_table_csv
from diffpath.presets import demo_config_dict
from diffpath.remote import RemoteDenoiser
from diffpath.rng import standard_normals, substream
from diffpath.sampler import cfg_combine, ddim_invert, generate, null_text_invert
from diffpath.schedule import ScheduleSpec, omega
from conftest import single_gaussian
from mc_oracle import mc_predict_noise

SEED = 20240


@contextlib.contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL {label}")
        raise
    print(f"[criterion {num:02d}] PASS {label}")


def _rel_path_errors(path, reference):
    return [np.linalg.norm(l - r) / max(np.linalg.norm(r), 1e-300)
            for l, r in zip(path.latents, reference.latents)]


def _full(t, amplitude=1.0):
    return ScheduleSpec("constant", 0, t, t, amplitude)


def test_criterion_01_identity_reproduction(demo):
    with criterion(1, "identity reproduction at schedule extremes"):
        den, x_top = demo["denoiser"], demo["x_top"]
        grid, sched = demo["grid"], demo["schedule"]
        c_a, c_b = demo["c_a"], demo["c_b"]
        t = grid.t_sample
        path_a = generate(den, x_top, c_a, grid, sched)
        path_b = generate(den, x_top, c_b, grid, sched)

        for kind in ("noise_interp", "latent_interp", "cond_interp"):
            res = run_edit(den, x_top, c_a, c_b,
                           ManipulationConfig(kind, _full(t, 1.0)), grid, sched)
            assert max(_rel_path_errors(res.path, path_a)) <= 1e-9, kind

        zero_kinds = [("noise_interp", {}), ("latent_interp", {}), ("cond_interp", {}),
                      ("guidance", {"beta": -0.3}),
                      ("attention", {"cam_hook": "identity"}),
                      ("noise_mask", {"mask": np.array([1.0, 0.0])}),
                      ("latent_mask", {"mask": np.array([1.0, 0.0])})]
        for kind, extra in zero_kinds:
            res = run_edit(den, x_top, c_a, c_b,
                           ManipulationConfig(kind, _full(t, 0.0), **extra),
                           grid, sched)
            assert max(_rel_path_errors(res.path, path_b)) <= 1e-9, kind

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_edit(den, x_top, c_a, c_b,
                           ManipulationConfig("guidance", _full(t), beta=-1.0),
                           grid, sched)
        assert max(_rel_path_errors(res.path, path_b)) <= 1e-9

        res = run_edit(den, x_top, c_a, c_b,
                       ManipulationConfig("guidance", _full(t), beta=0.0),
                       grid, sched)
        assert max(_rel_path_errors(res.path, path_a)) <= 1e-9


def test_criterion_02_guidance_lerp_equivalence():
    with criterion(2, "guidance form agrees with interpolation at 1e-12"):
        gen = np.random.Generator(np.random.Philox(key=SEED))
        for beta in (-0.9, -0.5, -0.1):
            for _ in range(100):
                a = gen.normal(size=4)
                b = gen.normal(size=4)
                direct = cfg_combine(a, b, beta)
                via_lerp = lerp(a, b, 1.0 + beta)
                assert np.max(np.abs(direct - via_lerp)) <= 1e-12


def test_criterion_03_mask_extremes_bitwise(demo):
    with criterion(3, "all-ones/all-zeros masks match weight extremes bit-for-bit"):
        den, x_top = demo["denoiser"], demo["x_top"]
        grid, sched = demo["grid"], demo["schedule"]
        t = grid.t_sample
        window = ScheduleSpec("constant", 28, 48, t, 1.0)
        window0 = ScheduleSpec("constant", 28, 48, t, 0.0)
        pairs = [("noise_mask", "noise_interp"), ("latent_mask", "latent_interp")]
        for masked_kind, interp_kind in pairs:
            for mask, spec in ((np.ones(2), window), (np.zeros(2), window0)):
                masked = run_edit(den, x_top, demo["c_a"], demo["c_b"],
                                  ManipulationConfig(masked_kind, window, mask=mask),
                                  grid, sched)
                interp = run_edit(den, x_top, demo["c_a"], demo["c_b"],
                                  ManipulationConfig(interp_kind, spec), grid, sched)
                assert all(np.array_equal(x, y) for x, y in
                           zip(masked.path.latents, interp.path.latents))
                assert all(np.array_equal(x, y) for x, y in
                           zip(masked.path.noises, interp.path.noises))


def test_criterion_04_schedule_formulas():
    with criterion(4, "weight-schedule closed forms at window points"):
        import math
        total, t_min, t_max = 50, 30, 50
        amp = 1.0
        mid = (t_min + total) // 2
        spec_c = ScheduleSpec("constant", t_min, 45, total, amp)
        for t, expect in ((t_min, 1.0), ((t_min + 45) // 2, 1.0), (45, 1.0),
                          (t_min - 1, 0.0), (46, 0.0), (total, 0.0)):
            assert abs(omega(spec_c, t) - expect) <= 1e-12
        # constant support is exactly the closed window
        assert [t for t in range(total + 1) if omega(spec_c, t) > 0] \
            == list(range(t_min, 46))

        spec_l = ScheduleSpec("linear", t_min, t_max, total, amp)
        for t in (t_min, mid, total):
            expect = (t - t_min) / (total - t_min)
            assert abs(omega(spec_l, t) - expect) <= 1e-12

        spec_cos = ScheduleSpec("cosine", t_min, t_max, total, amp)
        for t in (t_min, mid, total):
            expect = math.cos(0.5 * math.pi * (total - t) / (total - t_min))
            assert abs(omega(spec_cos, t) - expect) <= 1e-12

        spec_e = ScheduleSpec("exponential", t_min, t_max, total, amp)
        for t in (t_min, mid, total):
            expect = math.exp(-5.0 * (total - t) / (total - t_min))
            assert abs(omega(spec_e, t) - expect) <= 1e-12


def test_criterion_05_oracle_vs_monte_carlo(demo):
    with criterion(5, "analytic noise prediction vs 200k-sample Monte Carlo"):
        params = demo["params"]
        gen = np.random.Generator(np.random.Philox(key=SEED + 5))
        for point in range(10):
            a = gen.uniform(0.05, 0.8)
            c = ConditionEmbedding(gen.normal(size=2))
            mus = params.component_means(c)
            k = gen.choice(params.k, p=params.weights)
            x0 = mus[k] + np.sqrt(params.variances[k]) * gen.normal(size=2)
            x = np.sqrt(a) * x0 + np.sqrt(1 - a) * gen.normal(size=2)
            from diffpath.denoiser import predict_noise
            exact = predict_noise(params, x, c, a)
            approx = mc_predict_noise(params, x, c, a, 200_000, gen)
            # relative with a unit floor: eps is a unit-scale quantity and the
            # MC reference carries O(1/sqrt(ESS)) absolute noise
            err = np.linalg.norm(exact - approx) / max(np.linalg.norm(exact), 1.0)
            assert err <= 0.02, f"point {point}: {err:.4%}"

        # degenerate and symmetric cases are exact
        from diffpath.denoiser import gmm_posterior_mean
        point_mass = single_gaussian(base_mean=(0.7, -0.4),
                                     cond_map=((0, 0), (0, 0)), variance=0.0)
        got = gmm_posterior_mean(point_mass.params, np.array([9.0, 9.0]),
                                 demo["c_a"], 0.5)
        assert np.array_equal(got, np.array([0.7, -0.4]))
        sym = GMMDenoiserParams(
            weights=np.array([0.5, 0.5]),
            base_means=np.array([[1.0, 0.5], [-1.0, -0.5]]),
            condition_maps=np.zeros((2, 2, 2)),
            variances=np.array([0.3, 0.3]))
        got = gmm_posterior_mean(sym, np.zeros(2), demo["c_a"], 0.6)
        assert np.allclose(got, 0.0, atol=1e-14)


def test_criterion_06_round_trip_inversion(demo):
    with criterion(6, "invert-then-generate error bounded and non-increasing"):
        rows = inversion_report(demo["denoiser"], demo["c_a"], demo["schedule"],
                                (50, 100, 200), samples=16, seed=SEED)
        assert rows[0].t_sample == 50
        assert rows[0].mean_rel_error <= 5e-2
        means = [r.mean_rel_error for r in rows]
        assert means[0] >= means[1] >= means[2]


def test_criterion_07_null_text_inversion(demo):
    with criterion(7, "optimized null embeddings beat the fixed-null baseline"):
        den, grid, sched = demo["denoiser"], demo["grid"], demo["schedule"]
        c, null0 = demo["c_a"], demo["null"]
        beta = 2.0
        x0s = den.sample_clean(c, 4, substream(SEED, "acceptance", "null-text"))
        for x0 in x0s:
            inv = ddim_invert(den, x0, c, grid, sched)
            baseline = generate(den, inv.x_top, c, grid, sched,
                                guidance=(beta, null0))
            res = null_text_invert(den, x0, c, beta, grid, sched)
            tuned = generate(den, inv.x_top, c, grid, sched,
                             guidance=(beta, res.embeddings))
            base_err = np.linalg.norm(baseline.x0 - x0) / np.linalg.norm(x0)
            opt_err = np.linalg.norm(tuned.x0 - x0) / np.linalg.norm(x0)
            assert opt_err <= base_err
            assert opt_err < base_err  # strict improvement on every sample

        res0 = null_text_invert(den, x0s[0], c, 0.0, grid, sched)
        assert all(np.array_equal(e.values, null0.values) for e in res0.embeddings)


def test_criterion_08_affine_linearity(demo, affine_denoiser):
    with criterion(8, "layout distance linear in the blend weight (affine case)"):
        grid, sched = demo["grid"], demo["schedule"]
        t = grid.t_sample
        x_top = demo["x_top"]
        path_a = generate(affine_denoiser, x_top, demo["c_a"], grid, sched)
        path_b = generate(affine_denoiser, x_top, demo["c_b"], grid, sched)
        for amplitude in (0.0, 0.25, 0.5, 0.75, 1.0):
            res = run_edit(affine_denoiser, x_top, demo["c_a"], demo["c_b"],
                           ManipulationConfig("noise_interp", _full(t, amplitude)),
                           grid, sched, path_a=path_a, path_b=path_b)
            metrics = score_edit(res, path_b, affine_denoiser.params)
            expect = (1.0 - amplitude) * metrics.ab_gap
            assert abs(metrics.layout_preservation - expect) <= 1e-9 * metrics.ab_gap


def test_criterion_09_prompt_switch(demo):
    with criterion(9, "condition-switch extremes and interpolation equivalence"):
        den, x_top = demo["denoiser"], demo["x_top"]
        grid, sched = demo["grid"], demo["schedule"]
        c_a, c_b = demo["c_a"], demo["c_b"]
        t = grid.t_sample
        pure_a = generate(den, x_top, c_a, grid, sched)
        pure_b = generate(den, x_top, c_b, grid, sched)
        assert np.array_equal(
            prompt_switch(den, x_top, c_a, c_b, t, grid, sched).x0, pure_a.x0)
        assert np.array_equal(
            prompt_switch(den, x_top, c_a, c_b, 0, grid, sched).x0, pure_b.x0)
        k = 20
        switched = prompt_switch(den, x_top, c_a, c_b, k, grid, sched)
        equivalent = run_edit(den, x_top, c_a, c_b,
                              ManipulationConfig(
                                  "cond_interp",
                                  ScheduleSpec("constant", t - k + 1, t, t, 1.0)),
                              grid, sched)
        assert all(np.array_equal(x, y)
                   for x, y in zip(switched.latents, equivalent.path.latents))


def test_criterion_10_determinism_and_protocol(demo, tmp_path):
    with criterion(10, "seeded runs byte-stable; loopback equals in-process"):
        t = demo["grid"].t_sample
        scenario = SweepScenario(
            denoiser=demo["denoiser"], score_params=demo["params"],
            c_a=demo["c_a"], c_b=demo["c_b"], grid=demo["grid"],
            noise_schedule=demo["schedule"],
            base=ManipulationConfig("noise_interp",
                                    ScheduleSpec("constant", 28, 48, t, 1.0)))
        axes = {"t_max": (50, 48, 46), "t_m": (5, 15)}
        csv_a = sweep_table_csv(run_sweep(scenario, axes, seed=SEED))
        csv_b = sweep_table_csv(run_sweep(scenario, axes, seed=SEED))
        assert csv_a.encode() == csv_b.encode()

        config_path = tmp_path / "config.json"
        config_path.write_text(canonical_json(RunConfig.from_dict(demo_config_dict())))
        config = ManipulationConfig("noise_interp",
                                    ScheduleSpec("constant", 28, 48, t, 0.7))
        local = run_edit(demo["denoiser"], demo["x_top"], demo["c_a"], demo["c_b"],
                         config, demo["grid"], demo["schedule"])
        with RemoteDenoiser.from_command(
                [sys.executable, "-m", "diffpath.cli", "serve",
                 "--config", str(config_path)], d=2, m=2, timeout=30.0) as remote:
            over_wire = run_edit(remote, demo["x_top"], demo["c_a"], demo["c_b"],
                                 config, demo["grid"], demo["schedule"])
        assert all(np.array_equal(a, b)
                   for a, b in zip(local.path.latents, over_wire.path.latents))
        assert all(np.array_equal(a, b)
                   for a, b in zip(local.path.noises, over_wire.path.noises))
