import hashlib
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diffpath.config import KINDS
from diffpath.denoiser import Denoiser, GMMDenoiser, GMMDenoiserParams
from diffpath.edits import prompt_switch, prompt_switches, run_edit, run_edits
from diffpath.errors import DenoiserError, ParameterError
from diffpath.sampler import (GENERATION, INVERSION, PathRecord, cfg_combine,
                              ddim_invert, effective_noise, generate, null_text_invert)
from diffpath.schedule import (AlphaSchedule, TimestepGrid, build_linear_beta_schedule,
                               make_timestep_grid)

from conftest import PerRowDenoiser, preset_config, single_gaussian
from references import ddim_step, f_theta
from test_call_counts import CountingDenoiser
from test_lockstep import models


class TestFTheta:
    def test_zero_noise_rescales(self):
        x = np.array([2.0, -1.0])
        assert np.allclose(f_theta(x, np.zeros(2), 0.25), x / 0.5, rtol=1e-15)

    def test_clean_level_is_identity(self):
        x = np.array([0.3, 0.4])
        assert np.array_equal(f_theta(x, np.array([5.0, -5.0]), 1.0), x)

    def test_scalar_value(self):
        # independent evaluation: (1 - sqrt(0.36)*0.5) / sqrt(0.64) = 0.875
        got = f_theta(np.array([1.0]), np.array([0.5]), 0.64)
        assert got[0] == pytest.approx(0.875, abs=1e-15)


class TestDdimStep:
    def test_final_step_returns_f_theta(self):
        x, eps = np.array([1.4, -0.3]), np.array([0.2, 0.9])
        assert np.array_equal(ddim_step(x, eps, 0.37, 1.0), f_theta(x, eps, 0.37))

    @pytest.mark.parametrize("walk", [generate, ddim_invert])
    def test_equal_levels_fixed_point(self, walk):
        # a flat stretch of the schedule: the hop between levels 3 and 2
        # removes or adds no noise, so either walk takes the latent through it
        # bit for bit (from these starts, the update's formula would move it
        # by an ulp); generation's latent at level 3 is latents[1], inversion's
        # latents[3], and both walks' latent at level 2 is latents[2]
        sched = AlphaSchedule(np.array([1.0, 0.9, 0.37, 0.37, 0.2]))
        start, at_3 = {generate: ((0.109, 4.105), 1), ddim_invert: ((0.211, -1.861), 3)}[walk]
        path = walk(single_gaussian(), np.array(start), C_A, TimestepGrid((4, 3, 2, 1)), sched)
        level_3, level_2 = path.latents[at_3], path.latents[2]
        assert level_3.tobytes() == level_2.tobytes()
        # so generating down from level 3 comes back to the walk's level-2 latent
        back = generate(single_gaussian(), level_3, C_A, TimestepGrid((3, 2, 1)), sched)
        assert back.latents[1].tobytes() == level_2.tobytes()

    def test_scalar_value(self):
        # independent evaluation of the update:
        # 0.9 * 0.875 + sqrt(0.19) * 0.5 = 1.0054449471770335
        got = ddim_step(np.array([1.0]), np.array([0.5]), 0.64, 0.81)
        expect = 0.9 * 0.875 + np.sqrt(0.19) * 0.5
        assert got[0] == pytest.approx(expect, abs=1e-15)
        assert got[0] == pytest.approx(1.0054449471770335, abs=1e-14)

    def test_effective_noise_inverts_the_step(self):
        x, eps = np.array([1.1, -2.0]), np.array([0.4, 0.6])
        a_t, a_prev = 0.55, 0.72
        stepped = ddim_step(x, eps, a_t, a_prev)
        assert np.allclose(effective_noise(x, stepped, a_t, a_prev), eps, rtol=1e-10)

    def test_effective_noise_zero_width_rejected(self):
        with pytest.raises(ParameterError):
            effective_noise(np.ones(2), np.ones(2), 0.5, 0.5)


class TestCfgCombine:
    def test_zero_scale_returns_conditional(self):
        e_c, e_n = np.array([0.2, 0.3]), np.array([0.1, -0.1])
        assert np.array_equal(cfg_combine(e_c, e_n, 0.0), e_c)

    def test_scalar_value(self):
        got = cfg_combine(np.array([0.2]), np.array([0.1]), 1.0)
        assert got[0] == pytest.approx(0.3, abs=1e-15)

    def test_equal_operands_fixed(self):
        e = np.array([0.7, -0.2])
        for beta in (-3.0, 0.0, 7.5):
            assert np.allclose(cfg_combine(e, e, beta), e, atol=0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            cfg_combine(np.ones(2), np.ones(3), 1.0)


SCHED = build_linear_beta_schedule(1000, 1e-4, 0.02)
GRID = make_timestep_grid(1000, 50)
C_A = np.array([1.0, 0.25])


class TestGenerate:
    def test_single_step_structure(self, demo):
        grid1 = make_timestep_grid(1000, 1)
        x_top = np.array([0.4, -1.0])
        path = generate(demo["denoiser"], x_top, demo["c_a"], grid1, SCHED)
        assert len(path.latents) == 2 and len(path.noises) == 1
        a = SCHED.at(1000)
        assert np.array_equal(path.latents[1], f_theta(x_top, path.noises[0], a))

    def test_affine_recursion_oracle(self):
        # K=1, sigma^2=1, mu=0: eps(x) = sqrt(1-a)*x, so each step scales by
        # sqrt(a_prev*a_t) + sqrt((1-a_prev)*(1-a_t)); the endpoint is x_top
        # times the product of those factors
        den = single_gaussian(base_mean=(0.0, 0.0), cond_map=ZERO2, variance=1.0)
        x_top = np.array([1.7, -0.6])
        path = generate(den, x_top, C_A, GRID, SCHED)
        factor = 1.0
        for i in range(GRID.t_sample):
            a_t = SCHED.at(GRID.steps[i])
            a_prev = SCHED.at((*GRID.steps, 0)[i + 1])
            factor *= np.sqrt(a_prev * a_t) + np.sqrt((1 - a_prev) * (1 - a_t))
        assert np.allclose(path.x0, factor * x_top, rtol=1e-12)

    def test_bit_identical_reruns(self, demo):
        p1 = generate(demo["denoiser"], demo["x_top"], demo["c_a"], GRID, SCHED)
        p2 = generate(demo["denoiser"], demo["x_top"], demo["c_a"], GRID, SCHED)
        assert all(np.array_equal(a, b) for a, b in zip(p1.latents, p2.latents))
        assert all(np.array_equal(a, b) for a, b in zip(p1.noises, p2.noises))

    def test_replay_consistency(self, demo):
        path = generate(demo["denoiser"], demo["x_top"], demo["c_a"], GRID, SCHED)
        assert path.replay_errors(SCHED).max() == 0.0

    def test_superposition_for_affine_denoiser(self, affine_denoiser):
        gen = np.random.default_rng(4)
        x1, x2 = gen.normal(size=2), gen.normal(size=2)
        out = lambda x: generate(affine_denoiser, x, C_A, GRID, SCHED).x0
        lhs = out(x1 + x2) + out(np.zeros(2))
        rhs = out(x1) + out(x2)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-9

    def test_guidance_with_zero_scale_matches_plain(self, demo):
        plain = generate(demo["denoiser"], demo["x_top"], demo["c_a"], GRID, SCHED)
        guided = generate(demo["denoiser"], demo["x_top"], demo["c_a"], GRID, SCHED,
                          guidance=(0.0, demo["null"]))
        assert all(np.array_equal(a, b) for a, b in zip(plain.latents, guided.latents))

    @pytest.mark.parametrize("fault", [RuntimeError, ZeroDivisionError])
    def test_denoiser_failure_carries_step_context(self, demo, fault):
        class Broken(GMMDenoiser):
            def predict_noise(self, x, c, alpha_bar, t):
                if t < 900:
                    raise fault("boom")
                return super().predict_noise(x, c, alpha_bar, t)

        broken = PerRowDenoiser(Broken(demo["params"]))
        with pytest.raises(DenoiserError) as err:
            generate(broken, demo["x_top"], demo["c_a"], GRID, SCHED)
        assert err.value.sampling_step is not None
        assert err.value.training_step == 880

    def test_prediction_of_the_wrong_shape_names_step(self, demo):
        class Wide(GMMDenoiser):
            def predict_noise_batch(self, X, C, alpha_bar, t):
                return np.zeros((len(X), 3))

        with pytest.raises(DenoiserError) as err:
            generate(Wide(demo["params"]), demo["x_top"], demo["c_a"], GRID, SCHED)
        assert str(err.value) == ("denoiser returned shape (1, 3), expected (1, 2) "
                                  "(sampling step 50, training step 1000)")

    def test_non_finite_prediction_names_step(self, demo):
        class NaNs(GMMDenoiser):
            def predict_noise(self, x, c, alpha_bar, t):
                if t < 900:
                    return np.full_like(x, np.nan)
                return super().predict_noise(x, c, alpha_bar, t)

        with pytest.raises(DenoiserError, match="non-finite") as err:
            generate(PerRowDenoiser(NaNs(demo["params"])), demo["x_top"], demo["c_a"],
                     GRID, SCHED)
        assert err.value.sampling_step == 44
        assert err.value.training_step == 880

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_non_finite_guidance_fails_before_the_denoiser(self, demo, beta):
        den = CountingDenoiser(demo["denoiser"])
        with pytest.raises(ParameterError,
                           match=f"^beta must be finite and within the float range, got {beta}$"):
            generate(den, demo["x_top"], demo["c_a"], GRID, SCHED, guidance=(beta, demo["null"]))
        assert den.calls == 0

    def test_per_step_null_count_validated(self, demo):
        with pytest.raises(ParameterError,
                           match=r"^conditions C must have shape \(50, 2\), got \(3, 2\)$"):
            generate(demo["denoiser"], demo["x_top"], demo["c_a"], GRID, SCHED,
                     guidance=(1.0, [demo["null"]] * 3))

    def test_null_forms_give_one_walk(self, demo):
        # a single null (m,), and T nulls as a (T, m) array or as a sequence
        args = (demo["denoiser"], demo["x_top"], demo["c_a"], GRID, SCHED)
        nulls = np.tile(demo["null"], (GRID.t_sample, 1))
        runs = [[a.tobytes() for a in generate(*args, guidance=(2.0, null)).noises]
                for null in (demo["null"], nulls, list(nulls))]
        assert runs[0] == runs[1] == runs[2]
        assert nulls.flags.writeable


@pytest.mark.parametrize("walk", [generate, ddim_invert])
def test_a_grid_level_without_noise_stops_either_walk(demo, walk):
    # beta_1 = 0 leaves alpha_bar = 1 at level 1, the lowest of a 1000-step grid
    sched = build_linear_beta_schedule(1000, 0.0, 0.02)
    den = CountingDenoiser(demo["denoiser"])
    with pytest.raises(ParameterError,
                       match="^grid level 1 has alpha_bar = 1: it holds no noise$"):
        walk(den, demo["x_top"], demo["c_a"], make_timestep_grid(1000, 1000), sched)
    assert den.calls == 0


ZERO2 = ((0.0, 0.0), (0.0, 0.0))


class TestPathRecord:
    def test_length_mismatch_rejected(self, demo):
        path = generate(demo["denoiser"], demo["x_top"], demo["c_a"], GRID, SCHED)
        with pytest.raises(ParameterError):
            PathRecord(grid=GRID, latents=path.latents[:-1], noises=path.noises,
                       condition=demo["c_a"], direction=GENERATION)
        with pytest.raises(ParameterError):
            PathRecord(grid=GRID, latents=path.latents, noises=path.noises,
                       condition=demo["c_a"], direction="sideways")

    def test_replay_errors_are_per_hop(self, demo):
        # a tampered latent shows up only in the two hops that touch it
        for direction, run in ((GENERATION, generate), (INVERSION, ddim_invert)):
            path = run(demo["denoiser"], demo["x_top"], demo["c_a"], GRID, SCHED)
            latents = list(path.latents)
            latents[7] = latents[7] + 1e-3
            bad = PathRecord(grid=path.grid, latents=tuple(latents), noises=path.noises,
                             condition=path.condition, direction=direction)
            errs = bad.replay_errors(SCHED)
            assert np.flatnonzero(errs).tolist() == [6, 7], direction

    def test_a_walks_records_are_read_only_views_of_one_buffer(self, demo):
        # every entry point's records of one walk: each record's latents are
        # views into the walk's one latent buffer (N, T+1, d), its noises into
        # the noise buffer (N, T, d)
        den, x_top, c_a, c_b = demo["denoiser"], demo["x_top"], demo["c_a"], demo["c_b"]
        manips = [preset_config(name).build_manipulation()
                  for name in ("noise-interp-local", "guidance-default")]
        results = run_edits(den, x_top, c_a, c_b, manips, GRID, SCHED)
        walks = {
            "prompt_switches": (3, prompt_switches(den, x_top, c_a, c_b,
                                                   (0, 10, GRID.t_sample), GRID, SCHED)),
            "generate": (1, [generate(den, x_top, c_a, GRID, SCHED)]),
            "ddim_invert": (1, [ddim_invert(den, x_top, c_a, GRID, SCHED)]),
            # two passes, then the pure rows under c_a and c_b
            "run_edits": (4, [*(res.path for res in results), results[0].path_a,
                              results[0].path_b]),
        }
        for walk, (n, records) in walks.items():
            latents, noises = records[0].latents[0].base, records[0].noises[0].base
            assert latents.shape == (n, GRID.t_sample + 1, 2), walk
            assert noises.shape == (n, GRID.t_sample, 2), walk
            for record in records:
                assert type(record.latents) is tuple and type(record.noises) is tuple
                for buffer, rows in ((latents, record.latents), (noises, record.noises)):
                    assert all(row.base is buffer and np.shares_memory(row, buffer)
                               for row in rows), walk
                    assert not buffer.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        rows[3][0] = 1.0
            assert not np.shares_memory(latents, noises)

    def test_endpoint_accessors(self, demo):
        path = generate(demo["denoiser"], demo["x_top"], demo["c_a"], GRID, SCHED)
        assert np.array_equal(path.x_top, path.latents[0])
        assert np.array_equal(path.x0, path.latents[-1])
        inv = ddim_invert(demo["denoiser"], path.x0, demo["c_a"], GRID, SCHED)
        assert np.array_equal(inv.x0, inv.latents[0])
        assert np.array_equal(inv.x_top, inv.latents[-1])


class TestInversion:
    def test_point_mass_linear_map(self):
        # sigma^2 = 0 at mu = 0: eps(x, a) = x / sqrt(1-a); each upward hop is
        # a scalar multiplication whose factor the test recomputes directly
        den = single_gaussian(base_mean=(0.0, 0.0), cond_map=ZERO2, variance=0.0)
        x0 = np.array([0.8, -0.5])
        inv = ddim_invert(den, x0, C_A, GRID, SCHED)
        coeff = 1.0
        for pos in range(GRID.t_sample - 1, -1, -1):
            a_cur = SCHED.at((*GRID.steps, 0)[pos + 1])
            a_tgt = SCHED.at(GRID.steps[pos])
            f_coef = (1 - np.sqrt(1 - a_cur) / np.sqrt(1 - a_tgt)) / np.sqrt(a_cur) \
                if a_cur < 1.0 else 1.0
            coeff *= np.sqrt(a_tgt) * f_coef + np.sqrt(1 - a_tgt) / np.sqrt(1 - a_tgt)
        assert np.allclose(inv.x_top, coeff * x0, rtol=1e-10)

    def test_inversion_replay_consistency(self, demo):
        x0 = np.array([0.3, -0.2])
        inv = ddim_invert(demo["denoiser"], x0, demo["c_a"], GRID, SCHED)
        assert inv.direction == INVERSION
        assert inv.replay_errors(SCHED).max() == 0.0

    def test_hops_are_the_update_run_upward(self, demo):
        # every hop equals the reference formula from the level it leaves to
        # the level it lands on, bit for bit
        inv = ddim_invert(demo["denoiser"], np.array([0.3, -0.2]), demo["c_a"], GRID, SCHED)
        alphas = [SCHED.at(level) for level in (0, *GRID.steps[::-1])]
        for i, (x, eps) in enumerate(zip(inv.latents, inv.noises)):
            stepped = ddim_step(x, eps, alphas[i], alphas[i + 1])
            assert stepped.tobytes() == inv.latents[i + 1].tobytes(), i

    def test_round_trip_error_small(self, demo):
        gen = np.random.Generator(np.random.Philox(key=77))
        x0s = demo["denoiser"].sample_clean(demo["c_a"], 4, gen)
        for x0 in x0s:
            inv = ddim_invert(demo["denoiser"], x0, demo["c_a"], GRID, SCHED)
            regen = generate(demo["denoiser"], inv.x_top, demo["c_a"], GRID, SCHED)
            assert np.linalg.norm(regen.x0 - x0) / np.linalg.norm(x0) < 0.2

    def test_single_step_round_trip_constant_predictor(self):
        # with all mass at mu, generation lands exactly on mu from any noise,
        # so inverting a mixture draw (= mu) and regenerating is exact
        mu = (0.7, -0.4)
        den = single_gaussian(base_mean=mu, cond_map=ZERO2, variance=0.0)
        grid1 = make_timestep_grid(1000, 1)
        x0 = np.array(mu)
        inv = ddim_invert(den, x0, C_A, grid1, SCHED)
        regen = generate(den, inv.x_top, C_A, grid1, SCHED)
        assert np.allclose(regen.x0, x0, rtol=0, atol=1e-12)


class TestNullTextInversion:
    def test_zero_iterations_returns_initial(self, demo):
        x0 = np.array([0.5, 0.1])
        res = null_text_invert(demo["denoiser"], x0, demo["c_a"], 2.0, GRID, SCHED,
                               iterations=0)
        assert all(np.array_equal(e, demo["null"]) for e in res.embeddings)

    def test_zero_guidance_is_inert(self, demo):
        x0 = np.array([0.5, 0.1])
        res = null_text_invert(demo["denoiser"], x0, demo["c_a"], 0.0, GRID, SCHED)
        assert all(np.array_equal(e, demo["null"]) for e in res.embeddings)
        # reconstruction equals the plain round trip when guidance is off
        inv = ddim_invert(demo["denoiser"], x0, demo["c_a"], GRID, SCHED)
        plain = generate(demo["denoiser"], inv.x_top, demo["c_a"], GRID, SCHED)
        guided = generate(demo["denoiser"], inv.x_top, demo["c_a"], GRID, SCHED,
                          guidance=(0.0, res.embeddings))
        assert np.allclose(plain.x0, guided.x0, atol=0.0)

    def test_optimization_beats_fixed_null(self, demo):
        gen = np.random.Generator(np.random.Philox(key=9))
        x0 = demo["denoiser"].sample_clean(demo["c_a"], 1, gen)[0]
        beta = 2.0
        inv = ddim_invert(demo["denoiser"], x0, demo["c_a"], GRID, SCHED)
        baseline = generate(demo["denoiser"], inv.x_top, demo["c_a"], GRID, SCHED,
                            guidance=(beta, demo["null"]))
        res = null_text_invert(demo["denoiser"], x0, demo["c_a"], beta, GRID, SCHED)
        tuned = generate(demo["denoiser"], inv.x_top, demo["c_a"], GRID, SCHED,
                         guidance=(beta, res.embeddings))
        base_err = np.linalg.norm(baseline.x0 - x0)
        opt_err = np.linalg.norm(tuned.x0 - x0)
        assert opt_err < base_err

    def test_objectives_are_recorded_per_step(self, demo):
        x0 = np.array([0.2, 0.9])
        res = null_text_invert(demo["denoiser"], x0, demo["c_a"], 1.0, GRID, SCHED,
                               iterations=2)
        assert len(res.objectives) == GRID.t_sample
        assert all(np.isfinite(v) for v in res.objectives)

    def test_batched_calls_match_per_row_calls(self, demo):
        # the oracle answers each step's rows in one pass; the interface's
        # default answers them one predict_noise call at a time
        class PerRow(Denoiser):
            d, m = 2, 2

            def predict_noise(self, x, c, alpha_bar, t):
                return demo["denoiser"].predict_noise(x, c, alpha_bar, t)

        x0 = np.array([0.6, -0.3])
        runs = [null_text_invert(den, x0, demo["c_a"], 2.0, GRID, SCHED, iterations=4)
                for den in (demo["denoiser"], PerRow())]
        assert runs[0].objectives == runs[1].objectives
        assert all(np.array_equal(a, b)
                   for a, b in zip(runs[0].embeddings, runs[1].embeddings))
        paths = [generate(den, demo["x_top"], demo["c_a"], GRID, SCHED,
                          guidance=(2.0, runs[0].embeddings))
                 for den in (demo["denoiser"], PerRow())]
        assert all(np.array_equal(a, b) for a, b in zip(paths[0].noises, paths[1].noises))

    #: the largest finite step overflows the first candidate's guided hop
    OVERFLOWED = ("null-text tuning overflowed at sampling step 50, iteration 0: its "
                  "candidate's objective is inf; step_size=1.7976931348623157e+308 with "
                  "beta=7.5 is too large")

    def test_non_finite_candidate_rejected(self, demo):
        # the round's objective is inf, named with the step size that made it
        with pytest.raises(ParameterError, match=f"^{re.escape(self.OVERFLOWED)}$"):
            null_text_invert(demo["denoiser"], np.array([0.6, -0.3]), demo["c_a"], 7.5,
                             GRID, SCHED, iterations=2, step_size=sys.float_info.max)

    def test_non_finite_objective_of_the_last_round_rejected(self, demo):
        # one iteration: the probe-less round's objective is inf too; it fails
        # here, naming the step size, not as non-finite noise that a later
        # step blames on the denoiser (a NaN objective passes the rise test)
        with pytest.raises(ParameterError, match=f"^{re.escape(self.OVERFLOWED)}$"):
            null_text_invert(demo["denoiser"], np.array([0.6, -0.3]), demo["c_a"], 7.5,
                             GRID, SCHED, iterations=1, step_size=sys.float_info.max)

    def test_overflowing_candidate_null_is_named(self):
        # a null side 1e3 times as steep: the first gradient step overflows the
        # candidate itself, and the condition check's error is kept in the message
        class Steep(Denoiser):
            d, m = 2, 2

            def predict_noise(self, x, c, alpha_bar, t):
                return 1e3 * c

        with pytest.raises(ParameterError, match=re.escape(
                "sampling step 50, iteration 0: its candidate null failed (condition "
                "embedding must be finite: conditions C hold NaN or inf); step_size=")):
            null_text_invert(Steep(), np.array([0.6, -0.3]), np.ones(2),
                             2.0, GRID, SCHED, iterations=2, step_size=sys.float_info.max)

    def test_overflowing_guidance_is_named_before_any_step(self, demo):
        with pytest.raises(ParameterError, match=re.escape(
                "sampling step 50, its first round: the all-zeros null's objective is inf; "
                "beta=1e+300 is too large")):
            null_text_invert(demo["denoiser"], np.array([0.6, -0.3]), demo["c_a"], 1e300,
                             GRID, SCHED, iterations=0)

    @pytest.mark.parametrize("name, value, message", [
        ("beta", float("nan"), "beta must be finite and within the float range, got nan"),
        ("beta", float("-inf"), "beta must be finite and within the float range, got -inf"),
        ("step_size", float("nan"),
         "step_size must be finite and within the float range, got nan"),
        ("step_size", float("inf"),
         "step_size must be finite and within the float range, got inf"),
        ("iterations", 2.5, "iterations must be an integer, got 2.5"),
        ("iterations", "3", "iterations must be an integer, got '3'")])
    def test_bad_numbers_fail_before_the_denoiser(self, demo, name, value, message):
        den = CountingDenoiser(demo["denoiser"])
        args = {"beta": 2.0, "iterations": 2, "step_size": 0.1, name: value}
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            null_text_invert(den, np.array([0.6, -0.3]), demo["c_a"], grid=GRID, schedule=SCHED,
                             **args)
        assert den.calls == 0

    def test_negative_iterations_rejected(self, demo):
        with pytest.raises(ParameterError):
            null_text_invert(demo["denoiser"], np.zeros(2), demo["c_a"], 1.0,
                             GRID, SCHED, iterations=-1)

    def test_divergence_is_reported_not_silent(self, demo):
        # an absurd step size overshoots; the step must be reverted and a
        # diagnostic recorded, and the kept objectives stay finite
        x0 = np.array([0.6, -0.3])
        res = null_text_invert(demo["denoiser"], x0, demo["c_a"], 2.0,
                               GRID, SCHED, iterations=5, step_size=1e5)
        assert len(res.diagnostics) > 0
        assert all("reverted" in d for d in res.diagnostics)
        assert all(np.isfinite(v) for v in res.objectives)


class BatchOnly(Denoiser):
    """Answers batches through the oracle; a one-row ``predict_noise`` is an error."""

    def __init__(self, inner: Denoiser):
        self._inner = inner
        self.d = inner.d
        self.m = inner.m

    def predict_noise(self, x, c, alpha_bar, t):
        raise AssertionError("every round is one predict_noise_batch call")

    def predict_noise_batch(self, X, C, alpha_bar, t):
        return self._inner.predict_noise_batch(X, C, alpha_bar, t)


def test_every_walk_is_batch_calls_with_the_oracles_bits(demo):
    oracle = demo["denoiser"]
    x_top, c_a, c_b, null = demo["x_top"], demo["c_a"], demo["c_b"], demo["null"]
    x0 = np.array([0.6, -0.3])
    presets = ("noise-interp-local", "noise-mask-demo", "latent-interp-local",
               "latent-mask-demo", "cond-interp-local", "guidance-default", "attention-local")
    manips = [preset_config(name).build_manipulation() for name in presets]
    assert sorted(m.kind for m in manips) == sorted(KINDS)

    def walks(den):
        records = [generate(den, x_top, c_a, GRID, SCHED),
                   generate(den, x_top, c_a, GRID, SCHED, guidance=(2.0, null)),
                   ddim_invert(den, x0, c_a, GRID, SCHED),
                   prompt_switch(den, x_top, c_a, c_b, 20, GRID, SCHED)]
        records += [run_edit(den, x_top, c_a, c_b, m, GRID, SCHED).path for m in manips]
        tuned = null_text_invert(den, x0, c_a, 2.0, GRID, SCHED, iterations=2)
        arrays = [a for r in records for a in (*r.latents, *r.noises, r.replay_errors(SCHED))]
        return [a.tobytes() for a in arrays] + [e.tobytes() for e in tuned.embeddings] \
            + [repr(tuned.objectives)]

    assert walks(BatchOnly(oracle)) == walks(oracle)


#: (sample, beta, iterations, step_size): guidance off and negative, 0, 1 and
#: 10 iterations, and a step size that reverts.  The digest was recorded with
#: numpy 2.4.6 on CPython 3.11.7.
NULL_TEXT_CASES = ((0, 2.0, 10, 0.1), (1, 7.5, 10, 0.1), (2, 0.0, 10, 0.1), (3, -1.0, 1, 0.1),
                   (0, 2.0, 0, 0.1), (1, 7.5, 1, 0.1), (2, 2.0, 5, 1e5), (3, 7.5, 3, 0.1))
NULL_TEXT_DIGEST = "4ed7c09ec2d9d1bf53c7d290accb3404b5ee260cc8849a0920d926a4cdc5ba08"


def test_null_text_bytes_are_pinned(demo):
    # no CLI command reaches null_text_invert, so its bytes are pinned here:
    # per case, the embeddings, objectives and diagnostics, then every latent
    # and noise of the guided regeneration from the inverted top
    den, c = demo["denoiser"], demo["c_a"]
    x0s = den.sample_clean(c, 4, np.random.Generator(np.random.Philox(key=17)))
    digest = hashlib.sha256()
    reverted = set()
    for sample, beta, iterations, step_size in NULL_TEXT_CASES:
        res = null_text_invert(den, x0s[sample], c, beta, GRID, SCHED,
                               iterations=iterations, step_size=step_size)
        if res.diagnostics:
            reverted.add(step_size)
        x_top = ddim_invert(den, x0s[sample], c, GRID, SCHED).x_top
        path = generate(den, x_top, c, GRID, SCHED, guidance=(beta, res.embeddings))
        for part in (*res.embeddings, *path.latents, *path.noises):
            digest.update(part.tobytes())
        digest.update(repr(res.objectives).encode())
        digest.update("\n".join(res.diagnostics).encode())
    assert reverted == {1e5}
    assert digest.hexdigest() == NULL_TEXT_DIGEST


def _null_text_bytes(den, x0, c, beta, grid, iterations, step_size):
    """A null-text inversion and its guided regeneration as bytes, or the error raised."""
    try:
        res = null_text_invert(den, x0, c, beta, grid, SCHED, iterations, step_size)
    except (ParameterError, DenoiserError) as err:
        return type(err), str(err)
    path = generate(den, ddim_invert(den, x0, c, grid, SCHED).x_top, c, grid, SCHED,
                    guidance=(beta, res.embeddings))
    return ([e.tobytes() for e in res.embeddings], repr(res.objectives),
            res.diagnostics, [a.tobytes() for a in (*path.latents, *path.noises)])


@given(model=models(), t_sample=st.integers(1, 60), iterations=st.integers(0, 3),
       beta=st.one_of(st.sampled_from([0.0, -1.0, 2.0, 7.5]), st.floats(-2.0, 10.0)),
       step_size=st.one_of(st.sampled_from([0.1, 1e5]), st.floats(1e-3, 10.0)))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_null_text_batched_equals_per_row(model, t_sample, iterations, beta, step_size):
    # drawn mixtures and grids: the oracle's one call per round gives the
    # embeddings, objectives, diagnostics and guided path of per-row calls
    den, x0, c, _ = model
    grid = make_timestep_grid(1000, t_sample)
    assert (_null_text_bytes(den, x0, c, beta, grid, iterations, step_size)
            == _null_text_bytes(PerRowDenoiser(den), x0, c, beta, grid, iterations, step_size))


def _reference_null_text(den, x0, c, beta, grid, iterations, step_size):
    """Null-text inversion with the tuner's one-row formulas, one hop at a time.

    It makes the oracle calls ``null_text_invert`` makes, but each hop takes
    its square roots with ``np.sqrt``, a round's latents are repeated for
    that round, its probe rows are three assignments, its losses one
    ``float(r @ r)`` per row and its gradient ``np.subtract`` over two lists.
    A round whose objective is not finite fails, as the tuner's does.
    """
    levels, t_sample, half_width = grid.steps, grid.t_sample, 1e-4
    alphas = [SCHED.at(t) for t in (*levels, 0)]
    bumps = half_width * np.eye(den.m)

    def predict(x, rows, j):
        eps = den.predict_noise_batch(np.repeat(x[None], len(rows), axis=0), rows,
                                      alphas[j], levels[j])
        if not np.isfinite(eps).all():
            raise DenoiserError("denoiser returned non-finite noise")
        return eps

    def down(x, eps, a_t, a_prev):
        if a_prev == a_t:
            return x + 0.0 * eps
        return np.sqrt(a_prev) * ((x - np.sqrt(1.0 - a_t) * eps) / np.sqrt(a_t)) \
            + np.sqrt(1.0 - a_prev) * eps

    def with_probes(null, probe):
        rows = np.empty((1 + 2 * null.size if probe else 1, null.size))
        rows[0] = null
        if probe:
            rows[1::2] = null + bumps
            rows[2::2] = null - bumps
        return rows

    inv = [x0]
    for j in reversed(range(t_sample)):  # up: from level j's lower neighbour to level j
        x, a_t, a_prev = inv[-1], alphas[j], alphas[j + 1]
        eps = predict(x, c[None], j)[0]
        inv.append(np.sqrt(a_t) * ((x - np.sqrt(1.0 - a_prev) * eps) / np.sqrt(a_prev))
                   + np.sqrt(1.0 - a_t) * eps)
    x, nulls, objectives, diagnostics = inv[-1], [], [], []
    for j in range(t_sample):
        a_t, a_prev, target = alphas[j], alphas[j + 1], inv[t_sample - j - 1]

        def losses(eps_null):
            guided = eps_c + beta * (eps_c - eps_null)
            return [float(r @ r) for r in down(x, guided, a_t, a_prev) - target]

        null = np.zeros(den.m)
        eps = predict(x, np.vstack([c, with_probes(null, iterations > 0)]), j)
        eps_c, eps_best = eps[0], eps[1]
        best, *probed = losses(eps[1:])
        if not math.isfinite(best):
            raise ParameterError("the all-zeros null's objective overflowed")
        for it in range(iterations):
            grad = np.subtract(probed[0::2], probed[1::2]) / (2.0 * half_width)
            candidate = null - step_size * grad
            eps_null = predict(x, with_probes(candidate, it + 1 < iterations), j)
            value, *probed = losses(eps_null)
            if not math.isfinite(value):
                raise ParameterError("the candidate's objective overflowed")
            if value > best * (1.0 + 1e-12) + 1e-300:
                diagnostics.append(f"sampling step {t_sample - j}: objective rose {best:.6e} "
                                   f"-> {value:.6e} at iteration {it}; reverted and stopped")
                break
            null, best, eps_best = candidate, value, eps_null[0]
        nulls.append(null.tobytes())
        objectives.append(best)
        x = down(x, eps_c + beta * (eps_c - eps_best), a_t, a_prev)
    return nulls, repr(tuple(objectives)), tuple(diagnostics)


def _tuned_or_error(run):
    try:
        return run()
    except (ParameterError, DenoiserError) as err:
        return type(err)


@given(model=models(), t_sample=st.integers(1, 40), iterations=st.integers(0, 4),
       beta=st.one_of(st.sampled_from([0.0, -1.0, 2.0]), st.floats(-2.0, 10.0)),
       step_size=st.one_of(st.sampled_from([0.1, 1e5]), st.floats(1e-3, 10.0)))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_null_text_equals_the_one_row_reference(model, t_sample, iterations, beta, step_size):
    # the tuner's vecdot losses, one-add probe rows, in-place gradient and
    # guided noise, latents repeated once per step and the step table's roots
    # keep every bit of the one-row formulas they replace
    den, x0, c, _ = model
    grid = make_timestep_grid(1000, t_sample)

    def tuned():
        res = null_text_invert(den, x0, c, beta, grid, SCHED, iterations, step_size)
        return ([e.tobytes() for e in res.embeddings], repr(res.objectives),
                res.diagnostics)

    assert _tuned_or_error(tuned) == _tuned_or_error(
        lambda: _reference_null_text(den, x0, c, beta, grid, iterations, step_size))
