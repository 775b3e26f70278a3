import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diffpath.config import KINDS
from diffpath.denoiser import ConditionEmbedding, Denoiser, GMMDenoiser, GMMDenoiserParams
from diffpath.edits import prompt_switch, prompt_switches, run_edit
from diffpath.errors import DenoiserError, ParameterError
from diffpath.sampler import (GENERATION, INVERSION, PathRecord, cfg_combine,
                              ddim_invert, ddim_step, effective_noise, f_theta,
                              generate, null_text_invert)
from diffpath.schedule import build_linear_beta_schedule, make_timestep_grid

from conftest import PerRowDenoiser, preset_config, single_gaussian
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

    def test_equal_levels_fixed_point(self):
        x, eps = np.array([1.4, -0.3]), np.array([0.2, 0.9])
        assert np.array_equal(ddim_step(x, eps, 0.37, 0.37), x)

    def test_scalar_value(self):
        # independent evaluation of the update:
        # 0.9 * 0.875 + sqrt(0.19) * 0.5 = 1.0054449471770335
        got = ddim_step(np.array([1.0]), np.array([0.5]), 0.64, 0.81)
        expect = 0.9 * 0.875 + np.sqrt(0.19) * 0.5
        assert got[0] == pytest.approx(expect, abs=1e-15)
        assert got[0] == pytest.approx(1.0054449471770335, abs=1e-14)

    def test_schedule_order_violation(self):
        x, eps = np.ones(2), np.ones(2)
        with pytest.raises(ParameterError):
            ddim_step(x, eps, 0.8, 0.5)

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
C_A = ConditionEmbedding(np.array([1.0, 0.25]))


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

    def test_per_step_null_count_validated(self, demo):
        with pytest.raises(ParameterError):
            generate(demo["denoiser"], demo["x_top"], demo["c_a"], GRID, SCHED,
                     guidance=(1.0, [demo["null"]] * 3))


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
        # prompt_switches walks its records together; each record's latents
        # are views into the walk's one latent buffer, its noises into the
        # noise buffer
        records = prompt_switches(demo["denoiser"], demo["x_top"], demo["c_a"], demo["c_b"],
                                  (0, 10, GRID.t_sample), GRID, SCHED)
        latents, noises = records[0].latents[0].base, records[0].noises[0].base
        assert latents.shape == (3, GRID.t_sample + 1, 2)
        assert noises.shape == (3, GRID.t_sample, 2)
        for record in records:
            assert type(record.latents) is tuple and type(record.noises) is tuple
            for buffer, rows in ((latents, record.latents), (noises, record.noises)):
                assert all(row.base is buffer and np.shares_memory(row, buffer)
                           for row in rows)
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
        assert all(np.array_equal(e.values, demo["null"].values) for e in res.embeddings)

    def test_zero_guidance_is_inert(self, demo):
        x0 = np.array([0.5, 0.1])
        res = null_text_invert(demo["denoiser"], x0, demo["c_a"], 0.0, GRID, SCHED)
        assert all(np.array_equal(e.values, demo["null"].values) for e in res.embeddings)
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
        assert all(np.array_equal(a.values, b.values)
                   for a, b in zip(runs[0].embeddings, runs[1].embeddings))
        paths = [generate(den, demo["x_top"], demo["c_a"], GRID, SCHED,
                          guidance=(2.0, runs[0].embeddings))
                 for den in (demo["denoiser"], PerRow())]
        assert all(np.array_equal(a, b) for a, b in zip(paths[0].noises, paths[1].noises))

    def test_non_finite_candidate_rejected(self, demo):
        # every round's probe rows are checked at once, with the error a
        # single embedding raises
        with pytest.raises(ParameterError, match="condition embedding must be finite"):
            null_text_invert(demo["denoiser"], np.array([0.6, -0.3]), demo["c_a"], 2.0,
                             GRID, SCHED, iterations=2, step_size=float("inf"))

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
        return [a.tobytes() for a in arrays] + [e.values.tobytes() for e in tuned.embeddings] \
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
        for part in (*(e.values for e in res.embeddings), *path.latents, *path.noises):
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
    return ([e.values.tobytes() for e in res.embeddings], repr(res.objectives),
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
