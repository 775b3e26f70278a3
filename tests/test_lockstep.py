"""Lock-step edits equal one edit at a time, bit for bit, over the design space.

``run_edits`` walks many manipulated passes together and answers each step
with one batched denoiser call; ``run_edit`` through ``PerRowDenoiser`` walks
one pass and predicts one row per call.  The property draws a random mixture
model, grid, initial noise and 1-40 configs (all seven kinds, all four
schedule kinds, masks, both hooks, amplitudes including 0 and 1) and compares
every latent, noise and weight by its bytes, so a sign of zero counts too.
A second property holds the pure paths an edit walks as rows to the plain
generations under ``c_a`` and ``c_b``, and each edit to path B up to its
first weighted hop.
"""

import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diffpath.config import KINDS, ManipulationConfig
from diffpath.denoiser import GMMDenoiser, GMMDenoiserParams
from diffpath.edits import run_edit, run_edits
from diffpath.sampler import generate
from diffpath.schedule import (SCHEDULE_KINDS, ScheduleSpec, build_linear_beta_schedule,
                               make_timestep_grid)

from conftest import PerRowDenoiser

SCHEDULE = build_linear_beta_schedule(1000, 1e-4, 0.02)


@st.composite
def models(draw):
    """A mixture with K 1-12, d 1-8, m 1-4, some variances zero, and its inputs."""
    k, d, m = draw(st.integers(1, 12)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    zero = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = gen.uniform(0.1, 1.0, k)
    params = GMMDenoiserParams(
        weights=weights / weights.sum(),
        base_means=gen.uniform(-2.0, 2.0, (k, d)),
        condition_maps=gen.uniform(-1.0, 1.0, (k, d, m)),
        variances=np.where(zero, 0.0, gen.uniform(0.05, 2.0, k)))
    c_a, c_b = (gen.normal(size=m) for _ in range(2))
    return GMMDenoiser(params), gen.normal(size=d), c_a, c_b


@st.composite
def configs(draw, d: int, total: int):
    kind = draw(st.sampled_from(KINDS))
    masked = kind in ("noise_mask", "latent_mask")
    sched_kind = "constant" if masked or total == 1 else draw(st.sampled_from(SCHEDULE_KINDS))
    if sched_kind == "constant":
        t_min = draw(st.integers(0, total))
        t_max = draw(st.integers(t_min, total))
    else:
        t_min, t_max = draw(st.integers(0, total - 1)), total
    amplitude = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    extra = {}
    if kind == "guidance":
        extra["beta"] = draw(st.one_of(st.sampled_from([-1.0, 0.0]), st.floats(-1.5, 0.5)))
    elif masked:
        extra["mask"] = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]),
                                               min_size=d, max_size=d)))
    elif kind == "attention":
        extra["cam_hook"] = draw(st.sampled_from(["identity", "replay"]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # guidance betas outside [-1, 0] warn
        return ManipulationConfig(
            kind, ScheduleSpec(sched_kind, t_min, t_max, total, amplitude), **extra)


@st.composite
def cases(draw):
    den, x_top, c_a, c_b = draw(models())
    grid = make_timestep_grid(1000, draw(st.integers(1, 60)))
    manips = draw(st.lists(configs(den.d, grid.t_sample), min_size=1, max_size=40))
    return den, x_top, c_a, c_b, manips, grid


def _same_path(got, want) -> bool:
    return (len(got.latents) == len(want.latents)
            and all(g.tobytes() == w.tobytes() for g, w in zip(got.latents, want.latents))
            and all(g.tobytes() == w.tobytes() for g, w in zip(got.noises, want.noises)))


def _same_result(got, want) -> bool:
    return (_same_path(got.path, want.path) and _same_path(got.path_a, want.path_a)
            and np.array(got.weights).tobytes() == np.array(want.weights).tobytes())


@given(case=cases(), with_path_b=st.booleans())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_run_edits_equals_run_edit_per_config(case, with_path_b):
    den, x_top, c_a, c_b, manips, grid = case
    per_row = PerRowDenoiser(den)
    together = run_edits(den, x_top, c_a, c_b, manips, grid, SCHEDULE, with_path_b=with_path_b)
    for result, manip in zip(together, manips, strict=True):
        alone = run_edit(per_row, x_top, c_a, c_b, manip, grid, SCHEDULE,
                         with_path_b=with_path_b)
        assert _same_result(result, alone)
        # path B is walked for the whole batch when any of its kinds needs it
        if alone.path_b is not None:
            assert _same_path(result.path_b, alone.path_b)


@given(case=cases(), with_path_b=st.booleans())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_walked_paths_are_the_pure_generations(case, with_path_b):
    den, x_top, c_a, c_b, manips, grid = case
    path_a = generate(den, x_top, c_a, grid, SCHEDULE)
    path_b = generate(den, x_top, c_b, grid, SCHEDULE)
    walks_b = with_path_b or any(m.kind in ("noise_interp", "noise_mask") for m in manips)
    for result in run_edits(den, x_top, c_a, c_b, manips, grid, SCHEDULE,
                            with_path_b=with_path_b):
        assert _same_path(result.path_a, path_a)
        assert _same_path(result.path_b, path_b) if walks_b else result.path_b is None
        # until its first weighted hop an edit is path B, reused or predicted
        first = next((i for i, w in enumerate(result.weights) if w != 0.0), grid.t_sample)
        assert all(g.tobytes() == w.tobytes() for g, w in
                   zip(result.path.latents[:first + 1], path_b.latents[:first + 1]))
        assert all(g.tobytes() == w.tobytes() for g, w in
                   zip(result.path.noises[:first], path_b.noises[:first]))
