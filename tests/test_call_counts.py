"""Exact denoiser-call counts of every path walk.

The counts are deterministic and independent of the machine, so they are
pinned exactly: a change to the stepping code must neither add nor drop a
single denoiser call or predicted row.  A call is one ``predict_noise`` or
one ``predict_noise_batch``; rows count one per ``predict_noise`` and one per
batch row.  All figures are for the bundled demo model (50 sampling steps,
m = 2).
"""

import contextlib
import dataclasses
import io

import numpy as np
import pytest

from diffpath import cli, denoiser
from diffpath.config import RunConfig
from diffpath.denoiser import Denoiser, GMMDenoiser, gmm_log_density
from diffpath.edits import prompt_switch, run_edit
from diffpath.errors import ParameterError
from diffpath.metrics import inversion_report, run_sweep
from diffpath.sampler import ddim_invert, generate, null_text_invert

from conftest import WINDOW_AXES, preset_config

#: one preset per operator kind
KIND_PRESETS = {
    "noise_interp": "noise-interp-local",
    "noise_mask": "noise-mask-demo",
    "latent_interp": "latent-interp-local",
    "latent_mask": "latent-mask-demo",
    "cond_interp": "cond-interp-local",
    "guidance": "guidance-default",
    "attention": "attention-local",
}

#: (calls, rows) of a bare edit, then of one that also walks path B
#: (``with_path_b=True``).  Path A's row, and path B's while it is walked, ride
#: in the edit's own call of each step: one call per step.  While path B is
#: walked, the hops above the window top (50 - t_max of them) reuse its noises.
RUN_EDIT_COUNTS = {
    "noise_interp": ((50, 127), (50, 127)),
    "noise_mask": ((50, 127), (50, 127)),
    "latent_interp": ((50, 100), (50, 146)),
    "latent_mask": ((50, 100), (50, 146)),
    "cond_interp": ((50, 100), (50, 148)),
    "guidance": ((50, 150), (50, 200)),
    "attention": ((50, 100), (50, 150)),
}

#: (calls, rows) of the default 5 x 5 window sweep: one walk of the 25 edits
#: and both pure paths, one call per step.  Rows are 100 for the paths, then
#: each edit's rows, which is 100 fewer than a walk that predicted above the
#: window tops (50 - t_max: 0+2+4+6+8 hops for each t_m), as those hops reuse
#: path B's noises.  The attention rows of a step share one c_b prediction at
#: the reference latent, so that sweep's rows are 100 for the paths, 750 plain
#: rows below the windows (t_max - t_m - 1 per edit, summed over the grid) and
#: one for each of the 34 steps inside some window (sampling steps 17 to 50).
RUN_SWEEP_COUNTS = {
    "noise_interp": (50, 850),
    "noise_mask": (50, 850),
    "latent_interp": (50, 1250),
    "latent_mask": (50, 1250),
    "cond_interp": (50, 1250),
    "guidance": (50, 1650),
    "attention": (50, 884),
}


class CountingDenoiser(Denoiser):
    """Forwards to a wrapped denoiser and counts its calls and predicted rows."""

    def __init__(self, inner):
        self._inner = inner
        self.d = inner.d
        self.m = inner.m
        self.calls = 0
        self.rows = 0

    def predict_noise(self, x, c, alpha_bar, t):
        self.calls += 1
        self.rows += 1
        return self._inner.predict_noise(x, c, alpha_bar, t)

    def predict_noise_batch(self, X, C, alpha_bar, t):
        self.calls += 1
        self.rows += len(X)
        return self._inner.predict_noise_batch(X, C, alpha_bar, t)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture()
def count(demo):
    def run(walk) -> tuple[int, int]:
        counting = CountingDenoiser(demo["denoiser"])
        walk(counting)
        return counting.calls, counting.rows
    return run


def test_generate(demo, count):
    args = (demo["x_top"], demo["c_a"], demo["grid"], demo["schedule"])
    assert count(lambda den: generate(den, *args)) == (50, 50)
    # conditional and null side of each step in one call
    assert count(lambda den: generate(den, *args, guidance=(2.0, demo["null"]))) == (50, 100)


def test_ddim_invert(demo, count):
    assert count(lambda den: ddim_invert(den, demo["x_top"], demo["c_a"], demo["grid"],
                                         demo["schedule"])) == (50, 50)


@pytest.mark.parametrize("iterations, calls, rows", [(0, 100, 150), (3, 250, 900)])
def test_null_text_invert(demo, count, iterations, calls, rows):
    # 50 inversion calls, then per step one call for the conditional, the
    # initial null and its 2m probes, and one per iteration for the candidate
    # and, unless it is the last, the candidate's 2m probes
    x0 = generate(demo["denoiser"], demo["x_top"], demo["c_a"], demo["grid"],
                  demo["schedule"]).x0
    assert count(lambda den: null_text_invert(den, x0, demo["c_a"], 2.0, demo["grid"],
                                              demo["schedule"],
                                              iterations=iterations)) == (calls, rows)


@pytest.mark.parametrize("kind", sorted(KIND_PRESETS))
def test_run_edit(demo, count, kind):
    manip = preset_config(KIND_PRESETS[kind]).build_manipulation()
    assert manip.kind == kind
    args = (demo["x_top"], demo["c_a"], demo["c_b"], manip, demo["grid"], demo["schedule"])
    bare = count(lambda den: run_edit(den, *args))
    with_path_b = count(lambda den: run_edit(den, *args, with_path_b=True))
    assert (bare, with_path_b) == RUN_EDIT_COUNTS[kind]


@pytest.mark.parametrize("kind", sorted(KIND_PRESETS))
def test_run_sweep(count, kind):
    config = preset_config(KIND_PRESETS[kind])
    assert count(lambda den: run_sweep(den, config, WINDOW_AXES)) == RUN_SWEEP_COUNTS[kind]


@pytest.fixture()
def level_builds(monkeypatch):
    """The levels the oracle checks, one per level whose constants it builds."""
    levels = []
    check = denoiser._check_alpha_bar

    def spy(alpha_bar):
        levels.append(alpha_bar)
        return check(alpha_bar)

    monkeypatch.setattr(denoiser, "_check_alpha_bar", spy)
    return levels


def test_null_text_op_builds_each_level_once_per_oracle(demo, level_builds):
    # null-text inversion at 10 iterations, then the guided regeneration: the
    # inversion builds the grid's 50 levels; the tuning, the regeneration and
    # a second op on the same oracle only read them
    x0 = generate(demo["denoiser"], demo["x_top"], demo["c_a"], demo["grid"],
                  demo["schedule"]).x0
    den = GMMDenoiser(demo["params"])
    for builds in (50, 0):
        level_builds.clear()
        tuned = null_text_invert(den, x0, demo["c_a"], 2.0, demo["grid"], demo["schedule"],
                                 iterations=10)
        generate(den, demo["x_top"], demo["c_a"], demo["grid"], demo["schedule"],
                 guidance=(2.0, tuned.embeddings))
        assert (len(level_builds), len(set(level_builds))) == (builds, builds)


def test_sweep_builds_each_level_once(level_builds):
    config = preset_config("noise-interp-local")
    run_sweep(GMMDenoiser(config.model), config, WINDOW_AXES)
    assert (len(level_builds), len(set(level_builds))) == (50, 50)


@pytest.fixture()
def built(monkeypatch):
    """The counting denoisers the CLI builds while the fixture is active."""
    dens = []
    build = RunConfig.build_denoiser

    def counting_build(config):
        dens.append(CountingDenoiser(build(config)))
        return dens[-1]

    monkeypatch.setattr(RunConfig, "build_denoiser", counting_build)
    return dens


@pytest.mark.parametrize("kind", sorted(KIND_PRESETS))
def test_cli_edit(built, tmp_path, kind):
    # one walk: the edit and both pure paths, which it scores against
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["edit", "--preset", KIND_PRESETS[kind], "--output", str(tmp_path)])
    assert code == 0
    assert [(den.calls, den.rows) for den in built] == [RUN_EDIT_COUNTS[kind][1]]


def test_bad_sweep_axis_costs_no_call(demo):
    counting = CountingDenoiser(demo["denoiser"])
    config = preset_config("noise-interp-local")
    with pytest.raises(ParameterError, match="sweep axis 't_m' must be an integer"):
        run_sweep(counting, config, {"t_m": ("abc",)})
    assert (counting.calls, counting.rows) == (0, 0)


GUIDANCE = preset_config("guidance-default").build_manipulation()

#: every public entry point that takes a condition, called with ``bad`` in one condition's place
CONDITION_ENTRIES = {
    "generate": lambda den, demo, bad: generate(den, demo["x_top"], bad, demo["grid"],
                                                demo["schedule"]),
    "generate-guided": lambda den, demo, bad: generate(
        den, demo["x_top"], bad, demo["grid"], demo["schedule"], guidance=(2.0, demo["null"])),
    "generate-null": lambda den, demo, bad: generate(
        den, demo["x_top"], demo["c_a"], demo["grid"], demo["schedule"], guidance=(2.0, bad)),
    "ddim_invert": lambda den, demo, bad: ddim_invert(den, demo["x_top"], bad, demo["grid"],
                                                      demo["schedule"]),
    "null_text_invert": lambda den, demo, bad: null_text_invert(
        den, demo["x_top"], bad, 2.0, demo["grid"], demo["schedule"]),
    "run_edit-c_a": lambda den, demo, bad: run_edit(
        den, demo["x_top"], bad, demo["c_b"], GUIDANCE, demo["grid"], demo["schedule"]),
    "run_edit-c_b": lambda den, demo, bad: run_edit(
        den, demo["x_top"], demo["c_a"], bad, GUIDANCE, demo["grid"], demo["schedule"]),
    "prompt_switch-c_a": lambda den, demo, bad: prompt_switch(
        den, demo["x_top"], bad, demo["c_b"], 20, demo["grid"], demo["schedule"]),
    "prompt_switch-c_b": lambda den, demo, bad: prompt_switch(
        den, demo["x_top"], demo["c_a"], bad, 20, demo["grid"], demo["schedule"]),
    "inversion_report": lambda den, demo, bad: inversion_report(den, bad, demo["schedule"],
                                                                (50,), 2, seed=3),
    # the oracle's own: its means check the condition
    "GMMDenoiser.predict_noise": lambda den, demo, bad: demo["denoiser"].predict_noise(
        demo["x_top"], bad, 0.5, 500),
    "GMMDenoiser.sample_clean": lambda den, demo, bad: demo["denoiser"].sample_clean(
        bad, 2, np.random.default_rng(0)),
    "gmm_log_density": lambda den, demo, bad: gmm_log_density(demo["params"], demo["x_top"], bad),
}

#: a condition of the wrong width, one holding NaN, and a 2-D one, for the demo's m = 2
BAD_CONDITIONS = {"width": np.zeros(3), "nan": np.array([np.nan, 0.0]), "2-D": np.zeros((1, 2))}


@pytest.mark.parametrize("bad", BAD_CONDITIONS)
@pytest.mark.parametrize("entry", CONDITION_ENTRIES)
def test_bad_condition_costs_no_call(demo, entry, bad):
    counting = CountingDenoiser(demo["denoiser"])
    with pytest.raises(ParameterError, match="conditions C"):
        CONDITION_ENTRIES[entry](counting, demo, BAD_CONDITIONS[bad])
    assert (counting.calls, counting.rows) == (0, 0)


NOISE_MASK = preset_config("noise-mask-demo").build_manipulation()

#: every public entry point that walks from a given latent, called with ``bad`` in its place
LATENT_ENTRIES = {
    "generate": lambda den, demo, bad: generate(den, bad, demo["c_a"], demo["grid"],
                                                demo["schedule"]),
    "generate-guided": lambda den, demo, bad: generate(
        den, bad, demo["c_a"], demo["grid"], demo["schedule"], guidance=(2.0, demo["null"])),
    "ddim_invert": lambda den, demo, bad: ddim_invert(den, bad, demo["c_a"], demo["grid"],
                                                      demo["schedule"]),
    "null_text_invert": lambda den, demo, bad: null_text_invert(
        den, bad, demo["c_a"], 2.0, demo["grid"], demo["schedule"]),
    "run_edit": lambda den, demo, bad: run_edit(
        den, bad, demo["c_a"], demo["c_b"], GUIDANCE, demo["grid"], demo["schedule"]),
    "prompt_switch": lambda den, demo, bad: prompt_switch(
        den, bad, demo["c_a"], demo["c_b"], 20, demo["grid"], demo["schedule"]),
}

#: latents of the wrong width for the demo's d = 2
BAD_LATENTS = {"(1,)": np.zeros(1), "(3,)": np.zeros(3)}


@pytest.mark.parametrize("bad", BAD_LATENTS)
@pytest.mark.parametrize("entry", LATENT_ENTRIES)
def test_bad_latent_width_costs_no_call(demo, entry, bad):
    counting = CountingDenoiser(demo["denoiser"])
    with pytest.raises(ParameterError, match="latent must be a vector of 2 entries"):
        LATENT_ENTRIES[entry](counting, demo, BAD_LATENTS[bad])
    assert (counting.calls, counting.rows) == (0, 0)


@pytest.mark.parametrize("bad", BAD_LATENTS)
def test_mask_of_the_latents_width_is_checked_against_the_denoiser(demo, bad):
    # a mask as wide as a wrong latent is still not as wide as the denoiser's
    counting = CountingDenoiser(demo["denoiser"])
    manip = dataclasses.replace(NOISE_MASK, mask=np.ones(BAD_LATENTS[bad].size))
    with pytest.raises(ParameterError, match="mask must be a vector of dimension 2"):
        run_edit(counting, BAD_LATENTS[bad], demo["c_a"], demo["c_b"], manip, demo["grid"],
                 demo["schedule"])
    assert (counting.calls, counting.rows) == (0, 0)


def test_inversion_report(demo, count):
    # per grid size t: all 8 samples invert in t calls and regenerate in t more
    assert count(lambda den: inversion_report(den, demo["c_a"], demo["schedule"],
                                              (50, 100, 200), 8, seed=3)) == (700, 5600)


@pytest.mark.parametrize("k", [0, 20, 50])
def test_prompt_switch(demo, count, k):
    assert count(lambda den: prompt_switch(den, demo["x_top"], demo["c_a"], demo["c_b"], k,
                                           demo["grid"], demo["schedule"])) == (50, 50)


def test_cli_demo_prompt_switch(built, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["demo", "--scenario", "prompt-switch", "--output", str(tmp_path)])
    assert code == 0
    # all 51 switch points in one walk: per step one c_a prediction for the
    # rows not yet switched (they share path A's latent) and one c_b
    # prediction per switched row
    assert [(den.calls, den.rows) for den in built] == [(50, 1325)]
