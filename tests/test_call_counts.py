"""Exact denoiser-call counts of every path walk.

The counts are deterministic and independent of the machine, so they are
pinned exactly: a change to the stepping code must neither add nor drop a
single denoiser call or predicted row.  A call is one ``predict_noise`` or
one ``predict_noise_batch``; rows count one per ``predict_noise`` and one per
batch row.  All figures are for the bundled demo model (50 sampling steps,
m = 2).
"""

import contextlib
import io

import pytest

from diffpath import cli
from diffpath.config import RunConfig
from diffpath.denoiser import Denoiser
from diffpath.edits import prompt_switch, run_edit
from diffpath.metrics import inversion_report, run_sweep
from diffpath.sampler import ddim_invert, generate, null_text_invert

from conftest import WINDOW_AXES, preset_config, sweep_scenario

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

#: (calls, rows) with the paths generated on demand, then with the reference
#: and editing paths precomputed; while the editing path is known, the hops
#: above the window top (50 - t_max of them) reuse its noises
RUN_EDIT_COUNTS = {
    "noise_interp": ((127, 127), (27, 27)),
    "noise_mask": ((127, 127), (27, 27)),
    "latent_interp": ((100, 100), (46, 46)),
    "latent_mask": ((100, 100), (46, 46)),
    "cond_interp": ((100, 100), (48, 48)),
    "guidance": ((100, 150), (50, 100)),
    "attention": ((100, 100), (50, 50)),
}

#: (calls, rows) of the default 5 x 5 window sweep.  The two pure paths take
#: 50 calls of 2 rows.  The 25 edits then take one call per step in which any
#: of them predicts: all 50, or 44 for the noise-stream kinds, which predict
#: nothing inside or above a window, as over the top 6 hops every edit is
#: there.  Rows are the per-row count (100 for the paths, then each edit's
#: run_edit rows with both paths precomputed), which is 100 fewer than a walk
#: that predicted above the window tops (50 - t_max: 0+2+4+6+8 hops for each
#: t_m).  The attention rows of a step share one c_b prediction at the
#: reference latent, so that sweep's rows are 100 for the paths, 750 plain
#: rows below the windows (t_max - t_m - 1 per edit, summed over the grid) and
#: one for each of the 34 steps inside some window (sampling steps 17 to 50).
RUN_SWEEP_COUNTS = {
    "noise_interp": (94, 850),
    "noise_mask": (94, 850),
    "latent_interp": (100, 1250),
    "latent_mask": (100, 1250),
    "cond_interp": (100, 1250),
    "guidance": (100, 1650),
    "attention": (100, 884),
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
    paths = {"path_a": generate(demo["denoiser"], demo["x_top"], demo["c_a"],
                                demo["grid"], demo["schedule"]),
             "path_b": generate(demo["denoiser"], demo["x_top"], demo["c_b"],
                                demo["grid"], demo["schedule"])}
    on_demand = count(lambda den: run_edit(den, *args))
    precomputed = count(lambda den: run_edit(den, *args, **paths))
    assert (on_demand, precomputed) == RUN_EDIT_COUNTS[kind]


@pytest.mark.parametrize("kind", sorted(KIND_PRESETS))
def test_run_sweep(count, kind):
    config = preset_config(KIND_PRESETS[kind])
    assert count(lambda den: run_sweep(sweep_scenario(config, den), WINDOW_AXES,
                                       config.seed)) == RUN_SWEEP_COUNTS[kind]


def test_inversion_report(demo, count):
    # per grid size t: all 8 samples invert in t calls and regenerate in t more
    assert count(lambda den: inversion_report(den, demo["c_a"], demo["schedule"],
                                              (50, 100, 200), 8, seed=3)) == (700, 5600)


@pytest.mark.parametrize("k", [0, 20, 50])
def test_prompt_switch(demo, count, k):
    assert count(lambda den: prompt_switch(den, demo["x_top"], demo["c_a"], demo["c_b"], k,
                                           demo["grid"], demo["schedule"])) == (50, 50)


def test_cli_demo_prompt_switch(tmp_path, monkeypatch):
    built = []
    build = RunConfig.build_denoiser

    def counting_build(config):
        built.append(CountingDenoiser(build(config)))
        return built[-1]

    monkeypatch.setattr(RunConfig, "build_denoiser", counting_build)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["demo", "--scenario", "prompt-switch", "--output", str(tmp_path)])
    assert code == 0
    # all 51 switch points in one walk: per step one c_a prediction for the
    # rows not yet switched (they share path A's latent) and one c_b
    # prediction per switched row
    assert [(den.calls, den.rows) for den in built] == [(50, 1325)]
