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
from diffpath.presets import demo_config_dict, preset_manipulation
from diffpath.sampler import ddim_invert, generate, null_text_invert

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
#: and editing paths precomputed
RUN_EDIT_COUNTS = {
    "noise_interp": ((129, 129), (29, 29)),
    "noise_mask": ((129, 129), (29, 29)),
    "latent_interp": ((100, 100), (50, 50)),
    "latent_mask": ((100, 100), (50, 50)),
    "cond_interp": ((100, 100), (50, 50)),
    "guidance": ((100, 150), (50, 100)),
    "attention": ((100, 100), (50, 50)),
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
    data = demo_config_dict()
    data["manipulation"] = {**preset_manipulation(KIND_PRESETS[kind]),
                            "condition_a": "a", "condition_b": "b"}
    manip = RunConfig.from_dict(data).build_manipulation()
    assert manip.kind == kind
    args = (demo["x_top"], demo["c_a"], demo["c_b"], manip, demo["grid"], demo["schedule"])
    paths = {"path_a": generate(demo["denoiser"], demo["x_top"], demo["c_a"],
                                demo["grid"], demo["schedule"]),
             "path_b": generate(demo["denoiser"], demo["x_top"], demo["c_b"],
                                demo["grid"], demo["schedule"])}
    on_demand = count(lambda den: run_edit(den, *args))
    precomputed = count(lambda den: run_edit(den, *args, **paths))
    assert (on_demand, precomputed) == RUN_EDIT_COUNTS[kind]


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
    # path A once, then from its latent k the remaining 50 - k hops under c_b
    assert [(den.calls, den.rows) for den in built] == [(1325, 1325)]
