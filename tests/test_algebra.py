"""The manipulation algebra as properties over the whole design space.

Each property draws a case from ``test_lockstep.cases`` (a random mixture
model, grid, initial noise and 1-40 configs over all seven kinds and four
schedule kinds) and compares latents and noises by their bytes:

* amplitude 0 reproduces the plain ``c_b`` path for every kind;
* every edited path replays with zero residual;
* ``prompt_switch(k)`` is a full-strength constant ``cond_interp`` window
  over the top ``k`` sampling steps.
"""

import dataclasses
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diffpath.config import ManipulationConfig
from diffpath.edits import prompt_switch, run_edit, run_edits
from diffpath.sampler import generate
from diffpath.schedule import ScheduleSpec

from test_lockstep import SCHEDULE, _same_path, cases

PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@given(case=cases())
@PROPERTY
def test_amplitude_zero_is_the_editing_path(case):
    den, x_top, c_a, c_b, manips, grid = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # guidance betas outside [-1, 0] warn
        off = [dataclasses.replace(m, schedule=dataclasses.replace(m.schedule, amplitude=0.0))
               for m in manips]
    path_b = generate(den, x_top, c_b, grid, SCHEDULE)
    for result in run_edits(den, x_top, c_a, c_b, off, grid, SCHEDULE):
        assert _same_path(result.path, path_b)
        assert set(result.weights) == {0.0}


@given(case=cases())
@PROPERTY
def test_every_edited_path_replays_exactly(case):
    den, x_top, c_a, c_b, manips, grid = case
    for result in run_edits(den, x_top, c_a, c_b, manips, grid, SCHEDULE):
        assert not result.path.replay_errors(SCHEDULE).any()
        assert not result.path_a.replay_errors(SCHEDULE).any()


@given(case=cases(), data=st.data())
@PROPERTY
def test_prompt_switch_is_a_full_cond_interp_window(case, data):
    den, x_top, c_a, c_b, _, grid = case
    t = grid.t_sample
    for k in data.draw(st.lists(st.integers(0, t), min_size=1, max_size=4)):
        window = ScheduleSpec("constant", min(t - k + 1, t), t, t, 1.0 if k else 0.0)
        edit = run_edit(den, x_top, c_a, c_b, ManipulationConfig("cond_interp", window),
                        grid, SCHEDULE)
        assert _same_path(prompt_switch(den, x_top, c_a, c_b, k, grid, SCHEDULE), edit.path)
