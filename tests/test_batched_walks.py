"""Whole walks through the oracle's batch pass equal walks of per-row calls, bit for bit.

The oracle answers a round's N rows in one vectorised pass;
``conftest.PerRowDenoiser`` sends the same rounds through the interface's
per-row loop, one ``predict_noise`` call per row.  Over drawn mixtures
(``test_lockstep.models()``), grids and conditions, every latent, noise and
reported number of ``generate`` (plain, and guided with a shared null),
``ddim_invert``, ``prompt_switches`` for every switch point and
``inversion_report`` must have the same bytes either way, or both must fail
with the same error.  The prompt switches and the report reach rounds of
five rows and more; a plain or guided generation and an inversion have one
or two rows per round.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diffpath.edits import prompt_switches
from diffpath.errors import DenoiserError, ParameterError
from diffpath.metrics import inversion_report
from diffpath.sampler import ddim_invert, generate
from diffpath.schedule import make_timestep_grid

from conftest import PerRowDenoiser
from test_lockstep import SCHEDULE, models

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


class PerRowSampler(PerRowDenoiser):
    """``PerRowDenoiser`` that also draws clean latents, as ``inversion_report`` needs."""

    def sample_clean(self, c, n, gen):
        return self._inner.sample_clean(c, n, gen)


def _bytes(run):
    """``run()``'s records as bytes, or the type and text of the error it raised."""
    try:
        records = run()
    except (ParameterError, DenoiserError) as err:
        return type(err), str(err)
    return [[a.tobytes() for a in (*r.latents, *r.noises)] for r in records]


@given(model=models(), t_sample=st.integers(1, 60),
       beta=st.one_of(st.sampled_from([0.0, -1.0, 7.5]), st.floats(-2.0, 10.0)),
       null=st.sampled_from(["zeros", "drawn"]), seed=st.integers(0, 2**32 - 1))
@SETTINGS
def test_generate_batched_equals_per_row(model, t_sample, beta, null, seed):
    den, x_top, c, _ = model
    grid = make_timestep_grid(1000, t_sample)
    gen = np.random.default_rng(seed)
    shared = np.zeros(den.m) if null == "zeros" else gen.normal(size=den.m)
    for guidance in (None, (beta, shared)):
        runs = [_bytes(lambda: [generate(d, x_top, c, grid, SCHEDULE, guidance=guidance)])
                for d in (den, PerRowDenoiser(den))]
        assert runs[0] == runs[1]


@given(model=models(), t_sample=st.integers(1, 60))
@SETTINGS
def test_ddim_invert_batched_equals_per_row(model, t_sample):
    den, x0, c, _ = model
    grid = make_timestep_grid(1000, t_sample)
    runs = [_bytes(lambda: [ddim_invert(d, x0, c, grid, SCHEDULE)])
            for d in (den, PerRowDenoiser(den))]
    assert runs[0] == runs[1]


@st.composite
def switch_cases(draw):
    """A model, a grid and every switch point of it, in a drawn order."""
    den, x_top, c_a, c_b = draw(models())
    grid = make_timestep_grid(1000, draw(st.integers(1, 40)))
    return den, x_top, c_a, c_b, grid, draw(st.permutations(range(grid.t_sample + 1)))


@given(case=switch_cases())
@SETTINGS
def test_prompt_switches_batched_equal_per_row(case):
    den, x_top, c_a, c_b, grid, ks = case
    runs = [_bytes(lambda: prompt_switches(d, x_top, c_a, c_b, ks, grid, SCHEDULE))
            for d in (den, PerRowDenoiser(den))]
    assert runs[0] == runs[1]


@given(model=models(), samples=st.integers(1, 8),
       t_samples=st.lists(st.integers(1, 30), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
@SETTINGS
def test_inversion_report_batched_equals_per_row(model, samples, t_samples, seed):
    den, _, c, _ = model

    def report(d):
        try:
            rows = inversion_report(d, c, SCHEDULE, t_samples, samples, seed)
        except (ParameterError, DenoiserError) as err:
            return type(err), str(err)
        return np.array([(r.t_sample, r.mean_rel_error, r.max_rel_error)
                         for r in rows]).tobytes()

    assert report(den) == report(PerRowSampler(den))
