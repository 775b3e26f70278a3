"""The kill list: planted faults, each with a test that must catch it.

A mutant is a monkeypatch of one package function.  Each case runs a named
test, which must pass, then plants the mutant, under which it must fail.  Properties run from their
bodies (``.hypothesis.inner_test``) under a fresh ``@given`` over the same
strategies, with shrinking off and no example database: a kill takes a
fraction of a second, no mutant counterexample reaches ``.hypothesis``, and
the original tests keep their own settings.
"""

import pytest
from hypothesis import HealthCheck, Phase, given, settings

import test_batched_walks
import test_edits
import test_sampler
from diffpath import edits
from diffpath.denoiser import GMMDenoiser

KILL = settings(max_examples=20, deadline=None, database=None, derandomize=True,
                phases=[Phase.explicit, Phase.generate], suppress_health_check=list(HealthCheck))


def _quick(prop):
    """``prop``'s body under its own strategies and the ``KILL`` settings."""
    handle = prop.hypothesis

    def body(**kwargs):  # a bare function: the body carries its original settings
        handle.inner_test(**kwargs)

    return KILL(given(**handle._given_kwargs)(body))


def _reversed_rows_at_five(monkeypatch):
    """The oracle's batch pass answers five rows or more in reverse order."""
    batch = GMMDenoiser.predict_noise_batch

    def mutant(self, X, C, alpha_bar, t):
        eps = batch(self, X, C, alpha_bar, t)
        return eps[::-1] if len(X) >= 5 else eps

    monkeypatch.setattr(GMMDenoiser, "predict_noise_batch", mutant)


def _stale_level_memo(monkeypatch):
    """The oracle's level memo hands its first level's constants to every later level."""
    batch = GMMDenoiser.predict_noise_batch

    def mutant(self, X, C, alpha_bar, t):
        if self._level[1] is not None:
            self._level = alpha_bar, self._level[1]
        return batch(self, X, C, alpha_bar, t)

    monkeypatch.setattr(GMMDenoiser, "predict_noise_batch", mutant)


def _blend_without_copies(monkeypatch):
    """``_blend`` computes the lerp at weights 0 and 1 instead of copying an operand."""
    monkeypatch.setattr(edits, "_blend", lambda a, b, w: w * a + (1.0 - w) * b)


KILLS = {
    "reversed-rows/prompt-switches": (
        _reversed_rows_at_five,
        _quick(test_batched_walks.test_prompt_switches_batched_equal_per_row)),
    "reversed-rows/inversion-report": (
        _reversed_rows_at_five,
        _quick(test_batched_walks.test_inversion_report_batched_equals_per_row)),
    "stale-level-memo/affine-recursion": (
        _stale_level_memo, test_sampler.TestGenerate().test_affine_recursion_oracle),
    "blend-without-copies/signed-zeros": (
        _blend_without_copies, test_edits.TestApplyMask().test_signed_zeros_are_copied),
}


@pytest.mark.parametrize("case", KILLS)
def test_mutant_is_killed(case, monkeypatch):
    plant, test = KILLS[case]
    test()  # the unplanted program passes, so the planted fault is what fails it
    plant(monkeypatch)
    with pytest.raises(AssertionError):
        test()
