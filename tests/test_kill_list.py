"""The kill list: planted faults, each with a test that must catch it.

A mutant is a monkeypatch of one package function or object.  Each case runs a
named test, which must pass, then plants the mutant, under which it must fail
with a failed assertion (or the error its case names, for a test whose
checks parse the program's output).  The test gets the fixtures its
parameters name.  Properties run from their bodies (``.hypothesis.inner_test``)
under a fresh ``@given`` over the same strategies, with shrinking off and no
example database: a kill takes a fraction of a second, no mutant
counterexample reaches ``.hypothesis``, and the original tests keep their own
settings.
"""

import functools
import inspect
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings

import test_acceptance
import test_batched_walks
import test_call_counts
import test_edits
import test_remote
import test_sampler
from diffpath import edits, remote, sampler
from diffpath.denoiser import GMMDenoiser
from test_call_counts import count  # noqa: F401  (the fixture of the counts case)

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


def _probe_signs_swapped(monkeypatch):
    """In a call of 2m+1 or 2m+2 rows the oracle swaps the answers of each +/- probe pair.

    Those are null-text's calls, whose last 2m rows probe the embedding's m
    coordinates in +/- pairs, so the mutant flips the sign of the gradient.
    """
    batch = GMMDenoiser.predict_noise_batch

    def mutant(self, X, C, alpha_bar, t):
        eps = batch(self, X, C, alpha_bar, t)
        order = np.arange(len(X))
        if len(X) in (2 * self.m + 1, 2 * self.m + 2):
            head = len(X) - 2 * self.m
            order[head:] = order[head:].reshape(-1, 2)[:, ::-1].ravel()
        return eps[order]

    monkeypatch.setattr(GMMDenoiser, "predict_noise_batch", mutant)


def _blend_without_copies(monkeypatch):
    """``_blend`` computes the lerp at weights 0 and 1 instead of copying an operand."""
    monkeypatch.setattr(edits, "_blend", lambda a, b, w: w * a + (1.0 - w) * b)


def _settle_moves_kept_rows(monkeypatch):
    """``_settle`` ignores its keep mask: every row takes the noise recomputed from its target."""
    def mutant(E, x, rows, targets, keep, step):
        E[rows] = edits.effective_noise(x, targets, step.a_t, step.a_prev)

    monkeypatch.setattr(edits, "_settle", mutant)


def _inversion_table_unreversed(monkeypatch):
    """``_step_table`` hands inversion the generation order, top step first."""
    table = sampler._step_table

    def mutant(grid, schedule, direction):
        steps = table(grid, schedule, direction)
        return steps if direction == sampler.GENERATION else steps[::-1]

    monkeypatch.setattr(sampler, "_step_table", mutant)


def _narrow_tags(monkeypatch):
    """``_edit_noises`` builds its tags as a ``<U`` array, as wide as its longest kind.

    ``np.array`` in ``edits`` drops ``dtype=object``, so next to ``"guidance"``
    a pass above its first weighted hop is tagged ``"noise_in"``.
    """
    class NarrowArrays:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def array(value, dtype=None, **kwargs):
            return np.array(value, dtype=None if dtype is object else dtype, **kwargs)

    monkeypatch.setattr(edits, "np", NarrowArrays())


def _mask_blind_to_weight(monkeypatch):
    """The blend table puts a masked kind's mask at every hop, its zero-weight hops too."""
    table = edits._blend_table

    def mutant(configs, W, d):
        masked = np.array([[c.mask is not None] for c in configs])
        return table(configs, np.where(masked, 1.0, W), d)

    monkeypatch.setattr(edits, "_blend_table", mutant)


def _lenient_encoder(monkeypatch):
    """Frames are encoded by a plain ``json.JSONEncoder``, which writes NaN and Infinity."""
    monkeypatch.setattr(remote, "_FRAME_ENCODER", json.JSONEncoder())


#: case -> (mutant, test, the exceptions that count as the test catching it)
KILLS = {
    "reversed-rows/prompt-switches": (
        _reversed_rows_at_five,
        _quick(test_batched_walks.test_prompt_switches_batched_equal_per_row),
        AssertionError),
    "reversed-rows/inversion-report": (
        _reversed_rows_at_five,
        _quick(test_batched_walks.test_inversion_report_batched_equals_per_row),
        AssertionError),
    "stale-level-memo/affine-recursion": (
        _stale_level_memo, test_sampler.TestGenerate().test_affine_recursion_oracle,
        AssertionError),
    "blend-without-copies/signed-zeros": (
        _blend_without_copies, test_edits.TestApplyMask().test_signed_zeros_are_copied,
        AssertionError),
    "settle-moves-kept-rows/replay-hook": (
        _settle_moves_kept_rows,
        test_edits.TestRunEdit().test_replay_hook_tracks_reference_inside_window,
        AssertionError),
    "settle-moves-kept-rows/mask-extremes": (
        _settle_moves_kept_rows, test_acceptance.test_criterion_03_mask_extremes_bitwise,
        AssertionError),
    "inversion-table-unreversed/null-text-bytes": (
        _inversion_table_unreversed, test_sampler.test_null_text_bytes_are_pinned,
        AssertionError),
    "probe-signs/null-text-bytes": (
        _probe_signs_swapped, test_sampler.test_null_text_bytes_are_pinned, AssertionError),
    "narrow-tags/guidance-counts": (
        _narrow_tags, functools.partial(test_call_counts.test_run_sweep, kind="guidance"),
        AssertionError),
    "mask-blind-to-weight/identity-reproduction": (
        _mask_blind_to_weight, test_acceptance.test_criterion_01_identity_reproduction,
        AssertionError),
    "lenient-encoder/strict-error-replies": (
        _lenient_encoder,
        test_remote.TestServeStream().test_bad_frames_get_strict_error_replies,
        (AssertionError, ValueError)),  # the strict reply parser rejects NaN
}


@pytest.mark.parametrize("case", KILLS)
def test_mutant_is_killed(case, monkeypatch, request):
    plant, test, caught = KILLS[case]
    fixtures = {name: request.getfixturevalue(name)
                for name, param in inspect.signature(test).parameters.items()
                if param.kind is param.POSITIONAL_OR_KEYWORD}
    test(**fixtures)  # the unplanted program passes, so the planted fault is what fails it
    plant(monkeypatch)
    with pytest.raises(caught):
        test(**fixtures)
