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
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings

import test_acceptance
import test_batched_walks
import test_call_counts
import test_denoiser
import test_edits
import test_metrics
import test_remote
import test_sampler
from diffpath import denoiser, edits, remote, sampler
from diffpath.denoiser import GMMDenoiser
from test_call_counts import count  # noqa: F401  (the fixture of the counts case)

KILL = settings(max_examples=20, deadline=None, database=None, derandomize=True,
                phases=[Phase.explicit, Phase.generate], suppress_health_check=list(HealthCheck))


def _quick(prop, *args):
    """``prop``'s body, given ``args`` first (a method's instance), under its own
    strategies and the ``KILL`` settings."""
    handle = prop.hypothesis

    def body(**kwargs):  # a bare function: the body carries its original settings
        handle.inner_test(*args, **kwargs)

    return KILL(given(**handle._given_kwargs)(body))


def _reversed_rows_at_five(monkeypatch):
    """The oracle's batch pass answers five rows or more in reverse order."""
    batch = GMMDenoiser.predict_noise_batch

    def mutant(self, X, C, alpha_bar, t):
        eps = batch(self, X, C, alpha_bar, t)
        return eps[::-1] if len(X) >= 5 else eps

    monkeypatch.setattr(GMMDenoiser, "predict_noise_batch", mutant)


def _stale_level_memo(monkeypatch):
    """The oracle's level table keeps every later level under its first level's constants."""
    batch = GMMDenoiser.predict_noise_batch

    def mutant(self, X, C, alpha_bar, t):
        if self._levels:
            self._levels.setdefault(float(alpha_bar), next(iter(self._levels.values())))
        return batch(self, X, C, alpha_bar, t)

    monkeypatch.setattr(GMMDenoiser, "predict_noise_batch", mutant)


def _unchecked_level(monkeypatch):
    """A level the oracle's level table misses is built and kept without ``_check_alpha_bar``."""
    check = denoiser._check_alpha_bar

    def mutant(alpha_bar):
        if sys._getframe(1).f_code is GMMDenoiser.predict_noise_batch.__code__:
            return float(alpha_bar)
        return check(alpha_bar)

    monkeypatch.setattr(denoiser, "_check_alpha_bar", mutant)


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


class _Numpy:
    """``np`` for one module's ``np`` global, with the functions given replaced."""

    def __init__(self, **replaced):
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(np, name)


def _einsum_losses(monkeypatch):
    """The tuner reduces its losses with ``np.einsum("nd,nd->n")``, not the one-row dot's loop."""
    monkeypatch.setattr(sampler, "np",
                        _Numpy(vecdot=lambda a, b: np.einsum("nd,nd->n", a, b)))


def _stale_root(monkeypatch):
    """The step table takes each hop's landing root from the level it leaves."""
    table = sampler._step_table

    def mutant(grid, schedule, direction):
        return tuple(step._replace(root_to=step.root_from)
                     for step in table(grid, schedule, direction))

    monkeypatch.setattr(sampler, "_step_table", mutant)


def _hop_without_flat_branch(monkeypatch):
    """``_hop`` takes a flat stretch of the schedule through the update's formula."""
    def mutant(step, x, eps):
        return step.root_to * ((x - step.noise_from * eps) / step.root_from) + step.noise_to * eps

    monkeypatch.setattr(sampler, "_hop", mutant)


def _narrow_tags(monkeypatch):
    """``_edit_noises`` builds its tags as a ``<U`` array, as wide as its longest kind.

    ``np.array`` in ``edits`` drops ``dtype=object``, so next to ``"guidance"``
    a pass above its first weighted hop is tagged ``"noise_in"``.
    """
    def array(value, dtype=None, **kwargs):
        return np.array(value, dtype=None if dtype is object else dtype, **kwargs)

    monkeypatch.setattr(edits, "np", _Numpy(array=array))


def _mask_blind_to_weight(monkeypatch):
    """The blend table puts a masked kind's mask at every hop, its zero-weight hops too."""
    table = edits._blend_table

    def mutant(configs, W, d):
        masked = np.array([[c.mask is not None] for c in configs])
        return table(configs, np.where(masked, 1.0, W), d)

    monkeypatch.setattr(edits, "_blend_table", mutant)


def _peak_across_rows(monkeypatch):
    """The batched log density's log-sum-exp takes one peak across all rows, not one per row."""
    monkeypatch.setattr(denoiser, "np", _Numpy(
        max=lambda a, axis=None, keepdims=False: np.max(a, keepdims=keepdims)))


def _first_hook_for_every_row(monkeypatch):
    """Every attention row of a step takes the noise of the step's first hook."""
    hook_noise = edits._hook_noise
    first = {}

    def mutant(name, ctx, shape):
        if first.get("ctx") is not ctx:
            first.update(ctx=ctx, name=name)
        return hook_noise(first["name"], ctx, shape)

    monkeypatch.setattr(edits, "_hook_noise", mutant)


def _batch_never_falls_back(monkeypatch):
    """The oracle's batched pass raises on nothing, so it never falls back to the per-row oracle.

    A noise beyond the float range comes back as inf and a row in the far
    limit, every component's log density -inf, as NaN.
    """
    def errstate(**kwargs):
        if kwargs == {"over": "raise", "invalid": "raise"}:  # the batched pass's alone
            kwargs = dict.fromkeys(kwargs, "ignore")
        return np.errstate(**kwargs)

    monkeypatch.setattr(denoiser, "np", _Numpy(errstate=errstate))


def _stale_probe_latents(monkeypatch):
    """Null-text's probing rounds take the previous step's repeated latents.

    ``np.repeat`` in ``sampler`` returns a block whose probing rows, ``[1:]``,
    are those of the block of the same length it returned before; the first
    round, which takes the whole block, sees the step's own latent.
    """
    last = []

    class Stale(np.ndarray):
        def __getitem__(self, key):
            if key == slice(1, None) and self.before is not None:
                return np.asarray(self.before)[1:]
            return super().__getitem__(key)

    def repeat(a, repeats, axis=None):
        block = np.repeat(a, repeats, axis=axis).view(Stale)
        block.before = last[0] if last and len(last[0]) == len(block) else None
        last[:] = [block]
        return block

    monkeypatch.setattr(sampler, "np", _Numpy(repeat=repeat))


def _walk_takes_conditions_unchecked(monkeypatch):
    """``_walk`` skips its condition check: only the denoiser's per-call check is left."""
    check = sampler._condition_matrix

    def mutant(C, n, m):
        if sys._getframe(1).f_code is sampler._walk.__code__:
            return np.array(C, dtype=np.float64)
        return check(C, n, m)

    monkeypatch.setattr(sampler, "_condition_matrix", mutant)


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
    "unchecked-level/bad-levels-never-kept": (
        _unchecked_level, test_denoiser.TestPredictNoiseBatch().test_bad_levels_are_never_kept,
        (AssertionError, pytest.fail.Exception)),  # a bad level that returns fails pytest.raises
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
    "einsum-losses/null-text-bytes": (
        _einsum_losses, test_sampler.test_null_text_bytes_are_pinned, AssertionError),
    "stale-root/affine-recursion": (
        _stale_root, test_sampler.TestGenerate().test_affine_recursion_oracle, AssertionError),
    "hop-without-flat-branch/inverted-flat-stretch": (
        _hop_without_flat_branch,
        functools.partial(test_sampler.TestDdimStep().test_equal_levels_fixed_point,
                          walk=sampler.ddim_invert),
        AssertionError),
    "narrow-tags/guidance-counts": (
        _narrow_tags, functools.partial(test_call_counts.test_run_sweep, kind="guidance"),
        AssertionError),
    "mask-blind-to-weight/identity-reproduction": (
        _mask_blind_to_weight, test_acceptance.test_criterion_01_identity_reproduction,
        AssertionError),
    "peak-across-rows/batched-sweep": (
        _peak_across_rows,
        functools.partial(test_metrics.TestRunSweep().test_batched_sweep_equals_per_row_sweep,
                          preset="noise-interp-local", axes=test_metrics.SCHEDULE_GRID_AXES),
        AssertionError),
    "first-hook/two-hooks": (
        _first_hook_for_every_row,
        test_edits.TestRunEdit().test_two_hooks_in_one_step_give_their_rows_their_own_noise,
        AssertionError),
    "no-batch-fallback/per-row-oracle": (
        _batch_never_falls_back,
        _quick(test_denoiser.TestPredictNoiseBatch.test_rows_are_bitwise_the_per_row_oracle,
               test_denoiser.TestPredictNoiseBatch()),
        AssertionError),
    "stale-probe-latents/one-row-reference": (
        _stale_probe_latents, _quick(test_sampler.test_null_text_equals_the_one_row_reference),
        AssertionError),
    "unchecked-walk-conditions/no-call": (
        _walk_takes_conditions_unchecked,
        functools.partial(test_call_counts.test_bad_condition_costs_no_call,
                          entry="ddim_invert", bad="nan"),
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
