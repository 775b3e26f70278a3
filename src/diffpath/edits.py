"""Path-manipulation operators and the schedule-driven edit loop.

Seven operators act on the generation path of an editing condition ``c_b``
while injecting structure from a reference path generated under ``c_a`` from
the same initial noise:

==============  =====================================================
kind            per-step action while the schedule weight w is nonzero
==============  =====================================================
noise_interp    blend the two recorded noise streams and step with the mix
noise_mask      noise_interp with the binary mask as per-entry weights
latent_interp   blend the reference latent into the stepped latent
latent_mask     latent_interp with the binary mask as per-entry weights
cond_interp     denoise under the blended condition embedding
guidance        extrapolate between predictions of c_a and c_b by beta
attention       delegate the prediction to a registered hook, stepping
                from the reference latent
==============  =====================================================

Wherever the weight is zero the step is plain c_b denoising of the evolving
latent, so a schedule amplitude of zero reproduces the c_b path for every
kind.  Interpolation weights always weight the reference (first) argument.

An attention hook is a plain function of a :class:`CamContext`, registered by
name in ``config`` (home of ``ManipulationConfig``).  It reads both conditions'
predictions at the reference latent (the c_b one comes from the step's one
denoiser call, shared by every attention pass) and returns the step's noise.

Noise blending draws both operands from recorded trajectories (the reference
path under c_a and the editing path under c_b, both from the shared initial
noise).  This keeps the edited path an exact convex combination of the two
pure paths whenever the denoiser is affine in the latent, which is the
anchor for the linearity checks downstream; re-predicting the c_b side on
the evolving latent would make the blend's contraction depend on the weight
and break that affinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import _CAM_HOOKS, _MASKED_KINDS, ManipulationConfig, validate_mask
from .denoiser import ConditionEmbedding, Denoiser
from .errors import DenoiserError, ParameterError
from .sampler import ChooseEps, PathRecord, cfg_combine, effective_noise, _down, _Step, _walk
from .schedule import AlphaSchedule, TimestepGrid, omega


def lerp(a: np.ndarray, b: np.ndarray, w: float) -> np.ndarray:
    """w * a + (1 - w) * b; w weights the first (reference) argument.

    The endpoints return the corresponding operand exactly.
    """
    if not 0.0 <= w <= 1.0:
        raise ParameterError(f"interpolation weight must lie in [0, 1], got {w}")
    if np.shape(a) != np.shape(b):
        raise ParameterError("interpolation operands must share a shape")
    return _blend(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64), w)


def _blend(a: np.ndarray, b: np.ndarray, w) -> np.ndarray:
    """``lerp``'s arithmetic; ``w`` may hold per-row (n, 1) or per-entry (n, d) weights.

    A weight of exactly 1 or 0 copies its operand: ``1.0 * a + 0.0 * b`` is
    not ``a`` where ``a`` is -0.0.
    """
    return np.where(w == 1.0, a, np.where(w == 0.0, b, w * a + (1.0 - w) * b))


def apply_mask(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Elementwise mask*a + (1-mask)*b for a binary mask: ``lerp`` with per-entry weights."""
    mask = np.asarray(mask, dtype=np.float64)
    if np.shape(a) != np.shape(b) or np.shape(a) != mask.shape:
        raise ParameterError("mask and operands must share a shape")
    return _blend(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64), mask)


@dataclass(frozen=True)
class CamContext:
    """What an attention-style hook may look at for one step.

    Both predictions are at the reference latent ``x_ref``: ``eps_ref`` is
    the reference condition's (path A's noise of this step) and ``eps_edit``
    the editing condition's, asked for in the step's one denoiser call.  All
    three arrays are read-only.
    """

    x_ref: np.ndarray
    eps_ref: np.ndarray
    eps_edit: np.ndarray
    c_a: ConditionEmbedding
    c_b: ConditionEmbedding
    alpha_bar: float
    level: int
    sampling_step: int


@dataclass(frozen=True)
class EditResult:
    """An edited trajectory plus the pure paths and the applied weights.

    ``weights[i]`` is the schedule weight at the step taken from
    ``path.latents[i]``; it is zero for every step outside the schedule
    support.  ``path_a`` is the reference path under ``c_a``; ``path_b`` is
    the editing path under ``c_b`` when the edit walked it, else ``None``.
    """

    path: PathRecord
    path_a: PathRecord
    path_b: PathRecord | None
    weights: tuple[float, ...]


def run_edit(denoiser: Denoiser, x_top: np.ndarray, c_a: ConditionEmbedding,
             c_b: ConditionEmbedding, config: ManipulationConfig,
             grid: TimestepGrid, schedule: AlphaSchedule, *,
             with_path_b: bool = False) -> EditResult:
    """Run one manipulated generation pass from the shared initial noise.

    The reference path under ``c_a`` is walked as a row of the edit's own
    walk, and so is the editing path under ``c_b`` when the noise-stream
    kinds need it or ``with_path_b`` asks for it.  Latent blends and hook
    steps are recorded through their replay-equivalent noise so the
    returned path replays like any other trajectory.
    """
    return run_edits(denoiser, x_top, c_a, c_b, (config,), grid, schedule,
                     with_path_b=with_path_b)[0]


def run_edits(denoiser: Denoiser, x_top: np.ndarray, c_a: ConditionEmbedding,
              c_b: ConditionEmbedding, configs: Sequence[ManipulationConfig],
              grid: TimestepGrid, schedule: AlphaSchedule, *,
              with_path_b: bool = False) -> tuple[EditResult, ...]:
    """``run_edit`` for each config, all passes walked in lock-step.

    The reference path under ``c_a`` is one more row of the walk, and so is
    the editing path under ``c_b`` when ``with_path_b`` is set or a
    noise-stream kind needs it.  Each pure row steps with its prediction,
    asked for in the step's one denoiser call with the passes' own; the
    operators read it from that round.  Each result is bitwise the one
    ``run_edit`` gives for its config alone, and its ``path_a``/``path_b``
    are the pure rows' records.  While the editing path is walked, every hop
    above a pass's first weighted step is a noise blend of weight zero, which
    takes that path's noise: until then the pass is that path.
    """
    t_sample = grid.t_sample
    d = np.asarray(x_top).size
    for config in configs:
        if config.schedule.total != t_sample:
            raise ParameterError(
                f"schedule covers {config.schedule.total} steps but the grid has {t_sample}")
        if config.mask is not None:
            validate_mask(config.mask, d)
    if not configs:
        return ()

    walk_b = with_path_b or any(config.kind in ("noise_interp", "noise_mask")
                                for config in configs)
    pure = [c_a, c_b] if walk_b else [c_a]
    weights = [tuple(omega(config.schedule, t_sample - i) for i in range(t_sample))
               for config in configs]
    n = len(configs)
    paths = _walk(denoiser, grid, schedule, [x_top] * (n + len(pure)), [c_b] * n + pure,
                  _edit_noises(configs, c_a, c_b, pure, weights, d))
    path_b = paths[n + 1] if walk_b else None
    return tuple(EditResult(path=path, path_a=paths[n], path_b=path_b, weights=w)
                 for path, w in zip(paths, weights))


def _edit_noises(configs: Sequence[ManipulationConfig], c_a: ConditionEmbedding,
                 c_b: ConditionEmbedding, pure: Sequence[ConditionEmbedding],
                 weights: list[tuple[float, ...]], d: int) -> ChooseEps:
    """The stepping-core callback of the manipulated passes, one row per config.

    The config rows are followed by one row per condition of ``pure``: path
    A under ``c_a``, then path B under ``c_b`` if it is walked; each steps
    with its prediction.  At each hop the config rows fall into groups:
    while path B is walked, rows above their first weighted hop blend the
    noises at weight zero, which copies path B's (until then the pass is
    that path); other rows of weight zero take the plain ``c_b`` prediction;
    the rest apply their kind's operator.  Every blend reads its weights from
    one table: a masked kind's mask where its weight is nonzero, else the
    schedule weight.  Each group's arithmetic runs on all its rows at once
    and is elementwise, so every row gets the bits of a walk of its own.
    The pure rows' predictions and those of all groups go out as one call
    per step, with one ``c_b`` prediction at the reference latent that every
    attention row's hook reads.
    """
    W = np.array(weights)
    n, t_sample = W.shape
    ref_a, ref_b = n, n + 1  # path B's row exists only while it is walked
    weighted = W != 0.0
    # object strings: a "<U" array is only as wide as its longest kind, which
    # may be too narrow for "noise_interp"
    tags = np.where(weighted, np.array([[_MASKED_KINDS.get(c.kind, c.kind)] for c in configs],
                                       dtype=object), "plain")
    if len(pure) > 1:
        first = np.where(weighted.any(axis=1), weighted.argmax(axis=1), t_sample)
        tags[np.arange(t_sample) < first[:, None]] = "noise_interp"
    columns = tags.T.tolist()
    blend = _blend_table(configs, W, d)
    betas = np.array([[0.0 if c.beta is None else c.beta] for c in configs])
    ab = np.array([c_a.values, c_b.values])  # the pure rows' conditions are its first rows

    def choose_eps(i: int, step: _Step, X: np.ndarray, predict: Callable) -> np.ndarray:
        E = np.empty_like(X)
        x_ref = X[ref_a]
        latents, conditions = [X[n:]], [ab[:len(pure)]]
        # a hop's groups in order of their first row, each with its row numbers
        members: dict[str, list[int]] = {}
        for r, tag in enumerate(columns[i]):
            members.setdefault(tag, []).append(r)
        groups = [(kind, np.array(rows)) for kind, rows in members.items()]
        for kind, rows in groups:
            if kind == "noise_interp":
                continue
            if kind == "attention":
                latents.append(x_ref[None])
                conditions.append(ab[1:])
            elif kind == "guidance":
                latents += [X[rows]] * 2
                conditions.append(np.repeat(ab, len(rows), axis=0))  # c_a rows, then c_b
            elif kind == "cond_interp":
                latents.append(X[rows])
                conditions.append(_blend(c_a.values, c_b.values, W[rows, i, None]))
            else:  # plain, and the latent kinds' prediction before their blend
                latents.append(X[rows])
                conditions.append(np.repeat(ab[1:], len(rows), axis=0))
        eps = predict(np.concatenate(latents), np.concatenate(conditions))
        lo = len(pure)
        E[n:] = eps[:lo]
        eps_ref = E[ref_a]
        for kind, rows in groups:
            if kind == "noise_interp":
                E[rows] = _blend(eps_ref, E[ref_b], blend[rows, i])
                continue
            if kind == "attention":
                eps_edit, lo = eps[lo], lo + 1
                for shown in (x_ref, eps_ref, eps_edit):
                    shown.setflags(write=False)
                ctx = CamContext(x_ref=x_ref, eps_ref=eps_ref, eps_edit=eps_edit,
                                 c_a=c_a, c_b=c_b, alpha_bar=step.a_t, level=step.level,
                                 sampling_step=step.sampling_step)
                eps_hook = np.array([_hook_noise(configs[r].cam_hook, ctx, X.shape[1:])
                                     for r in rows])
                # where the evolving latent is the reference, the hook's noise steps it
                E[rows] = eps_hook
                _settle(E, X[rows], rows, _down(x_ref, eps_hook, step.a_t, step.a_prev),
                        (X[rows] == x_ref).all(axis=1), step)
                continue
            got, lo = eps[lo:lo + len(rows)], lo + len(rows)
            if kind == "guidance":
                E[rows] = cfg_combine(got, eps[lo:lo + len(rows)], betas[rows])
                lo += len(rows)
            else:
                E[rows] = got
            if kind == "latent_interp":
                stepped = _down(X[rows], got, step.a_t, step.a_prev)
                # the reference row's hop of this step, as the walk will take it
                ref_next = _down(x_ref, eps_ref, step.a_t, step.a_prev)
                mixed = _blend(ref_next, stepped, blend[rows, i])
                # a no-op blend keeps the directly predicted noise so the step is
                # identical to plain denoising
                _settle(E, X[rows], rows, mixed, (mixed == stepped).all(axis=1), step)
        return E

    return choose_eps


def _blend_table(configs: Sequence[ManipulationConfig], W: np.ndarray, d: int) -> np.ndarray:
    """Each blend's weights (n, T, d): a masked kind's mask where W is nonzero, else W."""
    masked = np.array([[[c.mask is not None]] for c in configs])
    masks = np.array([np.zeros(d) if c.mask is None else c.mask for c in configs])
    return np.where(masked & (W != 0.0)[..., None], masks[:, None], W[..., None])


def _settle(E: np.ndarray, x: np.ndarray, rows: np.ndarray, targets: np.ndarray,
            keep: np.ndarray, step: _Step) -> None:
    """``rows`` not kept take the noise that steps them from ``x`` onto ``targets``."""
    if not keep.all():
        moved = ~keep
        E[rows[moved]] = effective_noise(x[moved], targets[moved], step.a_t, step.a_prev)


def _hook_noise(name: str, ctx: CamContext, shape: tuple[int, ...]) -> np.ndarray:
    """Hook ``name``'s noise for one row of latent shape ``shape``, checked where it enters."""
    eps_hook = _CAM_HOOKS[name](ctx)
    if np.shape(eps_hook) != shape:
        raise ParameterError(f"cam_hook {name!r} returned shape {np.shape(eps_hook)}")
    eps_hook = np.asarray(eps_hook, dtype=np.float64)
    if not np.isfinite(eps_hook).all():
        raise DenoiserError(f"cam_hook {name!r} returned non-finite noise",
                            sampling_step=ctx.sampling_step, training_step=ctx.level)
    return eps_hook


def prompt_switch(denoiser: Denoiser, x_top: np.ndarray, c_a: ConditionEmbedding,
                  c_b: ConditionEmbedding, k: int, grid: TimestepGrid,
                  schedule: AlphaSchedule) -> PathRecord:
    """Denoise the first ``k`` steps under ``c_a`` and the rest under ``c_b``.

    Equivalent to a condition-interpolation edit with a full-strength constant
    window over the top ``k`` sampling steps.
    """
    return prompt_switches(denoiser, x_top, c_a, c_b, (k,), grid, schedule)[0]


def prompt_switches(denoiser: Denoiser, x_top: np.ndarray, c_a: ConditionEmbedding,
                    c_b: ConditionEmbedding, ks: Sequence[int], grid: TimestepGrid,
                    schedule: AlphaSchedule) -> tuple[PathRecord, ...]:
    """``prompt_switch`` for each switch point in ``ks``, walked in lock-step.

    The rows not yet switched are all on the pure ``c_a`` path, at one latent,
    so one ``c_a`` prediction serves them; each record is bitwise the one
    ``prompt_switch`` gives alone.
    """
    t_sample = grid.t_sample
    ks = tuple(ks)
    for k in ks:
        if not 0 <= k <= t_sample:
            raise ParameterError(f"k must lie in [0, {t_sample}], got {k}")
    switch = np.array(ks)
    ab = np.array([c_a.values, c_b.values])

    def choose_eps(i: int, step: _Step, X: np.ndarray, predict: Callable) -> np.ndarray:
        under_a = switch > i
        shared = np.flatnonzero(under_a)[:1]  # the rows not yet switched share a latent
        under_b = np.flatnonzero(~under_a)
        eps = predict(X[np.concatenate([shared, under_b])],
                      np.repeat(ab, [len(shared), len(under_b)], axis=0))
        E = np.empty_like(X)
        E[under_a] = eps[:len(shared)]
        E[under_b] = eps[len(shared):]
        return E

    return tuple(_walk(denoiser, grid, schedule, [x_top] * len(ks),
                       [c_b if k < t_sample else c_a for k in ks], choose_eps))
