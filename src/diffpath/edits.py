"""Path-manipulation operators and the schedule-driven edit loop.

Seven operators act on the generation path of an editing condition ``c_b``
while injecting structure from a reference path generated under ``c_a`` from
the same initial noise:

==============  =====================================================
kind            per-step action while the schedule weight w is nonzero
==============  =====================================================
noise_interp    blend the two recorded noise streams and step with the mix
noise_mask      splice the recorded noise streams through a binary mask
latent_interp   blend the reference latent into the stepped latent
latent_mask     splice reference latents through a binary mask
cond_interp     denoise under the blended condition embedding
guidance        extrapolate between predictions of c_a and c_b by beta
attention       delegate the prediction to a registered hook, stepping
                from the reference latent
==============  =====================================================

Wherever the weight is zero the step is plain c_b denoising of the evolving
latent, so a schedule amplitude of zero reproduces the c_b path for every
kind.  Interpolation weights always weight the reference (first) argument.

An attention hook is a plain function of a :class:`CamContext`.  It reads the
predictions of both conditions at the reference latent (the c_b one is made
in the step's one denoiser call, shared by every attention pass) and returns
the step's noise.

Noise blending draws both operands from recorded trajectories (the reference
path under c_a and the editing path under c_b, both from the shared initial
noise).  This keeps the edited path an exact convex combination of the two
pure paths whenever the denoiser is affine in the latent, which is the
anchor for the linearity checks downstream; re-predicting the c_b side on
the evolving latent would make the blend's contraction depend on the weight
and break that affinity.
"""

from __future__ import annotations

import functools
import warnings
from collections.abc import Generator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .denoiser import ConditionEmbedding, Denoiser
from .errors import DenoiserError, ParameterError
from .sampler import (GENERATION, ChooseEps, PathRecord, cfg_combine, effective_noise,
                      generate, _down, _Step, _walk)
from .schedule import AlphaSchedule, ScheduleSpec, TimestepGrid, omega

KINDS = ("noise_interp", "noise_mask", "latent_interp", "latent_mask",
         "cond_interp", "guidance", "attention")

_MASKED_KINDS = ("noise_mask", "latent_mask")


def normalize_kind(kind: str) -> str:
    low = kind.strip().lower()
    if low in KINDS:
        return low
    raise ParameterError(f"unknown manipulation kind {kind!r}; expected one of {KINDS}")


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
    """``lerp``'s arithmetic; ``w`` may be a column of per-row weights (n, 1).

    A weight of exactly 1 or 0 copies its operand: ``1.0 * a + 0.0 * b`` is
    not ``a`` where ``a`` is -0.0.
    """
    return np.where(w == 1.0, a, np.where(w == 0.0, b, w * a + (1.0 - w) * b))


def apply_mask(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Elementwise splice mask*a + (1-mask)*b for a binary mask."""
    mask = np.asarray(mask, dtype=np.float64)
    if np.shape(a) != np.shape(b) or np.shape(a) != mask.shape:
        raise ParameterError("mask and operands must share a shape")
    return _splice(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64), mask)


def _splice(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``apply_mask``'s arithmetic; ``mask`` may hold one mask per row (n, d)."""
    return mask * a + (1.0 - mask) * b


def validate_mask(mask, d: int) -> np.ndarray:
    values = np.asarray(mask, dtype=np.float64)
    if values.ndim != 1 or values.size != d:
        raise ParameterError(f"mask must be a vector of dimension {d}")
    if not np.all((values == 0.0) | (values == 1.0)):
        raise ParameterError("mask entries must be exactly 0 or 1 (soft masks rejected)")
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class CamContext:
    """What an attention-style hook may look at for one step.

    Both predictions are at the reference latent ``x_ref``: ``eps_ref`` is
    the reference condition's (path A's recorded noise) and ``eps_edit`` the
    editing condition's, asked for in the step's one denoiser call.
    """

    x_ref: np.ndarray
    eps_ref: np.ndarray
    eps_edit: np.ndarray
    c_a: ConditionEmbedding
    c_b: ConditionEmbedding
    alpha_bar: float
    level: int
    sampling_step: int


#: a hook maps a step's context to the noise that steps the reference latent
CamHook = Callable[[CamContext], np.ndarray]

_CAM_HOOKS: dict[str, CamHook] = {}


def register_cam_hook(name: str, hook: CamHook) -> None:
    _CAM_HOOKS[name] = hook


def cam_hook_names() -> tuple[str, ...]:
    return tuple(sorted(_CAM_HOOKS))


register_cam_hook("identity", lambda ctx: ctx.eps_edit)
register_cam_hook("replay", lambda ctx: ctx.eps_ref)


@dataclass(frozen=True)
class ManipulationConfig:
    """One point in the manipulation design space.

    ``beta`` is required exactly for the guidance kind, ``mask`` exactly for
    the masked kinds, ``cam_hook`` exactly for the attention kind.  Masked
    kinds take a constant schedule only and ignore the amplitude's magnitude
    (the window gates them; an amplitude of zero still disables them).
    """

    kind: str
    schedule: ScheduleSpec
    beta: float | None = None
    mask: np.ndarray | None = None
    cam_hook: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", normalize_kind(self.kind))
        if self.kind == "guidance":
            if self.beta is None:
                raise ParameterError("guidance requires beta")
            if not -1.0 <= self.beta <= 0.0:
                warnings.warn(
                    f"guidance beta={self.beta} outside [-1, 0]: extrapolating beyond "
                    "the interpolation-equivalent range", stacklevel=2)
        elif self.beta is not None:
            raise ParameterError(f"beta is only meaningful for guidance, not {self.kind}")
        if self.kind in _MASKED_KINDS:
            if self.mask is None:
                raise ParameterError(f"{self.kind} requires a mask")
            if self.schedule.kind != "constant":
                raise ParameterError(f"{self.kind} uses a constant window only")
        elif self.mask is not None:
            raise ParameterError(f"mask is only meaningful for masked kinds, not {self.kind}")
        if self.kind == "attention":
            if self.cam_hook is None:
                raise ParameterError("attention requires a cam_hook name")
            if self.cam_hook not in _CAM_HOOKS:
                raise ParameterError(
                    f"unknown cam_hook {self.cam_hook!r}; registered: {cam_hook_names()}")
        elif self.cam_hook is not None:
            raise ParameterError("cam_hook is only meaningful for the attention kind")


@dataclass(frozen=True)
class EditResult:
    """An edited trajectory plus the reference path and the applied weights.

    ``weights[i]`` is the schedule weight at the step taken from
    ``path.latents[i]``; it is zero for every step outside the schedule
    support.
    """

    path: PathRecord
    path_a: PathRecord
    weights: tuple[float, ...]


def run_edit(denoiser: Denoiser, x_top: np.ndarray, c_a: ConditionEmbedding,
             c_b: ConditionEmbedding, config: ManipulationConfig,
             grid: TimestepGrid, schedule: AlphaSchedule,
             path_a: PathRecord | None = None,
             path_b: PathRecord | None = None) -> EditResult:
    """Run one manipulated generation pass from the shared initial noise.

    The reference path under ``c_a`` (and, for the noise-stream kinds, the
    editing path under ``c_b``) is generated on demand; precomputed paths
    are the plain generations under those conditions, and must share the
    grid and start at ``x_top``.  Latent blends and hook steps are recorded
    through their replay-equivalent noise so the returned path replays like
    any other trajectory.
    """
    return run_edits(denoiser, x_top, c_a, c_b, (config,), grid, schedule,
                     path_a=path_a, path_b=path_b)[0]


def run_edits(denoiser: Denoiser, x_top: np.ndarray, c_a: ConditionEmbedding,
              c_b: ConditionEmbedding, configs: Sequence[ManipulationConfig],
              grid: TimestepGrid, schedule: AlphaSchedule,
              path_a: PathRecord | None = None,
              path_b: PathRecord | None = None) -> tuple[EditResult, ...]:
    """``run_edit`` for each config, all passes walked in lock-step.

    Each step's predictions for every pass go out as one denoiser call; each
    result is bitwise the one ``run_edit`` gives for its config alone.  While
    the editing path ``path_b`` is known, every hop above a pass's first
    weighted step reuses its noise: until then the pass is that path.
    """
    t_sample = grid.t_sample
    for config in configs:
        if config.schedule.total != t_sample:
            raise ParameterError(
                f"schedule covers {config.schedule.total} steps but the grid has {t_sample}")
        if config.mask is not None:
            validate_mask(config.mask, np.asarray(x_top).size)

    def _check_path(path: PathRecord, label: str, c: ConditionEmbedding) -> None:
        if path.grid.steps != grid.steps or path.direction != GENERATION:
            raise ParameterError(f"precomputed {label} path must match the grid")
        if not np.array_equal(path.latents[0], np.asarray(x_top, dtype=np.float64)):
            raise ParameterError(f"precomputed {label} path must start at x_top")
        if not np.array_equal(path.condition.values, c.values):
            raise ParameterError(f"precomputed {label} path must be under its condition")

    if path_a is None:
        path_a = generate(denoiser, x_top, c_a, grid, schedule)
    else:
        _check_path(path_a, "reference", c_a)
    if path_b is not None:
        _check_path(path_b, "editing", c_b)
    elif any(config.kind in ("noise_interp", "noise_mask") for config in configs):
        path_b = generate(denoiser, x_top, c_b, grid, schedule)
    if not configs:
        return ()

    weights = [tuple(omega(config.schedule, t_sample - i) for i in range(t_sample))
               for config in configs]
    paths = _walk(denoiser, grid, schedule, [x_top] * len(configs), [c_b] * len(configs),
                  _edit_noises(configs, c_a, c_b, path_a, path_b, weights))
    return tuple(EditResult(path=path, path_a=path_a, weights=w)
                 for path, w in zip(paths, weights))


#: how a row takes a hop's noise when it does not apply its kind's operator
_PLAIN, _REUSE = "plain", "reuse"


def _edit_noises(configs: Sequence[ManipulationConfig], c_a: ConditionEmbedding,
                 c_b: ConditionEmbedding, path_a: PathRecord, path_b: PathRecord | None,
                 weights: list[tuple[float, ...]]) -> ChooseEps:
    """The stepping-core callback of the manipulated passes, one row per config.

    At each hop the rows fall into groups: while ``path_b`` is known, rows
    above their first weighted hop reuse its noise (until then the pass is
    that path); rows of weight zero take the plain ``c_b`` prediction; the
    other rows apply their kind's operator.  Each group's arithmetic runs on
    all its rows at once and is elementwise, so every row gets the bits of a
    walk of its own.  The predictions of all groups go out as one call per
    round, with one ``c_b`` prediction at the reference latent that every
    attention row's hook reads.
    """
    W = np.array(weights)
    t_sample = W.shape[1]
    tags = np.where(W == 0.0, _PLAIN, [[c.kind] for c in configs])
    if path_b is not None:
        weighted = W != 0.0
        first = np.where(weighted.any(axis=1), weighted.argmax(axis=1), t_sample)
        tags[np.arange(t_sample) < first[:, None]] = _REUSE
    columns = tags.T.tolist()
    masks = np.array([np.zeros(path_a.x0.size) if c.mask is None else c.mask
                      for c in configs])
    betas = np.array([[0.0 if c.beta is None else c.beta] for c in configs])
    blended = functools.cache(lambda w: ConditionEmbedding(_blend(c_a.values, c_b.values, w)))

    def choose_eps(i: int, step: _Step, X: np.ndarray) -> Generator:
        E = np.empty_like(X)
        x_ref = path_a.latents[i]
        latents, conditions = [], []
        # a hop's groups in order of their first row, each with its row numbers
        members: dict[str, list[int]] = {}
        for r, tag in enumerate(columns[i]):
            members.setdefault(tag, []).append(r)
        groups = [(kind, np.array(rows)) for kind, rows in members.items()]
        for kind, rows in groups:
            if kind == _REUSE:
                E[rows] = path_b.noises[i]
            elif kind == "noise_interp":
                E[rows] = _blend(path_a.noises[i], path_b.noises[i], W[rows, i, None])
            elif kind == "noise_mask":
                E[rows] = _splice(path_a.noises[i], path_b.noises[i], masks[rows])
            elif kind == "attention":
                latents.append(x_ref[None])
                conditions.append(c_b)
            elif kind == "guidance":
                latents += [X[rows]] * 2
                conditions += [c_a] * len(rows) + [c_b] * len(rows)
            elif kind == "cond_interp":
                latents.append(X[rows])
                conditions += [blended(w) for w in W[rows, i].tolist()]
            else:  # plain, and the latent kinds' prediction before their blend
                latents.append(X[rows])
                conditions += [c_b] * len(rows)
        if latents:
            eps = yield np.concatenate(latents), conditions
        lo = 0
        for kind, rows in groups:
            if kind in (_REUSE, "noise_interp", "noise_mask"):
                continue
            if kind == "attention":
                eps_edit, lo = eps[lo], lo + 1
                eps_edit.setflags(write=False)
                ctx = CamContext(x_ref=x_ref, eps_ref=path_a.noises[i], eps_edit=eps_edit,
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
            if kind in ("latent_interp", "latent_mask"):
                ref = path_a.latents[i + 1]
                stepped = _down(X[rows], got, step.a_t, step.a_prev)
                mixed = _blend(ref, stepped, W[rows, i, None]) if kind == "latent_interp" \
                    else _splice(ref, stepped, masks[rows])
                # a no-op blend keeps the directly predicted noise so the step is
                # identical to plain denoising
                _settle(E, X[rows], rows, mixed, (mixed == stepped).all(axis=1), step)
        return E

    return choose_eps


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

    def choose_eps(i: int, step: _Step, X: np.ndarray) -> Generator:
        under_a = switch > i
        shared = np.flatnonzero(under_a)[:1]  # the rows not yet switched share a latent
        under_b = np.flatnonzero(~under_a)
        eps = yield (X[np.concatenate([shared, under_b])],
                     [c_a] * len(shared) + [c_b] * len(under_b))
        E = np.empty_like(X)
        E[under_a] = eps[:len(shared)]
        E[under_b] = eps[len(shared):]
        return E

    return tuple(_walk(denoiser, grid, schedule, [x_top] * len(ks),
                       [c_b if k < t_sample else c_a for k in ks], choose_eps))
