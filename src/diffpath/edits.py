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

Noise blending draws both operands from recorded trajectories (the reference
path under c_a and the editing path under c_b, both from the shared initial
noise).  This keeps the edited path an exact convex combination of the two
pure paths whenever the denoiser is affine in the latent, which is the
anchor for the linearity checks downstream; re-predicting the c_b side on
the evolving latent would make the blend's contraction depend on the weight
and break that affinity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .denoiser import ConditionEmbedding, Denoiser
from .errors import DenoiserError, ParameterError
from .sampler import (GENERATION, Choice, ChooseEps, PathRecord, cfg_combine, ddim_step,
                      effective_noise, generate, _Step, _walk)
from .schedule import AlphaSchedule, ScheduleSpec, TimestepGrid, omega

KINDS = ("noise_interp", "noise_mask", "latent_interp", "latent_mask",
         "cond_interp", "guidance", "attention")

#: accepted shorthand spellings for config files
KIND_ALIASES = {
    "pni": "noise_interp", "pnm": "noise_mask",
    "idi": "latent_interp", "idm": "latent_mask",
    "cei": "cond_interp", "g": "guidance", "cam": "attention",
}

_MASKED_KINDS = ("noise_mask", "latent_mask")


def normalize_kind(kind: str) -> str:
    low = kind.strip().lower()
    if low in KINDS:
        return low
    if low in KIND_ALIASES:
        return KIND_ALIASES[low]
    raise ParameterError(f"unknown manipulation kind {kind!r}; expected one of {KINDS}")


def lerp(a: np.ndarray, b: np.ndarray, w: float) -> np.ndarray:
    """w * a + (1 - w) * b; w weights the first (reference) argument.

    The endpoints return the corresponding operand exactly.
    """
    if not 0.0 <= w <= 1.0:
        raise ParameterError(f"interpolation weight must lie in [0, 1], got {w}")
    if np.shape(a) != np.shape(b):
        raise ParameterError("interpolation operands must share a shape")
    if w == 1.0:
        return np.array(a, dtype=np.float64, copy=True)
    if w == 0.0:
        return np.array(b, dtype=np.float64, copy=True)
    return w * np.asarray(a, dtype=np.float64) + (1.0 - w) * np.asarray(b, dtype=np.float64)


def apply_mask(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Elementwise splice mask*a + (1-mask)*b for a binary mask."""
    mask = np.asarray(mask, dtype=np.float64)
    if np.shape(a) != np.shape(b) or np.shape(a) != mask.shape:
        raise ParameterError("mask and operands must share a shape")
    return mask * np.asarray(a, dtype=np.float64) \
        + (1.0 - mask) * np.asarray(b, dtype=np.float64)


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
    """What an attention-style hook may look at for one step."""

    denoiser: Denoiser
    x_ref: np.ndarray
    eps_ref: np.ndarray
    c_a: ConditionEmbedding
    c_b: ConditionEmbedding
    alpha_bar: float
    level: int
    sampling_step: int


CamHook = Callable[[CamContext], np.ndarray]

_CAM_HOOKS: dict[str, CamHook] = {}


def register_cam_hook(name: str, hook: CamHook) -> None:
    _CAM_HOOKS[name] = hook


def cam_hook_names() -> tuple[str, ...]:
    return tuple(sorted(_CAM_HOOKS))


register_cam_hook(
    "identity",
    lambda ctx: ctx.denoiser.predict_noise(ctx.x_ref, ctx.c_b, ctx.alpha_bar, ctx.level))
register_cam_hook("replay", lambda ctx: np.array(ctx.eps_ref, copy=True))


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

    weights = [tuple(omega(config.schedule, t_sample - i) for i in range(t_sample))
               for config in configs]
    paths = _walk(denoiser, grid, schedule, [
        (x_top, c_b, _edit_noise(denoiser, config, c_a, c_b, path_a, path_b, w))
        for config, w in zip(configs, weights)])
    return tuple(EditResult(path=path, path_a=path_a, weights=w)
                 for path, w in zip(paths, weights))


def _edit_noise(denoiser: Denoiser, config: ManipulationConfig, c_a: ConditionEmbedding,
                c_b: ConditionEmbedding, path_a: PathRecord, path_b: PathRecord | None,
                weights: tuple[float, ...]) -> ChooseEps:
    """The stepping-core callback of one manipulated pass; hop i has weight ``weights[i]``."""
    kind = config.kind
    # above its first weighted hop the pass is the editing path itself
    above = 0 if path_b is None else next(
        (i for i, w in enumerate(weights) if w != 0.0), len(weights))

    def choose_eps(i: int, step: _Step, x: np.ndarray) -> Choice:
        a_t, a_prev = step.a_t, step.a_prev
        w = weights[i]
        if i < above:
            return path_b.noises[i]
        if w == 0.0:
            (eps_b,) = yield [c_b]
            return eps_b
        if kind == "noise_interp":
            return lerp(path_a.noises[i], path_b.noises[i], w)
        if kind == "noise_mask":
            return apply_mask(path_a.noises[i], path_b.noises[i], config.mask)
        if kind == "cond_interp":
            (eps,) = yield [ConditionEmbedding(lerp(c_a.values, c_b.values, w))]
            return eps
        if kind == "guidance":
            eps_a, eps_b = yield [c_a, c_b]
            return cfg_combine(eps_a, eps_b, config.beta)
        if kind in ("latent_interp", "latent_mask"):
            (eps_b,) = yield [c_b]
            stepped = ddim_step(x, eps_b, a_t, a_prev)
            ref = path_a.latents[i + 1]
            blended = lerp(ref, stepped, w) if kind == "latent_interp" \
                else apply_mask(ref, stepped, config.mask)
            # a no-op blend keeps the directly predicted noise so the step is
            # identical to plain denoising
            if np.array_equal(blended, stepped):
                return eps_b
            return effective_noise(x, blended, a_t, a_prev)
        # attention
        ctx = CamContext(denoiser=denoiser, x_ref=path_a.latents[i],
                         eps_ref=path_a.noises[i], c_a=c_a, c_b=c_b,
                         alpha_bar=a_t, level=step.level, sampling_step=step.sampling_step)
        eps_hook = np.asarray(_CAM_HOOKS[config.cam_hook](ctx), dtype=np.float64)
        if eps_hook.shape != x.shape:
            raise ParameterError(
                f"cam_hook {config.cam_hook!r} returned shape {eps_hook.shape}")
        if not np.isfinite(eps_hook).all():
            raise DenoiserError(f"cam_hook {config.cam_hook!r} returned non-finite noise",
                                sampling_step=step.sampling_step, training_step=step.level)
        if np.array_equal(x, path_a.latents[i]):
            # evolving latent coincides with the reference; step directly
            return eps_hook
        stepped = ddim_step(path_a.latents[i], eps_hook, a_t, a_prev)
        return effective_noise(x, stepped, a_t, a_prev)

    return choose_eps


def prompt_switch(denoiser: Denoiser, x_top: np.ndarray, c_a: ConditionEmbedding,
                  c_b: ConditionEmbedding, k: int, grid: TimestepGrid,
                  schedule: AlphaSchedule) -> PathRecord:
    """Denoise the first ``k`` steps under ``c_a`` and the rest under ``c_b``.

    Equivalent to a condition-interpolation edit with a full-strength constant
    window over the top ``k`` sampling steps.
    """
    t_sample = grid.t_sample
    if not 0 <= k <= t_sample:
        raise ParameterError(f"k must lie in [0, {t_sample}], got {k}")
    def choose_eps(i: int, step: _Step, x: np.ndarray) -> Choice:
        (eps,) = yield [c_a if i < k else c_b]
        return eps

    return _walk(denoiser, grid, schedule,
                 [(x_top, c_b if k < t_sample else c_a, choose_eps)])[0]
