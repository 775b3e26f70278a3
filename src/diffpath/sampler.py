"""Deterministic sampling, inversion, and guided-regeneration optimization.

One sampling step maps x_t to x_{t-1} with

    x_{t-1} = sqrt(a_prev) * f(x_t, eps, a_t) + sqrt(1 - a_prev) * eps,
    f(x_t, eps, a_t) = (x_t - sqrt(1 - a_t) * eps) / sqrt(a_t),

where a is the cumulative signal factor of the step's training index and
``f`` is the clean latent implied by the pair (x_t, eps).  Inversion walks
the same grid upward, predicting the noise at the target level of each hop
(evaluating at the current level would hit the undefined a = 1 endpoint on
the very first hop from clean data).

Every pass over a grid goes through one private stepping core, ``_walk``.
It builds the grid's step table once (training level, sampling step and
the two signal factors of each position) and walks it in either direction;
at each hop a callback ``choose_eps(i, step, x)`` supplies the noise and the
core applies the update and records the path.  Generation, inversion,
null-embedding tuning, the editing operators and path replay are all such
callbacks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .denoiser import ConditionEmbedding, Denoiser
from .errors import DenoiserError, ParameterError
from .schedule import AlphaSchedule, TimestepGrid

log = logging.getLogger(__name__)

GENERATION = "generation"
INVERSION = "inversion"


def f_theta(x_t: np.ndarray, eps: np.ndarray, alpha_bar_t: float) -> np.ndarray:
    """Predicted clean latent implied by (x_t, eps) at level alpha_bar_t."""
    a = float(alpha_bar_t)
    if not 0.0 < a <= 1.0:
        raise ParameterError(f"alpha_bar_t must lie in (0, 1], got {a}")
    return (x_t - np.sqrt(1.0 - a) * eps) / np.sqrt(a)


def ddim_step(x_t: np.ndarray, eps: np.ndarray,
              alpha_bar_t: float, alpha_bar_prev: float) -> np.ndarray:
    """One deterministic update from level alpha_bar_t down to alpha_bar_prev."""
    a_t = float(alpha_bar_t)
    a_prev = float(alpha_bar_prev)
    if not 0.0 < a_t < 1.0:
        raise ParameterError(f"alpha_bar_t must lie in (0, 1), got {a_t}")
    if not 0.0 < a_prev <= 1.0:
        raise ParameterError(f"alpha_bar_prev must lie in (0, 1], got {a_prev}")
    if a_prev < a_t:
        raise ParameterError(
            f"schedule order violated: alpha_bar_prev={a_prev} < alpha_bar_t={a_t}")
    if a_prev == a_t:
        # algebraic fixed point: no noise is removed
        return x_t + 0.0 * eps
    return np.sqrt(a_prev) * f_theta(x_t, eps, a_t) + np.sqrt(1.0 - a_prev) * eps


def invert_step(x_t: np.ndarray, eps: np.ndarray,
                alpha_bar_t: float, alpha_bar_next: float) -> np.ndarray:
    """One upward hop from level alpha_bar_t to the noisier alpha_bar_next."""
    a_t = float(alpha_bar_t)
    a_next = float(alpha_bar_next)
    if not 0.0 < a_t <= 1.0:
        raise ParameterError(f"alpha_bar_t must lie in (0, 1], got {a_t}")
    if not 0.0 < a_next <= a_t:
        raise ParameterError(
            f"inversion requires alpha_bar_next <= alpha_bar_t, got {a_next} > {a_t}")
    return np.sqrt(a_next) * f_theta(x_t, eps, a_t) + np.sqrt(1.0 - a_next) * eps


def effective_noise(x_t: np.ndarray, x_prev: np.ndarray,
                    alpha_bar_t: float, alpha_bar_prev: float) -> np.ndarray:
    """Solve ddim_step(x_t, eps, a_t, a_prev) = x_prev for eps.

    The update is affine in eps with slope
    gamma = sqrt(1 - a_prev) - sqrt(a_prev * (1 - a_t) / a_t), which is
    nonzero whenever the two levels differ; edits that blend latents rather
    than noises use this to stay replayable as ordinary steps.
    """
    a_t = float(alpha_bar_t)
    a_prev = float(alpha_bar_prev)
    if a_prev == a_t:
        raise ParameterError("effective noise undefined for a zero-width step")
    gamma = np.sqrt(1.0 - a_prev) - np.sqrt(a_prev * (1.0 - a_t) / a_t)
    return (x_prev - np.sqrt(a_prev / a_t) * x_t) / gamma


def cfg_combine(eps_cond: np.ndarray, eps_null: np.ndarray, beta: float) -> np.ndarray:
    """Guidance-scale combination eps_cond + beta * (eps_cond - eps_null)."""
    if np.shape(eps_cond) != np.shape(eps_null):
        raise ParameterError("guidance operands must share a shape")
    return eps_cond + beta * (eps_cond - eps_null)


@dataclass(frozen=True)
class PathRecord:
    """Full trajectory of one deterministic pass over a timestep grid.

    For generation, ``latents[i]`` sits at sampling index T - i (so index 0 is
    the initial noise and the last entry is the clean output); for inversion
    the order is ascending and ``latents[i]`` sits at sampling index i.  Each
    ``noises[i]`` is the prediction consumed by the hop from ``latents[i]`` to
    ``latents[i+1]``, so replaying the hops reproduces the stored latents
    exactly.
    """

    grid: TimestepGrid
    latents: tuple[np.ndarray, ...]
    noises: tuple[np.ndarray, ...]
    condition: ConditionEmbedding
    direction: str

    def __post_init__(self):
        if self.direction not in (GENERATION, INVERSION):
            raise ParameterError(f"unknown direction {self.direction!r}")
        if len(self.latents) != len(self.noises) + 1:
            raise ParameterError("need exactly one more latent than noise entries")
        if len(self.noises) != self.grid.t_sample:
            raise ParameterError("trajectory length must match the grid")
        for arr in (*self.latents, *self.noises):
            arr.setflags(write=False)

    @property
    def x0(self) -> np.ndarray:
        """Clean endpoint of the trajectory."""
        return self.latents[-1] if self.direction == GENERATION else self.latents[0]

    @property
    def x_top(self) -> np.ndarray:
        """Fully noised endpoint of the trajectory."""
        return self.latents[0] if self.direction == GENERATION else self.latents[-1]

    def replay_errors(self, schedule: AlphaSchedule) -> np.ndarray:
        """Max-abs replay residual per hop; all-zero for a consistent record."""
        errs = []

        def replay(i: int, step: _Step, x: np.ndarray) -> np.ndarray:
            redo = _hop(step, self.latents[i], self.noises[i], self.direction)
            errs.append(np.max(np.abs(redo - self.latents[i + 1])))
            return self.noises[i]

        _walk(self.grid, schedule, self.latents[0], self.condition, replay, self.direction)
        return np.array(errs)


class _Step(NamedTuple):
    """One grid position: a generation hop from ``level`` down to the next level."""

    level: int
    sampling_step: int
    a_t: float
    a_prev: float


def _step_table(grid: TimestepGrid, schedule: AlphaSchedule) -> tuple[_Step, ...]:
    """The grid's positions in generation order, each with its signal factors."""
    if grid.level(0) > schedule.t_train:
        raise ParameterError(
            f"grid top {grid.level(0)} exceeds schedule length {schedule.t_train}")
    t_sample = grid.t_sample
    return tuple(_Step(grid.level(i), t_sample - i, schedule.at(grid.level(i)),
                       schedule.at(grid.prev_level(i))) for i in range(t_sample))


def _hop(step: _Step, x: np.ndarray, eps: np.ndarray, direction: str) -> np.ndarray:
    """Generation steps down from ``step.level``; inversion climbs up to it."""
    if direction == GENERATION:
        return ddim_step(x, eps, step.a_t, step.a_prev)
    return invert_step(x, eps, step.a_prev, step.a_t)


def _walk(grid: TimestepGrid, schedule: AlphaSchedule, x_start: np.ndarray,
          condition: ConditionEmbedding,
          choose_eps: Callable[[int, _Step, np.ndarray], np.ndarray],
          direction: str = GENERATION) -> PathRecord:
    """The stepping core: hop ``i`` takes ``choose_eps(i, step, x)`` as its noise.

    Generation visits the step table top down, inversion bottom up; the
    returned record holds every latent and the noise of every hop.
    """
    table = _step_table(grid, schedule)
    x = _as_latent(x_start)
    latents = [x]
    noises = []
    for i, step in enumerate(table if direction == GENERATION else table[::-1]):
        eps = choose_eps(i, step, x)
        x = _hop(step, x, eps, direction)
        noises.append(eps)
        latents.append(x)
    return PathRecord(grid=grid, latents=tuple(latents), noises=tuple(noises),
                      condition=condition, direction=direction)


def _predict(denoiser: Denoiser, x: np.ndarray, c: ConditionEmbedding,
             step: _Step) -> np.ndarray:
    return _checked_noise(lambda: denoiser.predict_noise(x, c, step.a_t, step.level),
                          np.shape(x), step)


def _predict_batch(denoiser: Denoiser, x: np.ndarray,
                   conditions: list[ConditionEmbedding], step: _Step) -> np.ndarray:
    """One batched call for ``x`` under each condition; row i is ``conditions[i]``'s noise."""
    X = np.full((len(conditions), x.size), x)
    return _checked_noise(
        lambda: denoiser.predict_noise_batch(X, conditions, step.a_t, step.level),
        X.shape, step)


def _checked_noise(call: Callable[[], np.ndarray], shape: tuple[int, ...],
                   step: _Step) -> np.ndarray:
    """Run one denoiser call for ``step``; a failure or a bad answer names the step."""
    level, sampling_step = step.level, step.sampling_step
    try:
        eps = call()
    except (ParameterError, ZeroDivisionError):
        raise
    except DenoiserError as err:
        if err.sampling_step is None:
            # preserve the concrete kind; every DenoiserError shares the ctor
            raise type(err)(str(err), sampling_step=sampling_step,
                            training_step=level) from err
        raise
    except Exception as err:  # pragma: no cover - defensive wrap
        raise DenoiserError(f"denoiser call failed: {err}",
                            sampling_step=sampling_step, training_step=level) from err
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != shape:
        raise DenoiserError(
            f"denoiser returned shape {eps.shape}, expected {shape}",
            sampling_step=sampling_step, training_step=level)
    if not np.isfinite(eps).all():
        raise DenoiserError("denoiser returned non-finite noise",
                            sampling_step=sampling_step, training_step=level)
    return eps


def _as_latent(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ParameterError("latent must be a vector")
    if not np.all(np.isfinite(x)):
        raise ParameterError("latent entries must be finite")
    return x.copy()


def generate(denoiser: Denoiser, x_top: np.ndarray, c: ConditionEmbedding,
             grid: TimestepGrid, schedule: AlphaSchedule,
             guidance: tuple[float, object] | None = None) -> PathRecord:
    """Run the full deterministic pass from noise to data, recording the path.

    ``guidance`` is an optional ``(beta, null_embeddings)`` pair; the null
    side may be a single shared embedding or one embedding per step in loop
    order.  The recorded noise at each step is the combined prediction that
    actually drove the update.
    """
    if guidance is not None:
        beta, nulls = guidance
        if not isinstance(nulls, ConditionEmbedding) and len(nulls) != grid.t_sample:
            raise ParameterError(
                f"need one null embedding per step ({grid.t_sample}), got {len(nulls)}")

    def choose_eps(i: int, step: _Step, x: np.ndarray) -> np.ndarray:
        if guidance is None:
            return _predict(denoiser, x, c, step)
        null = nulls if isinstance(nulls, ConditionEmbedding) else nulls[i]
        eps_c, eps_null = _predict_batch(denoiser, x, [c, null], step)
        return cfg_combine(eps_c, eps_null, beta)

    return _walk(grid, schedule, x_top, c, choose_eps)


def ddim_invert(denoiser: Denoiser, x0: np.ndarray, c: ConditionEmbedding,
                grid: TimestepGrid, schedule: AlphaSchedule) -> PathRecord:
    """Walk the grid upward from clean data to the fully noised latent.

    Each hop raises the level from the grid's previous index to its step
    index, predicting the noise at the target level.
    """
    return _walk(grid, schedule, x0, c, lambda i, step, x: _predict(denoiser, x, c, step),
                 INVERSION)


@dataclass(frozen=True)
class NullTextResult:
    """Per-step optimized empty-condition embeddings, in generation loop order."""

    embeddings: tuple[ConditionEmbedding, ...]
    objectives: tuple[float, ...]
    diagnostics: tuple[str, ...] = field(default=())


def null_text_invert(denoiser: Denoiser, x0: np.ndarray, c: ConditionEmbedding,
                     beta: float, grid: TimestepGrid, schedule: AlphaSchedule,
                     iterations: int = 10, step_size: float = 0.1) -> NullTextResult:
    """Optimize per-step empty-condition embeddings for guided reconstruction.

    The reference trajectory is the plain inversion of ``x0`` under ``c``.
    Processing steps from the top down, each step's null embedding is tuned by
    central-difference gradient descent so the guided update from the evolving
    latent lands on the reference latent; the per-step objective never
    increases (a step that would increase it is reverted and optimization of
    that step stops with a diagnostic).  Every step starts from the all-zeros
    embedding and probes each coordinate at +/- 1e-4.  With ``beta = 0`` the
    objective does not depend on the null side and the all-zeros embedding is
    returned for every step.

    A step's predictions all share its latent, so they go out as batches:
    first the conditional, the initial null and its 2m probes, then each
    candidate with its own probes (none after the last iteration).  The
    accepted null's prediction is reused for the guided hop.
    """
    if iterations < 0:
        raise ParameterError("iterations must be >= 0")
    inv = ddim_invert(denoiser, x0, c, grid, schedule)
    embeddings: list[ConditionEmbedding] = []
    objectives: list[float] = []
    diagnostics: list[str] = []

    half_width = 1e-4  # central-difference half-width of the gradient probes
    bumps = half_width * np.eye(denoiser.m)

    def tune(i: int, step: _Step, x: np.ndarray) -> np.ndarray:
        target = inv.latents[step.sampling_step - 1]

        def with_probes(null: np.ndarray, probe: bool) -> list[ConditionEmbedding]:
            # null, then null +/- eps*e_j for each coordinate j when a gradient is needed
            rows = [null]
            if probe:
                for bump in bumps:
                    rows += [null + bump, null - bump]
            return [ConditionEmbedding(v) for v in rows]

        def losses(eps_null: np.ndarray) -> list[float]:
            # elementwise over the rows, so each row repeats the one-row arithmetic
            guided = cfg_combine(np.broadcast_to(eps_c, eps_null.shape), eps_null, beta)
            resid = ddim_step(x, guided, step.a_t, step.a_prev) - target
            return [float(r @ r) for r in resid]

        null = np.zeros(denoiser.m)
        eps = _predict_batch(denoiser, x, [c, *with_probes(null, iterations > 0)], step)
        eps_c, eps_best = eps[0], eps[1]
        best, *probed = losses(eps[1:])
        for it in range(iterations):
            grad = np.array([(probed[2 * j] - probed[2 * j + 1]) / (2.0 * half_width)
                             for j in range(null.size)])
            candidate = null - step_size * grad
            eps_null = _predict_batch(denoiser, x, with_probes(candidate, it + 1 < iterations),
                                      step)
            value, *probed = losses(eps_null)
            if value > best * (1.0 + 1e-12) + 1e-300:
                msg = (f"sampling step {step.sampling_step}: objective rose "
                       f"{best:.6e} -> {value:.6e} at iteration {it}; reverted and stopped")
                diagnostics.append(msg)
                log.warning("null-embedding optimization diverged: %s", msg)
                break
            null, best, eps_best = candidate, value, eps_null[0]
        embeddings.append(ConditionEmbedding(null))
        objectives.append(best)
        return cfg_combine(eps_c, eps_best, beta)

    _walk(grid, schedule, inv.x_top, c, tune)
    return NullTextResult(embeddings=tuple(embeddings), objectives=tuple(objectives),
                          diagnostics=tuple(diagnostics))
