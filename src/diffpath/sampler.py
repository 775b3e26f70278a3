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
It builds the grid's step table once (training level, sampling step and the
two signal factors of each position, its levels checked once per walk) and
walks it in either direction for N rows in lock-step.  The rows' latents
are one (N, d) array, and each step is one hop of all of them: the update
is elementwise, so every row gets the bits of a walk of its own.  A callback
``choose(i, step, X, predict)`` returns the step's noises, applying its
operators to whole groups of rows.  ``predict(latents, conditions)`` is one
``predict_noise_batch`` call that pairs each row of one condition matrix
(N, m) with a latent (the rows' own, or others, such as the reference
path's).  Guided generation, null-embedding tuning and the editing
operators are such callbacks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .denoiser import ConditionEmbedding, Denoiser
from .errors import DenoiserError, ParameterError
from .schedule import AlphaSchedule, TimestepGrid

GENERATION = "generation"
INVERSION = "inversion"


def f_theta(x_t: np.ndarray, eps: np.ndarray, alpha_bar_t: float) -> np.ndarray:
    """Predicted clean latent implied by (x_t, eps) at level alpha_bar_t."""
    a = float(alpha_bar_t)
    if not 0.0 < a <= 1.0:
        raise ParameterError(f"alpha_bar_t must lie in (0, 1], got {a}")
    return _clean(x_t, eps, a)


def _clean(x_t: np.ndarray, eps: np.ndarray, a: float) -> np.ndarray:
    return (x_t - np.sqrt(1.0 - a) * eps) / np.sqrt(a)


def _down(x_t: np.ndarray, eps: np.ndarray, a_t: float, a_prev: float) -> np.ndarray:
    if a_prev == a_t:
        # algebraic fixed point: no noise is removed
        return x_t + 0.0 * eps
    return _move(x_t, eps, a_t, a_prev)


def _move(x_t: np.ndarray, eps: np.ndarray, a_from: float, a_to: float) -> np.ndarray:
    return np.sqrt(a_to) * _clean(x_t, eps, a_from) + np.sqrt(1.0 - a_to) * eps


def ddim_step(x_t: np.ndarray, eps: np.ndarray,
              alpha_bar_t: float, alpha_bar_prev: float) -> np.ndarray:
    """One deterministic update from level alpha_bar_t down to alpha_bar_prev.

    The walks do not call this: their step table checks a grid's levels once
    per walk, and every hop of a step then runs this arithmetic on all rows
    at once.  Being elementwise, it gives each row the bits of this function.
    """
    a_t = float(alpha_bar_t)
    a_prev = float(alpha_bar_prev)
    if not 0.0 < a_t < 1.0:
        raise ParameterError(f"alpha_bar_t must lie in (0, 1), got {a_t}")
    if not 0.0 < a_prev <= 1.0:
        raise ParameterError(f"alpha_bar_prev must lie in (0, 1], got {a_prev}")
    if a_prev < a_t:
        raise ParameterError(
            f"schedule order violated: alpha_bar_prev={a_prev} < alpha_bar_t={a_t}")
    return _down(x_t, eps, a_t, a_prev)


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
    exactly.  Entries are read-only (a walk's are views of its two buffers).
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
            if arr.flags.writeable:
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
        steps = _step_table(self.grid, schedule, self.direction)
        return np.array([np.max(np.abs(_hop(step, x, eps, self.direction) - after))
                         for step, x, eps, after in
                         zip(steps, self.latents, self.noises, self.latents[1:])])


class _Step(NamedTuple):
    """One grid position: a generation hop from ``level`` down to the next level."""

    level: int
    sampling_step: int
    a_t: float
    a_prev: float


def _step_table(grid: TimestepGrid, schedule: AlphaSchedule,
                direction: str) -> tuple[_Step, ...]:
    """The grid's positions in walk order, each with its two signal factors.

    ``AlphaSchedule`` (non-increasing within (0, 1]) and ``TimestepGrid``
    (strictly decreasing, >= 1) order every level already.  What they leave
    open is checked here, once per walk in either direction: the grid's top
    must lie on the schedule, and its lowest level, the least noisy, must
    hold noise (alpha_bar < 1), so every level does.
    """
    levels = grid.steps
    if levels[0] > schedule.t_train:
        raise ParameterError(f"grid top {levels[0]} exceeds schedule length {schedule.t_train}")
    table = tuple(map(_Step, levels, range(grid.t_sample, 0, -1), map(schedule.at, levels),
                      map(schedule.at, (*levels[1:], 0))))
    if table[-1].a_t == 1.0:
        raise ParameterError(f"grid level {levels[-1]} has alpha_bar = 1: it holds no noise")
    return table if direction == GENERATION else table[::-1]


def _hop(step: _Step, x: np.ndarray, eps: np.ndarray, direction: str) -> np.ndarray:
    """Generation steps down from ``step.level``; inversion climbs up to it."""
    if direction == GENERATION:
        return _down(x, eps, step.a_t, step.a_prev)
    return _move(x, eps, step.a_prev, step.a_t)


#: a step's callback ``choose(i, step, X, predict)``: returns the noises of all
#: rows (N, d); ``predict(latents, conditions (N, m))`` makes one denoiser call
ChooseEps = Callable[[int, _Step, np.ndarray, Callable], np.ndarray]


def _walk(denoiser: Denoiser, grid: TimestepGrid, schedule: AlphaSchedule,
          starts: Sequence[np.ndarray], conditions: Sequence[ConditionEmbedding],
          choose: ChooseEps | None = None, direction: str = GENERATION) -> list[PathRecord]:
    """The stepping core: N rows, from ``starts`` under ``conditions``, walk in lock-step.

    The rows' latents are one (N, d) array ``X`` and each step is one hop of
    all of them.  Hop ``i`` takes the noises ``choose(i, step, X, predict)``
    returns, one row each; ``predict(latents, conditions)`` is one denoiser
    call for one prediction per condition row (N, m) at the paired latent (a
    row of ``X``, or any other latent, such as a reference path's).  The
    default callback predicts row r under ``conditions[r]``.  Generation
    visits the step table top down, inversion bottom up; the records hold
    views of one read-only buffer of latents (N, T+1, d) and one of noises.
    """
    if not len(starts):
        return []
    C = np.array([c.values for c in conditions])  # the default callback's, once per walk
    choose = choose or (lambda i, step, X, predict: predict(X, C))
    X = np.array(starts, dtype=np.float64)
    if X.ndim != 2:
        raise ParameterError("latent must be a vector")
    if not np.isfinite(X).all():
        raise ParameterError("latent entries must be finite")
    latents, noises = [X], []
    for i, step in enumerate(_step_table(grid, schedule, direction)):
        eps = choose(i, step, X, functools.partial(_predict_rows, denoiser, step=step))
        X = _hop(step, X, eps, direction)
        noises.append(eps)
        latents.append(X)
    latents, noises = np.stack(latents, axis=1), np.stack(noises, axis=1)
    latents.setflags(write=False)
    noises.setflags(write=False)
    return [PathRecord(grid=grid, latents=tuple(latents[r]), noises=tuple(noises[r]),
                       condition=c, direction=direction) for r, c in enumerate(conditions)]


def _predict_rows(denoiser: Denoiser, X: np.ndarray, C: np.ndarray, step: _Step) -> np.ndarray:
    """One ``predict_noise_batch`` call; row j is the noise at ``X[j]`` under ``C[j]``.

    A failure or a bad answer names the step.
    """
    level, sampling_step = step.level, step.sampling_step
    try:
        eps = denoiser.predict_noise_batch(X, C, step.a_t, level)
    except ParameterError:
        raise
    except DenoiserError as err:
        if err.sampling_step is None:
            # preserve the concrete kind; every DenoiserError shares the ctor
            raise type(err)(str(err), sampling_step=sampling_step,
                            training_step=level) from err
        raise
    except Exception as err:
        raise DenoiserError(f"denoiser call failed: {err}",
                            sampling_step=sampling_step, training_step=level) from err
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != X.shape:
        raise DenoiserError(
            f"denoiser returned shape {eps.shape}, expected {X.shape}",
            sampling_step=sampling_step, training_step=level)
    if not np.isfinite(eps).all():
        raise DenoiserError("denoiser returned non-finite noise",
                            sampling_step=sampling_step, training_step=level)
    return eps


def generate(denoiser: Denoiser, x_top: np.ndarray, c: ConditionEmbedding,
             grid: TimestepGrid, schedule: AlphaSchedule,
             guidance: tuple[float, object] | None = None) -> PathRecord:
    """Run the full deterministic pass from noise to data, recording the path.

    ``guidance`` is an optional ``(beta, null_embeddings)`` pair; the null
    side may be a single shared embedding or one embedding per step in loop
    order.  The recorded noise at each step is the combined prediction that
    actually drove the update.
    """
    if guidance is None:
        return _walk(denoiser, grid, schedule, [x_top], [c])[0]
    beta, nulls = guidance
    if not isinstance(nulls, ConditionEmbedding) and len(nulls) != grid.t_sample:
        raise ParameterError(
            f"need one null embedding per step ({grid.t_sample}), got {len(nulls)}")

    def choose_eps(i: int, step: _Step, X: np.ndarray, predict: Callable) -> np.ndarray:
        null = nulls if isinstance(nulls, ConditionEmbedding) else nulls[i]
        eps = predict(np.repeat(X, 2, axis=0), np.array([c.values, null.values]))
        return cfg_combine(eps[:1], eps[1:], beta)

    return _walk(denoiser, grid, schedule, [x_top], [c], choose_eps)[0]


def ddim_invert(denoiser: Denoiser, x0: np.ndarray, c: ConditionEmbedding,
                grid: TimestepGrid, schedule: AlphaSchedule) -> PathRecord:
    """Walk the grid upward from clean data to the fully noised latent.

    Each hop raises the level from the grid's previous index to its step
    index, predicting the noise at the target level.
    """
    return _walk(denoiser, grid, schedule, [x0], [c], direction=INVERSION)[0]


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

    A step's predictions all share its latent, so each round goes out as
    one call: first the conditional, the initial null and its 2m probes,
    then each candidate with its own probes (none after the last
    iteration).  The accepted null's prediction is reused for the guided hop.
    A round's losses are one broadcast guided hop over its rows and its
    gradient one array expression over the probe pairs; both are
    elementwise, so each value has the bits of its one-row computation.
    """
    if iterations < 0:
        raise ParameterError("iterations must be >= 0")
    inv = ddim_invert(denoiser, x0, c, grid, schedule)
    embeddings: list[ConditionEmbedding] = []
    objectives: list[float] = []
    diagnostics: list[str] = []

    half_width = 1e-4  # central-difference half-width of the gradient probes
    bumps = half_width * np.eye(denoiser.m)

    def with_probes(null: np.ndarray, probe: bool) -> np.ndarray:
        # null, then null +/- eps*e_j for each coordinate j when a gradient is needed
        rows = np.empty((1 + 2 * null.size if probe else 1, null.size))
        rows[0] = null
        if probe:
            rows[1::2] = null + bumps
            rows[2::2] = null - bumps
        return rows

    def tune(i: int, step: _Step, X: np.ndarray, predict: Callable) -> np.ndarray:
        x = X[0]
        target = inv.latents[step.sampling_step - 1]

        def losses(eps_null: np.ndarray) -> list[float]:
            guided = eps_c + beta * (eps_c - eps_null)  # cfg_combine, broadcast
            resid = _down(x, guided, step.a_t, step.a_prev) - target
            return [float(r @ r) for r in resid]

        null = np.zeros(denoiser.m)
        rows = np.vstack([c.values, with_probes(null, iterations > 0)])
        eps = predict(np.repeat(X, len(rows), axis=0), rows)
        eps_c, eps_best = eps[0], eps[1]
        best, *probed = losses(eps[1:])
        for it in range(iterations):
            grad = np.subtract(probed[0::2], probed[1::2]) / (2.0 * half_width)
            candidate = null - step_size * grad
            probes = with_probes(candidate, it + 1 < iterations)
            eps_null = predict(np.repeat(X, len(probes), axis=0), probes)
            value, *probed = losses(eps_null)
            if value > best * (1.0 + 1e-12) + 1e-300:
                msg = (f"sampling step {step.sampling_step}: objective rose "
                       f"{best:.6e} -> {value:.6e} at iteration {it}; reverted and stopped")
                diagnostics.append(msg)
                break
            null, best, eps_best = candidate, value, eps_null[0]
        embeddings.append(ConditionEmbedding(null))
        objectives.append(best)
        return cfg_combine(eps_c, eps_best, beta)[None]

    _walk(denoiser, grid, schedule, [inv.x_top], [c], tune)
    return NullTextResult(embeddings=tuple(embeddings), objectives=tuple(objectives),
                          diagnostics=tuple(diagnostics))
