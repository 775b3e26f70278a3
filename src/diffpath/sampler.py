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
two signal factors of each position, checked once per step) and walks it in
either direction for N rows in lock-step.  The rows' latents are one (N, d)
array, and each step is one hop of all of them: the update is elementwise,
so every row gets the bits of a walk of its own.  A callback
``choose(i, step, X)`` is a generator that supplies the step's noises,
applying its operators to whole groups of rows; it asks the core for the
predictions it needs, each request pairing conditions with latents (the
rows' own, or others, such as the reference path's), and the core answers
each request with one ``predict_noise_batch`` call.  Guided generation,
null-embedding tuning and the editing operators are such callbacks.
"""

from __future__ import annotations

import logging
from collections.abc import Generator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .denoiser import ConditionEmbedding, Denoiser, _condition_rows
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
    return _clean(x_t, eps, a)


def _clean(x_t: np.ndarray, eps: np.ndarray, a: float) -> np.ndarray:
    return (x_t - np.sqrt(1.0 - a) * eps) / np.sqrt(a)


def _check_down(a_t: float, a_prev: float) -> None:
    if not 0.0 < a_t < 1.0:
        raise ParameterError(f"alpha_bar_t must lie in (0, 1), got {a_t}")
    if not 0.0 < a_prev <= 1.0:
        raise ParameterError(f"alpha_bar_prev must lie in (0, 1], got {a_prev}")
    if a_prev < a_t:
        raise ParameterError(
            f"schedule order violated: alpha_bar_prev={a_prev} < alpha_bar_t={a_t}")


def _check_up(a_t: float, a_next: float) -> None:
    if not 0.0 < a_t <= 1.0:
        raise ParameterError(f"alpha_bar_t must lie in (0, 1], got {a_t}")
    if not 0.0 < a_next <= a_t:
        raise ParameterError(
            f"inversion requires alpha_bar_next <= alpha_bar_t, got {a_next} > {a_t}")


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

    The walks do not call this: their step table checks each step's levels
    once, and every hop of a step then runs this arithmetic on all rows at
    once.  Being elementwise, it gives each row the bits of this function.
    """
    a_t = float(alpha_bar_t)
    a_prev = float(alpha_bar_prev)
    _check_down(a_t, a_prev)
    return _down(x_t, eps, a_t, a_prev)


def invert_step(x_t: np.ndarray, eps: np.ndarray,
                alpha_bar_t: float, alpha_bar_next: float) -> np.ndarray:
    """One upward hop from level alpha_bar_t to the noisier alpha_bar_next."""
    a_t = float(alpha_bar_t)
    a_next = float(alpha_bar_next)
    _check_up(a_t, a_next)
    return _move(x_t, eps, a_t, a_next)


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
    """The grid's positions in walk order, each with its signal factors checked.

    The checks are ``ddim_step``'s for generation and ``invert_step``'s for
    inversion, made once per step here instead of once per hop.
    """
    if grid.level(0) > schedule.t_train:
        raise ParameterError(
            f"grid top {grid.level(0)} exceeds schedule length {schedule.t_train}")
    levels = grid.steps
    table = tuple(map(_Step, levels, range(grid.t_sample, 0, -1), map(schedule.at, levels),
                      map(schedule.at, (*levels[1:], 0))))
    if direction == GENERATION:
        for step in table:
            _check_down(step.a_t, step.a_prev)
        return table
    for step in table:
        _check_up(step.a_prev, step.a_t)
    return table[::-1]


def _hop(step: _Step, x: np.ndarray, eps: np.ndarray, direction: str) -> np.ndarray:
    """Generation steps down from ``step.level``; inversion climbs up to it."""
    if direction == GENERATION:
        return _down(x, eps, step.a_t, step.a_prev)
    return _move(x, eps, step.a_prev, step.a_t)


#: a round's request: latents (k, d) and one condition per latent
Request = tuple[np.ndarray, Sequence[ConditionEmbedding]]
#: a step's callback: a generator that yields requests, is sent each one's
#: predictions (k, d), and returns the noises of all rows (N, d)
ChooseEps = Callable[[int, _Step, np.ndarray], Generator[Request, np.ndarray, np.ndarray]]


def _walk(denoiser: Denoiser, grid: TimestepGrid, schedule: AlphaSchedule,
          starts: Sequence[np.ndarray], conditions: Sequence[ConditionEmbedding],
          choose: ChooseEps | None = None, direction: str = GENERATION) -> list[PathRecord]:
    """The stepping core: N rows, from ``starts`` under ``conditions``, walk in lock-step.

    The rows' latents are one (N, d) array ``X`` and each step is one hop of
    all of them.  Without a callback, row r takes the prediction under
    ``conditions[r]``.  Otherwise hop ``i`` takes the noises the generator
    ``choose(i, step, X)`` returns, one row each: ``noises = yield latents,
    conditions`` asks for one prediction per condition at the paired latent
    (a row of ``X``, or any other latent, such as a reference path's), and
    each request goes out as one denoiser call.  Generation visits the step
    table top down, inversion bottom up; each row's record holds every latent
    and the noise of every hop.
    """
    if not len(starts):
        return []
    X = _as_latents(starts)
    latents, noises = [X], []
    for i, step in enumerate(_step_table(grid, schedule, direction)):
        if choose is None:
            eps = _predict_rows(denoiser, X, conditions, step)
        else:
            eps = _answer(denoiser, step, choose(i, step, X))
        X = _hop(step, X, eps, direction)
        noises.append(eps)
        latents.append(X)
    latents, noises = np.array(latents), np.array(noises)  # (T + 1, N, d) and (T, N, d)
    return [PathRecord(grid=grid, latents=tuple(latents[:, r]), noises=tuple(noises[:, r]),
                       condition=c, direction=direction) for r, c in enumerate(conditions)]


def _answer(denoiser: Denoiser, step: _Step, requests: Generator) -> np.ndarray:
    """Answer each of a callback's requests with one denoiser call; returns its noises."""
    try:
        request = next(requests)
        while True:
            request = requests.send(_predict_rows(denoiser, *request, step))
    except StopIteration as done:
        return done.value


def _predict_rows(denoiser: Denoiser, X: np.ndarray,
                  conditions: Sequence[ConditionEmbedding], step: _Step) -> np.ndarray:
    """One ``predict_noise_batch`` call; row j is ``conditions[j]``'s noise at ``X[j]``.

    A failure or a bad answer names the step.
    """
    level, sampling_step = step.level, step.sampling_step
    try:
        eps = denoiser.predict_noise_batch(X, conditions, step.a_t, level)
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
    if eps.shape != X.shape:
        raise DenoiserError(
            f"denoiser returned shape {eps.shape}, expected {X.shape}",
            sampling_step=sampling_step, training_step=level)
    if not np.isfinite(eps).all():
        raise DenoiserError("denoiser returned non-finite noise",
                            sampling_step=sampling_step, training_step=level)
    return eps


def _as_latents(starts: Sequence[np.ndarray]) -> np.ndarray:
    X = np.array(starts, dtype=np.float64)
    if X.ndim != 2:
        raise ParameterError("latent must be a vector")
    if not np.isfinite(X).all():
        raise ParameterError("latent entries must be finite")
    return X


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

    def choose_eps(i: int, step: _Step, X: np.ndarray) -> Generator:
        null = nulls if isinstance(nulls, ConditionEmbedding) else nulls[i]
        eps = yield np.repeat(X, 2, axis=0), (c, null)
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
    """
    if iterations < 0:
        raise ParameterError("iterations must be >= 0")
    inv = ddim_invert(denoiser, x0, c, grid, schedule)
    embeddings: list[ConditionEmbedding] = []
    objectives: list[float] = []
    diagnostics: list[str] = []

    half_width = 1e-4  # central-difference half-width of the gradient probes
    bumps = half_width * np.eye(denoiser.m)

    def with_probes(null: np.ndarray, probe: bool) -> tuple[ConditionEmbedding, ...]:
        # null, then null +/- eps*e_j for each coordinate j when a gradient is needed
        rows = np.empty((1 + 2 * null.size if probe else 1, null.size))
        rows[0] = null
        if probe:
            rows[1::2] = null + bumps
            rows[2::2] = null - bumps
        return _condition_rows(rows)

    def tune(i: int, step: _Step, X: np.ndarray) -> Generator:
        x = X[0]
        target = inv.latents[step.sampling_step - 1]

        def losses(eps_null: np.ndarray) -> list[float]:
            # elementwise over the rows, so each row repeats the one-row arithmetic
            guided = cfg_combine(np.broadcast_to(eps_c, eps_null.shape), eps_null, beta)
            resid = _down(x, guided, step.a_t, step.a_prev) - target
            return [float(r @ r) for r in resid]

        null = np.zeros(denoiser.m)
        probes = with_probes(null, iterations > 0)
        eps = yield np.repeat(X, 1 + len(probes), axis=0), (c, *probes)
        eps_c, eps_best = eps[0], eps[1]
        best, *probed = losses(eps[1:])
        for it in range(iterations):
            grad = np.array([(probed[2 * j] - probed[2 * j + 1]) / (2.0 * half_width)
                             for j in range(null.size)])
            candidate = null - step_size * grad
            probes = with_probes(candidate, it + 1 < iterations)
            eps_null = yield np.repeat(X, len(probes), axis=0), probes
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
        return cfg_combine(eps_c, eps_best, beta)[None]

    _walk(denoiser, grid, schedule, [inv.x_top], [c], tune)
    return NullTextResult(embeddings=tuple(embeddings), objectives=tuple(objectives),
                          diagnostics=tuple(diagnostics))
