"""Deterministic sampling, inversion, and guided-regeneration optimization.

One hop moves a latent from one level of the schedule to another with

    x_to = sqrt(a_to) * f(x, eps, a_from) + sqrt(1 - a_to) * eps,
    f(x, eps, a_from) = (x - sqrt(1 - a_from) * eps) / sqrt(a_from),

where a is the cumulative signal factor of a training index and ``f`` is
the clean latent implied by the pair (x, eps).  Generation hops down the
grid; inversion runs the same update up it, predicting the noise at the
target level of each hop (evaluating at the current level would hit the
undefined a = 1 endpoint on the very first hop from clean data).

Every pass over a grid goes through one private stepping core, ``_walk``.
It builds the grid's step table once (training level, sampling step, the
two signal factors of each position and the roots of the levels each hop
leaves and lands on, its levels checked once per walk) and walks it for N
rows in lock-step.  ``_hop`` is the one hop arithmetic for both directions.
The rows' latents are one (N, d) array, and each step is one hop of all of
them: the update is elementwise, so every row gets the bits of a walk of
its own.  A callback ``choose(i, step, X, predict)`` returns the step's
noises, applying its operators to whole groups of rows.
``predict(latents, conditions)`` is one ``predict_noise_batch`` call that
pairs each row of one condition matrix (N, m) with a latent (the rows'
own, or others, such as the reference path's).  Guided generation,
null-embedding tuning and the editing operators are such callbacks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .denoiser import Denoiser, _condition_matrix
from .errors import DenoiserError, ParameterError, checked_number
from .schedule import AlphaSchedule, TimestepGrid

GENERATION = "generation"
INVERSION = "inversion"


def effective_noise(x_t: np.ndarray, x_prev: np.ndarray,
                    alpha_bar_t: float, alpha_bar_prev: float) -> np.ndarray:
    """Solve the update from level a_t down to a_prev, which lands on x_prev, for eps.

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
    exactly.  A walk's entries and ``condition`` are read-only views of its
    buffers; a record built by hand keeps the arrays it is given.
    """

    grid: TimestepGrid
    latents: tuple[np.ndarray, ...]
    noises: tuple[np.ndarray, ...]
    condition: np.ndarray
    direction: str

    def __post_init__(self):
        if self.direction not in (GENERATION, INVERSION):
            raise ParameterError(f"unknown direction {self.direction!r}")
        if len(self.latents) != len(self.noises) + 1:
            raise ParameterError("need exactly one more latent than noise entries")
        if len(self.noises) != self.grid.t_sample:
            raise ParameterError("trajectory length must match the grid")

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
        return np.array([np.max(np.abs(_hop(step, x, eps) - after))
                         for step, x, eps, after in
                         zip(steps, self.latents, self.noises, self.latents[1:])])


class _Step(NamedTuple):
    """One hop of a walk, between ``level`` and the level one grid position below it.

    ``a_t`` is the signal factor at ``level``, where the noise is predicted,
    and ``a_prev`` the factor one level down.  The ``from`` roots belong to
    the level the hop leaves and the ``to`` roots to the level it lands on:
    generation goes from a_t to a_prev, inversion from a_prev to a_t.
    """

    level: int
    sampling_step: int
    a_t: float
    a_prev: float
    root_from: float  # sqrt(a) of the level the hop leaves
    noise_from: float  # sqrt(1 - a) of that level
    root_to: float  # sqrt(a) of the level the hop lands on
    noise_to: float  # sqrt(1 - a) of that level


def _step_table(grid: TimestepGrid, schedule: AlphaSchedule,
                direction: str) -> tuple[_Step, ...]:
    """The grid's hops in walk order; inversion's run bottom up, each with its roots swapped.

    Each level's ``alpha_bar`` is read once and its two roots taken once with
    ``math.sqrt``, which rounds correctly as ``np.sqrt`` does.  ``AlphaSchedule``
    (non-increasing in (0, 1]) and ``TimestepGrid`` (strictly decreasing, >= 1)
    order every level already; what they leave open is checked here, once per
    walk: the grid's top must lie on the schedule, and its lowest level, the
    least noisy, must hold noise (alpha_bar < 1), so every level does.
    """
    levels = grid.steps
    if levels[0] > schedule.t_train:
        raise ParameterError(f"grid top {levels[0]} exceeds schedule length {schedule.t_train}")
    alphas = [*map(schedule.at, levels), schedule.at(0)]
    if alphas[-2] == 1.0:
        raise ParameterError(f"grid level {levels[-1]} has alpha_bar = 1: it holds no noise")
    roots = [(math.sqrt(a), math.sqrt(1.0 - a)) for a in alphas]
    hops = zip(levels, range(grid.t_sample, 0, -1), alphas, alphas[1:], roots, roots[1:])
    if direction == GENERATION:
        return tuple(_Step(*pos, *upper, *lower) for *pos, upper, lower in hops)
    return tuple(_Step(*pos, *lower, *upper) for *pos, upper, lower in hops)[::-1]


def _hop(step: _Step, x: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Move ``x`` from the level ``step`` leaves to the level it lands on.

    The latent passes through the clean latent ``f`` the pair (x, eps)
    implies at the level it leaves.  Across a flat stretch of the schedule
    it comes through bit for bit, in either direction.
    """
    if step.a_prev == step.a_t:
        # algebraic fixed point: no noise is removed or added
        return x + 0.0 * eps
    return step.root_to * ((x - step.noise_from * eps) / step.root_from) + step.noise_to * eps


#: a step's callback ``choose(i, step, X, predict)``: returns the noises of all
#: rows (N, d); ``predict(latents, conditions (N, m))`` makes one denoiser call
ChooseEps = Callable[[int, _Step, np.ndarray, Callable], np.ndarray]


def _walk(denoiser: Denoiser, grid: TimestepGrid, schedule: AlphaSchedule,
          starts: Sequence[np.ndarray], conditions: Sequence[np.ndarray],
          choose: ChooseEps | None = None, direction: str = GENERATION) -> list[PathRecord]:
    """The stepping core: N rows, from ``starts`` under ``conditions``, walk in lock-step.

    The rows' latents are one (N, d) array ``X`` and each step is one hop of
    all of them.  Hop ``i`` takes the noises ``choose(i, step, X, predict)``
    returns, one row each; ``predict(latents, conditions)`` is one denoiser
    call for one prediction per condition row (N, m) at the paired latent (a
    row of ``X``, or any other latent, such as a reference path's).  The
    default callback predicts row r under ``conditions[r]``, which are checked
    once, as one matrix.  Generation visits the step table top down,
    inversion bottom up; the records hold views of one read-only buffer of
    latents (N, T+1, d), one of noises and one of the checked conditions.
    """
    if not len(starts):
        return []
    C = _condition_matrix(conditions, len(starts), denoiser.m)
    choose = choose or (lambda i, step, X, predict: predict(X, C))
    X = np.array(starts, dtype=np.float64)
    if X.shape[1:] != (denoiser.d,):
        raise ParameterError(f"latent must be a vector of {denoiser.d} entries, "
                             f"got shape {X.shape[1:]}")
    if not np.isfinite(X).all():
        raise ParameterError("latent entries must be finite")
    latents, noises = [X], []
    for i, step in enumerate(_step_table(grid, schedule, direction)):
        eps = choose(i, step, X, functools.partial(_predict_rows, denoiser, step=step))
        X = _hop(step, X, eps)
        noises.append(eps)
        latents.append(X)
    latents, noises = np.stack(latents, axis=1), np.stack(noises, axis=1)
    latents.setflags(write=False)
    noises.setflags(write=False)
    return [PathRecord(grid=grid, latents=tuple(latents[r]), noises=tuple(noises[r]),
                       condition=c, direction=direction) for r, c in enumerate(C)]


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


def generate(denoiser: Denoiser, x_top: np.ndarray, c: np.ndarray,
             grid: TimestepGrid, schedule: AlphaSchedule,
             guidance: tuple[float, object] | None = None) -> PathRecord:
    """Run the full deterministic pass from noise to data, recording the path.

    ``guidance`` is an optional ``(beta, nulls)`` pair.  The null side is a
    single null (m,) shared by every step, or one null per step in loop
    order: a (T, m) array or a sequence of T nulls (m,).  A beta that is not
    a finite number, or a condition that is not a finite (m,) row, fails
    before the first denoiser call.  The recorded noise at each step is the
    combined prediction that actually drove the update.
    """
    if guidance is None:
        return _walk(denoiser, grid, schedule, [x_top], [c])[0]
    beta, nulls = guidance
    beta = checked_number(beta, "beta")
    try:
        shared = np.ndim(nulls) == 1
    except ValueError:  # ragged rows: the (T, m) check names them
        shared = False
    pairs = np.empty((grid.t_sample, 2, denoiser.m))
    pairs[:, 0] = _condition_matrix(c, None, denoiser.m)
    pairs[:, 1] = _condition_matrix(nulls, None if shared else grid.t_sample, denoiser.m)
    pairs.setflags(write=False)

    def choose_eps(i: int, step: _Step, X: np.ndarray, predict: Callable) -> np.ndarray:
        eps = predict(np.repeat(X, 2, axis=0), pairs[i])
        return cfg_combine(eps[:1], eps[1:], beta)

    return _walk(denoiser, grid, schedule, [x_top], [c], choose_eps)[0]


def ddim_invert(denoiser: Denoiser, x0: np.ndarray, c: np.ndarray,
                grid: TimestepGrid, schedule: AlphaSchedule) -> PathRecord:
    """Walk the grid upward from clean data to the fully noised latent.

    Each hop raises the level from the grid's previous index to its step
    index, predicting the noise at the target level.
    """
    return _walk(denoiser, grid, schedule, [x0], [c], direction=INVERSION)[0]


@dataclass(frozen=True)
class NullTextResult:
    """Per-step optimized empty-condition embeddings, read-only (m,) arrays in loop order."""

    embeddings: tuple[np.ndarray, ...]
    objectives: tuple[float, ...]
    diagnostics: tuple[str, ...] = field(default=())


def null_text_invert(denoiser: Denoiser, x0: np.ndarray, c: np.ndarray,
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

    ``beta``, ``step_size`` and ``iterations`` (an integer) are checked
    before the first denoiser call.

    A step's predictions all share its latent, which is repeated once per
    step, and each round goes out as one call: first the conditional, the
    all-zeros null and its 2m probes (rows that are the same at every step,
    built once), then each candidate with its own probes on the last 2m + 1
    repeated rows, and the last iteration's candidate alone on the step's
    latent itself.  A round's null and probe rows are one add of a
    per-call offsets table, whose first row is -0.0 so row 0 is the null
    itself.  The accepted null's prediction is reused for the guided hop.
    A round's losses are one broadcast guided hop over its rows, with its
    guided noise formed in place, reduced by one ``np.vecdot``, which runs
    the one-row dot's loop; its gradient and candidate are formed in place
    over the probe pairs.  So each value has the bits of its one-row
    computation.  A round whose candidate null the denoiser rejects, or
    whose objective is not finite, raises a ParameterError naming the
    sampling step, the iteration, ``step_size`` and ``beta``.
    """
    beta = checked_number(beta, "beta")
    step_size = checked_number(step_size, "step_size")
    iterations = checked_number(iterations, "iterations", integer=True)
    if iterations < 0:
        raise ParameterError("iterations must be >= 0")
    inv = ddim_invert(denoiser, x0, c, grid, schedule)
    embeddings: list[np.ndarray] = []
    objectives: list[float] = []
    diagnostics: list[str] = []

    half_width = 1e-4  # central-difference half-width of the gradient probes
    # null + offsets: the null, then null +/- half_width * e_j for each coordinate j
    bumps = half_width * np.eye(denoiser.m)
    offsets = np.full((1 + 2 * denoiser.m, denoiser.m), -0.0)
    offsets[1::2], offsets[2::2] = bumps, -bumps

    def with_probes(null: np.ndarray, probe: bool) -> np.ndarray:
        return null + (offsets if probe else offsets[:1])

    # every step's first round: the conditional, then the all-zeros null (and its probes)
    first = np.vstack([inv.condition, with_probes(np.zeros(denoiser.m), iterations > 0)])

    def overflowed(step: _Step, it: int | None, what: str) -> ParameterError:
        at, cause = ((f"iteration {it}", f"step_size={step_size!r} with beta={beta!r}")
                     if it is not None else ("its first round", f"beta={beta!r}"))
        return ParameterError(f"null-text tuning overflowed at sampling step "
                              f"{step.sampling_step}, {at}: {what}; {cause} is too large")

    def tune(i: int, step: _Step, X: np.ndarray, predict: Callable) -> np.ndarray:
        x = X[0]
        target = inv.latents[step.sampling_step - 1]

        def losses(eps_null: np.ndarray) -> tuple[float, np.ndarray]:
            guided = eps_c - eps_null  # cfg_combine, broadcast and in place
            guided *= beta
            guided += eps_c
            resid = _hop(step, x, guided)
            resid -= target
            scores = np.vecdot(resid, resid)
            return float(scores[0]), scores[1:]

        # the step's latent, repeated once: the first round takes every row,
        # each probing round the last 2m + 1, the last round X itself
        latents = np.repeat(X, len(first), axis=0)
        eps = predict(latents, first)
        eps_c, eps_best = eps[0], eps[1]
        null = np.zeros(denoiser.m)
        best, probed = losses(eps[1:])
        if not math.isfinite(best):
            raise overflowed(step, None, f"the all-zeros null's objective is {best}")
        for it in range(iterations):
            grad = np.subtract(probed[0::2], probed[1::2])
            grad /= 2.0 * half_width
            grad *= step_size
            candidate = np.subtract(null, grad, out=grad)
            probe = it + 1 < iterations
            try:
                eps_null = predict(latents[1:] if probe else X, with_probes(candidate, probe))
            except ParameterError as err:
                raise overflowed(step, it, f"its candidate null failed ({err})") from err
            value, probed = losses(eps_null)
            if not math.isfinite(value):
                raise overflowed(step, it, f"its candidate's objective is {value}")
            if value > best * (1.0 + 1e-12) + 1e-300:
                msg = (f"sampling step {step.sampling_step}: objective rose "
                       f"{best:.6e} -> {value:.6e} at iteration {it}; reverted and stopped")
                diagnostics.append(msg)
                break
            null, best, eps_best = candidate, value, eps_null[0]
        null.setflags(write=False)
        embeddings.append(null)
        objectives.append(best)
        return cfg_combine(eps_c, eps_best, beta)[None]

    # an overflowed round warns nothing: each value is checked right after, and it raises
    with np.errstate(over="ignore", invalid="ignore"):
        _walk(denoiser, grid, schedule, [inv.x_top], [c], tune)
    return NullTextResult(embeddings=tuple(embeddings), objectives=tuple(objectives),
                          diagnostics=tuple(diagnostics))
