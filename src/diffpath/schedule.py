"""Noise schedule, sampling-step grid, and manipulation-weight schedules.

Conventions used throughout the package:

* Training-step indices run 0..T_train, where 0 is clean data.  ``alpha_bar``
  is the cumulative signal-retention factor at each index, with
  ``alpha_bar[0] = 1`` so the final deterministic step returns the predicted
  clean latent exactly.
* Sampling-step indices run T..0 over a grid of T = ``t_sample`` training
  steps; manipulation weights are functions of the sampling-step index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

SCHEDULE_KINDS = ("constant", "linear", "cosine", "exponential")


@dataclass(frozen=True)
class AlphaSchedule:
    """Cumulative noise-schedule factors, indexed by training step.

    ``alpha_bar`` has length ``t_train + 1``; entry 0 is 1 by convention
    (clean-data endpoint) and entries decrease monotonically, strictly so
    whenever every per-step noise rate is positive.  ``beta_min``/``beta_max``
    hold the noise-rate range of :func:`build_linear_beta_schedule`'s output.
    """

    alpha_bar: np.ndarray
    beta_min: float | None = None
    beta_max: float | None = None

    def __post_init__(self):
        ab = np.asarray(self.alpha_bar, dtype=np.float64)
        object.__setattr__(self, "alpha_bar", ab)
        ab.setflags(write=False)
        if ab.ndim != 1 or ab.size < 2:
            raise ParameterError("alpha_bar must be a vector of at least two entries")
        if ab[0] != 1.0:
            raise ParameterError("alpha_bar[0] must be 1 (clean-data endpoint)")
        if not np.all(np.isfinite(ab)):
            raise ParameterError("alpha_bar entries must be finite")
        if np.any(ab <= 0.0) or np.any(ab > 1.0):
            raise ParameterError("alpha_bar entries must lie in (0, 1]")
        if np.any(np.diff(ab) > 0.0):
            raise ParameterError("alpha_bar must be non-increasing")

    @property
    def t_train(self) -> int:
        return self.alpha_bar.size - 1

    def at(self, step: int) -> float:
        """alpha_bar at a training-step index (0 = clean data)."""
        if not 0 <= step <= self.t_train:
            raise ParameterError(f"training step {step} outside [0, {self.t_train}]")
        return float(self.alpha_bar[step])


def build_linear_beta_schedule(t_train: int, beta_min: float, beta_max: float) -> AlphaSchedule:
    """Cumulative-product schedule from linearly spaced per-step noise rates.

    beta_j runs linearly from ``beta_min`` to ``beta_max`` over j = 1..t_train
    and ``alpha_bar[i] = prod_{j<=i} (1 - beta_j)``.
    """
    if t_train < 1:
        raise ParameterError("t_train must be >= 1")
    if not (0.0 <= beta_min <= beta_max < 1.0):
        raise ParameterError("need 0 <= beta_min <= beta_max < 1")
    betas = np.linspace(beta_min, beta_max, t_train)
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
    return AlphaSchedule(alpha_bar, beta_min, beta_max)


@dataclass(frozen=True)
class TimestepGrid:
    """Descending training-step indices visited by the deterministic sampler.

    The final step targets training index 0 implicitly (the sampler uses
    ``alpha_bar[0] = 1`` as the terminal level).
    """

    steps: tuple[int, ...]

    def __post_init__(self):
        steps = tuple(int(s) for s in self.steps)
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise ParameterError("grid must contain at least one step")
        if any(s < 1 for s in steps):
            raise ParameterError("grid entries must be >= 1")
        if any(a <= b for a, b in zip(steps, steps[1:])):
            raise ParameterError("grid must be strictly decreasing")

    @property
    def t_sample(self) -> int:
        return len(self.steps)


def make_timestep_grid(t_train: int, t_sample: int) -> TimestepGrid:
    """Evenly strided descending grid with ``steps[0] = t_train``.

    steps[i] = t_train - floor(i * t_train / t_sample); strict decrease is
    guaranteed because the stride t_train / t_sample is >= 1.
    """
    if t_sample < 1:
        raise ParameterError("t_sample must be >= 1")
    if t_sample > t_train:
        raise ParameterError(f"t_sample={t_sample} exceeds t_train={t_train}")
    steps = tuple(t_train - (i * t_train) // t_sample for i in range(t_sample))
    return TimestepGrid(steps)


@dataclass(frozen=True)
class ScheduleSpec:
    """Time-dependent manipulation-weight schedule on sampling-step indices.

    ``amplitude`` scales a unit shape; the support is [t_min, t_max] for the
    constant kind and [t_min, total] for the decaying kinds, whose windows are
    pinned to the top of the grid (t_max = total).

    Shapes on their support, with T = total:

    * constant:     1
    * linear:       (t - t_min) / (T - t_min)
    * cosine:       cos((pi/2) * (T - t) / (T - t_min))
    * exponential:  exp(-5 * (T - t) / (T - t_min))

    All three decaying shapes equal 1 at t = T and the cosine shape is 0 at
    t = t_min, so a weight of exactly ``amplitude`` is reached only at the
    first sampling step.
    """

    kind: str
    t_min: int
    t_max: int
    total: int
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ParameterError(f"unknown schedule kind {self.kind!r}; expected one of {SCHEDULE_KINDS}")
        if not (0 <= self.t_min <= self.t_max <= self.total):
            raise ParameterError(
                f"need 0 <= t_min <= t_max <= total, got ({self.t_min}, {self.t_max}, {self.total})")
        if self.kind != "constant":
            if self.t_max != self.total:
                raise ParameterError(f"{self.kind} schedules require t_max = total")
            if self.t_min >= self.total:
                raise ParameterError(f"{self.kind} schedules require t_min < total")
        if not (0.0 <= self.amplitude <= 1.0) or not math.isfinite(self.amplitude):
            raise ParameterError("amplitude must lie in [0, 1]")


def omega(spec: ScheduleSpec, t: int) -> float:
    """Manipulation weight at sampling-step index ``t``.

    Zero outside the support; otherwise ``amplitude * shape(t)`` per the
    shapes documented on :class:`ScheduleSpec`.  The return value lies in
    [0, amplitude].
    """
    if not 0 <= t <= spec.total:
        raise ParameterError(f"sampling step {t} outside [0, {spec.total}]")
    if spec.kind == "constant":
        return spec.amplitude if spec.t_min <= t <= spec.t_max else 0.0
    if t < spec.t_min:
        return 0.0
    rise = (t - spec.t_min) / (spec.total - spec.t_min)
    if spec.kind == "linear":
        shape = rise
    elif spec.kind == "cosine":
        # cos((pi/2)(T-t)/(T-t_min)) written as sin of the complement so the
        # shape is exactly 0.0 at t_min and exactly 1.0 at the grid top.
        shape = math.sin(0.5 * math.pi * rise)
    else:
        shape = math.exp(-5.0 * (spec.total - t) / (spec.total - spec.t_min))
    return spec.amplitude * shape
