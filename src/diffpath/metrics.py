"""Edit scoring, parameter sweeps, and inversion-quality reporting.

Edits are judged on endpoints only: how far the edited output drifted from
the reference endpoint (layout preservation, smaller = closer to the source
layout) and how plausible it is under the editing condition's data law
(semantic alignment, a negative log density, smaller = better aligned).  The
distance between the two pure endpoints normalizes both.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .denoiser import ConditionEmbedding, Denoiser, GMMDenoiser, GMMDenoiserParams, gmm_log_density
from .edits import EditResult, ManipulationConfig, run_edits
from .errors import ParameterError
from .rng import standard_normals, substream
from .sampler import INVERSION, PathRecord, _walk
from .schedule import AlphaSchedule, ScheduleSpec, TimestepGrid, make_timestep_grid

AXIS_NAMES = ("t_max", "t_min", "t_m", "schedule", "weight", "beta")


@dataclass(frozen=True)
class EditMetrics:
    """Endpoint scores for one edit.

    ``layout_preservation`` and ``ab_gap`` are Euclidean distances and always
    nonnegative; ``semantic_alignment`` is a negative log density, so it is
    nonnegative whenever no mixture component is concentrated enough to push
    the density above one (all shipped scenarios satisfy this).
    """

    layout_preservation: float
    semantic_alignment: float
    ab_gap: float

    def __post_init__(self):
        for name in ("layout_preservation", "semantic_alignment", "ab_gap"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if self.layout_preservation < 0.0 or self.ab_gap < 0.0:
            raise ParameterError("distances must be nonnegative")


def path_divergence(result: EditResult) -> tuple[float, ...]:
    """Per-latent distance of the edited trajectory from the reference path.

    Optional companion profile to the endpoint metrics; entry i covers
    ``latents[i]`` (entry 0 is always zero: shared initial noise).
    """
    return tuple(float(np.linalg.norm(l - r)) for l, r in
                 zip(result.path.latents, result.path_a.latents))


def score_edit(result: EditResult, path_b: PathRecord,
               params: GMMDenoiserParams) -> EditMetrics:
    """Score an edit against its pure endpoints.

    ``path_b`` must be the plain generation under the editing condition from
    the same grid; the density is evaluated under ``path_b.condition``.
    """
    if result.path.grid.steps != path_b.grid.steps:
        raise ParameterError("edited path and reference path use different grids")
    x_star = result.path.x0
    x_a = result.path_a.x0
    x_b = path_b.x0
    return EditMetrics(
        layout_preservation=float(np.linalg.norm(x_star - x_a)),
        semantic_alignment=-gmm_log_density(params, x_star, path_b.condition),
        ab_gap=float(np.linalg.norm(x_a - x_b)),
    )


@dataclass(frozen=True)
class SweepRow:
    kind: str
    schedule_kind: str
    t_max: int
    t_min: int
    weight: float
    beta: float | None
    seed: int
    metrics: EditMetrics

    @classmethod
    def of(cls, config: ManipulationConfig, seed: int, metrics: EditMetrics) -> "SweepRow":
        """The sweep columns of one scored manipulation."""
        sched = config.schedule
        return cls(kind=config.kind, schedule_kind=sched.kind, t_max=sched.t_max,
                   t_min=sched.t_min, weight=sched.amplitude, beta=config.beta,
                   seed=seed, metrics=metrics)


@dataclass(frozen=True)
class SweepScenario:
    """Everything a sweep needs besides the axes: model, conditions, base point."""

    denoiser: Denoiser
    score_params: GMMDenoiserParams
    c_a: ConditionEmbedding
    c_b: ConditionEmbedding
    grid: TimestepGrid
    noise_schedule: AlphaSchedule
    base: ManipulationConfig


def derive_config(base: ManipulationConfig, assignment: Mapping[str, object]) -> ManipulationConfig:
    """Apply one grid point's axis values to the base manipulation config.

    ``t_m`` sets the window length below ``t_max``; moving ``t_max`` alone
    preserves the base window length.  Switching to a decaying schedule kind
    pins ``t_max`` to the grid top.
    """
    for name in assignment:
        if name not in AXIS_NAMES:
            raise ParameterError(f"unknown sweep axis {name!r}; expected one of {AXIS_NAMES}")
    if "t_min" in assignment and "t_m" in assignment:
        raise ParameterError("give either t_min or t_m, not both")
    sched = base.schedule
    kind_s = str(assignment.get("schedule", sched.kind))
    t_max = int(assignment.get("t_max", sched.t_max))
    if kind_s != "constant":
        t_max = sched.total
    if "t_m" in assignment:
        t_min = t_max - int(assignment["t_m"])
    elif "t_min" in assignment:
        t_min = int(assignment["t_min"])
    elif "t_max" in assignment:
        t_min = t_max - (sched.t_max - sched.t_min)
    else:
        t_min = sched.t_min
    amplitude = float(assignment.get("weight", sched.amplitude))
    new_sched = ScheduleSpec(kind=kind_s, t_min=t_min, t_max=t_max,
                             total=sched.total, amplitude=amplitude)
    beta = assignment.get("beta", base.beta)
    return replace(base, schedule=new_sched, beta=None if beta is None else float(beta))


def run_sweep(scenario: SweepScenario, axes: Mapping[str, Sequence],
              seed: int) -> tuple[SweepRow, ...]:
    """Evaluate the cartesian grid of axis values, one deterministic row each.

    The shared initial noise is derived from the seed; rows are ordered by
    the lexicographic sort of their axis-value tuples.  The two pure paths
    walk in lock-step, and then every grid point's edit: one denoiser call
    per step for all of them.
    """
    axes = {name: tuple(values) for name, values in axes.items()}
    for name, values in axes.items():
        if name not in AXIS_NAMES:
            raise ParameterError(f"unknown sweep axis {name!r}; expected one of {AXIS_NAMES}")
        if not values:
            raise ParameterError(f"axis {name!r} has no values")
    names = list(axes)
    try:
        combos = sorted(itertools.product(*(axes[name] for name in names)))
    except TypeError as err:
        raise ParameterError(f"axis values must be mutually comparable: {err}") from err
    d = scenario.score_params.d
    x_top = standard_normals(substream(seed, "sweep", "x_top"), d)
    path_a, path_b = _walk(scenario.denoiser, scenario.grid, scenario.noise_schedule,
                           [x_top, x_top], [scenario.c_a, scenario.c_b])
    configs = [derive_config(scenario.base, dict(zip(names, combo))) for combo in combos]
    results = run_edits(scenario.denoiser, x_top, scenario.c_a, scenario.c_b, configs,
                        scenario.grid, scenario.noise_schedule, path_a=path_a, path_b=path_b)
    return tuple(SweepRow.of(config, seed, score_edit(result, path_b, scenario.score_params))
                 for config, result in zip(configs, results))


def sweep_digest(axes: Mapping[str, Sequence], base: ManipulationConfig, seed: int) -> str:
    """Short sha256 naming a sweep: its axes, base manipulation and seed."""
    src = json.dumps({"axes": dict(axes), "base": asdict(base), "seed": seed},
                     sort_keys=True, default=lambda v: np.asarray(v).tolist())
    return hashlib.sha256(src.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class InversionReportRow:
    t_sample: int
    mean_rel_error: float
    max_rel_error: float


def inversion_report(denoiser: GMMDenoiser, c: ConditionEmbedding,
                     noise_schedule: AlphaSchedule, t_sample_values: Sequence[int],
                     samples: int, seed: int) -> tuple[InversionReportRow, ...]:
    """Round-trip reconstruction errors per grid resolution.

    The same clean latents, drawn from the denoiser's mixture under ``c``,
    are inverted and regenerated at each grid size, all samples in lock-step;
    relative errors are measured at the clean endpoint.
    """
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    gen = substream(seed, "inversion-report")
    x0s = denoiser.sample_clean(c, samples, gen)
    rows = []
    for t_sample in t_sample_values:
        grid = make_timestep_grid(noise_schedule.t_train, t_sample)
        invs = _walk(denoiser, grid, noise_schedule, x0s, [c] * samples,
                     direction=INVERSION)
        regens = _walk(denoiser, grid, noise_schedule, [inv.x_top for inv in invs],
                       [c] * samples)
        # one norm per row: the axis form does not round the same way
        errors = np.array([np.linalg.norm(regen.x0 - x0) / np.linalg.norm(x0)
                           for regen, x0 in zip(regens, x0s)])
        rows.append(InversionReportRow(
            t_sample=int(t_sample),
            mean_rel_error=float(errors.mean()),
            max_rel_error=float(errors.max())))
    return tuple(rows)
