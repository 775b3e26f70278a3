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

from .config import AXIS_NAMES, RunConfig
from .denoiser import Denoiser, GMMDenoiser, GMMDenoiserParams, gmm_log_density
from .edits import EditResult, ManipulationConfig, _edit_walk
from .errors import ParameterError, checked_number
from .rng import standard_normals, substream
from .sampler import INVERSION, _walk
from .schedule import AlphaSchedule, ScheduleSpec, make_timestep_grid


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
    gaps = np.subtract(result.path.latents, result.path_a.latents)
    return tuple(map(float, np.sqrt(np.vecdot(gaps, gaps))))


def score_edit(result: EditResult, params: GMMDenoiserParams) -> EditMetrics:
    """Score an edit against its pure endpoints.

    ``result`` must carry the editing path (``run_edit(..., with_path_b=True)``);
    the density is evaluated under that path's condition.
    """
    if result.path_b is None:
        raise ParameterError("score_edit needs the editing path: "
                             "run the edit with with_path_b=True")
    return _score_endpoints(result.path.x0[None], result.path_a.x0, result.path_b.x0,
                            result.path_b.condition, params)[0]


def _score_endpoints(x_stars: np.ndarray, x_a: np.ndarray, x_b: np.ndarray, c_b: np.ndarray,
                     params: GMMDenoiserParams) -> tuple[EditMetrics, ...]:
    """Score edited endpoints (n, d) against the pure endpoints ``x_a`` and ``x_b``, in one pass.

    ``c_b`` is path B's condition.  Layout is one ``np.vecdot`` over the
    rows, the A-to-B gap one norm, and semantic alignment one log density
    over the rows; each row gets the bits of a pass of its own.
    """

    def layout():
        gaps = x_stars - x_a
        return np.sqrt(np.vecdot(gaps, gaps))

    scores = {"layout_preservation": layout,
              "semantic_alignment": lambda: -gmm_log_density(params, x_stars, c_b),
              "ab_gap": lambda: np.linalg.norm(x_a - x_b)}
    with np.errstate(over="raise", invalid="raise"):
        for name, score in scores.items():
            try:
                scores[name] = score()
            except FloatingPointError:
                raise ParameterError(f"{name} exceeds the float range for these "
                                     "endpoints") from None
    ab_gap = float(scores["ab_gap"])
    return tuple(EditMetrics(distance, density, ab_gap) for distance, density in
                 zip(scores["layout_preservation"].tolist(),
                     scores["semantic_alignment"].tolist()))


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
    values = {name: value if name == "schedule" else
              checked_number(value, f"sweep axis {name!r}", integer=name.startswith("t_"))
              for name, value in assignment.items()}
    sched = base.schedule
    kind_s = str(values.get("schedule", sched.kind))
    t_max = values.get("t_max", sched.t_max)
    if kind_s != "constant":
        t_max = sched.total
    if "t_m" in values:
        t_min = t_max - values["t_m"]
    elif "t_min" in values:
        t_min = values["t_min"]
    elif "t_max" in values:
        t_min = t_max - (sched.t_max - sched.t_min)
    else:
        t_min = sched.t_min
    new_sched = ScheduleSpec(kind=kind_s, t_min=t_min, t_max=t_max, total=sched.total,
                             amplitude=values.get("weight", sched.amplitude))
    beta = values.get("beta", base.beta)
    return replace(base, schedule=new_sched, beta=None if beta is None else float(beta))


def run_sweep(denoiser: Denoiser, config: RunConfig, axes: Mapping[str, Sequence]
              ) -> tuple[tuple[ManipulationConfig, EditMetrics], ...]:
    """Evaluate the cartesian grid of axis values: one (config, metrics) row each.

    ``config`` gives the rest: its manipulation is the base point the axes
    move, its two named conditions are the reference and editing ones, and
    its model scores the rows.  The shared initial noise is derived from its
    seed; rows are ordered by the lexicographic sort of their axis-value
    tuples.  Every grid point's edit and the two pure paths walk in
    lock-step: one denoiser call per step for all of them.  The grid points
    share those pure paths, so their endpoints are read from the walk's
    buffers, with no record built, and scored in one pass.
    """
    base, c_a, c_b = config.edit_setup()
    axes = {name: tuple(values) for name, values in axes.items()}
    for name, values in axes.items():
        if not values:
            raise ParameterError(f"axis {name!r} has no values")
    names = list(axes)
    try:
        combos = sorted(itertools.product(*(axes[name] for name in names)))
    except TypeError as err:
        raise ParameterError(f"axis values must be mutually comparable: {err}") from err
    configs = [derive_config(base, dict(zip(names, combo))) for combo in combos]
    x_top = standard_normals(substream(config.seed, "sweep", "x_top"), config.model.d)
    (latents, _, C), _, _ = _edit_walk(denoiser, x_top, c_a, c_b, configs, config.grid,
                                       config.noise_schedule, with_path_b=True)
    ends = latents[:, -1]  # the configs' rows, then path A's, then path B's
    return tuple(zip(configs, _score_endpoints(ends[:-2], *ends[-2:], C[-1], config.model)))


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


def inversion_report(denoiser: GMMDenoiser, c: np.ndarray,
                     noise_schedule: AlphaSchedule, t_sample_values: Sequence[int],
                     samples: int, seed: int) -> tuple[InversionReportRow, ...]:
    """Round-trip reconstruction errors per grid resolution.

    The same clean latents, drawn from the denoiser's mixture under ``c``,
    are inverted and regenerated at each grid size, all samples in lock-step;
    relative errors are measured at the clean endpoint, read from the buffers.
    """
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    gen = substream(seed, "inversion-report")
    x0s = denoiser.sample_clean(c, samples, gen)
    rows = []
    for t_sample in t_sample_values:
        grid = make_timestep_grid(noise_schedule.t_train, t_sample)
        x_tops = _walk(denoiser, grid, noise_schedule, x0s, [c] * samples,
                       direction=INVERSION)[0][:, -1]
        gaps = _walk(denoiser, grid, noise_schedule, x_tops, [c] * samples)[0][:, -1] - x0s
        errors = np.sqrt(np.vecdot(gaps, gaps)) / np.sqrt(np.vecdot(x0s, x0s))
        rows.append(InversionReportRow(
            t_sample=int(t_sample),
            mean_rel_error=float(errors.mean()),
            max_rel_error=float(errors.max())))
    return tuple(rows)
