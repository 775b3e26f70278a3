"""Run-configuration schema: strict parsing, canonical serialization.

A run config is a single JSON document with six sections (seed, model,
conditions, sampler, manipulation, output).  ``FIELDS`` is its schema: one
walk checks every field against it, rejects unknown keys anywhere so typos
cannot silently change a run, and names the dotted path of whatever it
rejects.  The checked fields are built once into the objects the engine runs
on, the manipulation into a ``ManipulationConfig``, defined here with its kinds
and cam-hook registry so that parsing loads no walk engine.  The byte-stable
canonical form is rendered from them; its SHA-256 prefix is the run's digest.
"""

from __future__ import annotations

import contextlib
import json
import os
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from .denoiser import GMMDenoiser, GMMDenoiserParams
from .errors import ConfigError, ParameterError, checked_number, shown
from .schedule import (AlphaSchedule, ScheduleSpec, TimestepGrid,
                       build_linear_beta_schedule, make_timestep_grid)

OUTPUT_DIR_ENV = "DIFFPATH_OUTPUT_DIR"

#: the longest noise schedule a config may ask for: each of its arrays holds
#: 8 bytes per training step
MAX_T_TRAIN = 10**6

#: the manipulation fields a sweep axis may vary
AXIS_NAMES = ("t_max", "t_min", "t_m", "schedule", "weight", "beta")

#: What each field may hold: an "int", a "num"ber (both by ``checked_number``),
#: a "dim" (an int that sizes vectors) or a "name" (a string).  A dict is an
#: object whose keys ending in "?" are optional (null counts as absent), or
#: with the key "*" a map from any name; ``[kind]`` is a list and
#: ``(dim, kind)`` a list of as many entries as the "dim" at that path.  The
#: walk keeps this order, so model.d and model.m are bound before their use.
FIELDS: dict = {
    "seed": "int",
    "model": {"d": "dim", "m": "dim", "components": [{
        "weight": "num", "base_mean": ("model.d", "num"),
        "condition_map": ("model.d", ("model.m", "num")), "variance": "num"}]},
    "conditions": {"*": ("model.m", "num")},
    "sampler": {"t_train": "int", "t_sample": "int", "beta_min": "num", "beta_max": "num"},
    "manipulation?": {
        "kind": "name", "condition_a?": "name", "condition_b?": "name",
        "schedule": {"kind": "name", "t_min": "int", "t_max": "int", "amplitude?": "num"},
        "beta?": "num", "mask?": ("model.d", "num"), "cam_hook?": "name"},
    "output?": {"directory?": "name", "formats?": ["name"]},
}


def _checked(value, kind, path: str, dims: dict[str, int]):
    """``value`` checked against the ``FIELDS`` entry ``kind``; errors name ``path``."""
    if kind == "name":
        if isinstance(value, str):
            return value
        raise ConfigError(f"{path} must be a string, got {shown(value)}")
    if isinstance(kind, str):
        try:
            number = checked_number(value, path, integer=kind != "num")
        except ParameterError as err:
            raise ConfigError(str(err)) from None
        if kind == "dim":
            dims[path] = number
        return number
    if isinstance(kind, (list, tuple)):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list, got {shown(value)}")
        if isinstance(kind, tuple) and len(value) != dims[kind[0]]:
            raise ConfigError(f"{path} has length {len(value)} but {kind[0]} is "
                              f"{dims[kind[0]]}")
        return [_checked(entry, kind[-1], f"{path}[{i}]", dims) for i, entry in enumerate(value)]
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path or 'config'} must be an object, got {shown(value)}")
    if "*" in kind:
        return {name: _checked(entry, kind["*"], f"{path}.{name}", dims)
                for name, entry in value.items()}
    keys = {key.rstrip("?"): key for key in kind}
    for name in value:
        if name not in keys:
            raise ConfigError(f"unknown key {f'{path}.{name}'.lstrip('.')}")
    out = {}
    for name, key in keys.items():
        sub = f"{path}.{name}".lstrip(".")
        if value.get(name) is not None or name in value and name == key:
            out[name] = _checked(value[name], kind[key], sub, dims)
        elif name == key:
            raise ConfigError(f"missing key {sub}")
    return out


@contextlib.contextmanager
def _section(name: str):
    """Re-raise a constructor's ValueError as a ConfigError naming the section ``name``."""
    try:
        yield
    except ValueError as err:
        raise ConfigError(f"{name}: {err}") from err


KINDS = ("noise_interp", "noise_mask", "latent_interp", "latent_mask",
         "cond_interp", "guidance", "attention")

#: each masked kind and the blend it runs, with the mask as per-entry weights
_MASKED_KINDS = {"noise_mask": "noise_interp", "latent_mask": "latent_interp"}


def normalize_kind(kind: str) -> str:
    low = kind.strip().lower()
    if low in KINDS:
        return low
    raise ParameterError(f"unknown manipulation kind {kind!r}; expected one of {KINDS}")


def validate_mask(mask, d: int) -> np.ndarray:
    values = np.asarray(mask, dtype=np.float64)
    if values.ndim != 1 or values.size != d:
        raise ParameterError(f"mask must be a vector of dimension {d}")
    if not np.all((values == 0.0) | (values == 1.0)):
        raise ParameterError("mask entries must be exactly 0 or 1 (soft masks rejected)")
    values.setflags(write=False)
    return values


#: a hook maps a step's context to the noise that steps the reference latent; it runs
#: once per step, for every pass that names it
CamHook = Callable[["CamContext"], np.ndarray]  # edits.CamContext

_CAM_HOOKS: dict[str, CamHook] = {"identity": lambda ctx: ctx.eps_edit,
                                  "replay": lambda ctx: ctx.eps_ref}


def register_cam_hook(name: str, hook: CamHook) -> None:
    _CAM_HOOKS[name] = hook


def cam_hook_names() -> tuple[str, ...]:
    return tuple(sorted(_CAM_HOOKS))


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
class RunConfig:
    """A parsed run config, held as the objects the engine runs on.

    The ``sampler`` section lives in ``noise_schedule`` and ``grid`` and is
    rendered back from them, so the digest always describes the grid run.
    ``conditions`` holds the declared conditions only, each a read-only float
    (m,) array; ``build_conditions`` adds the all-zeros ``null`` condition
    when none is declared.
    ``condition_a``/``condition_b`` name the manipulation's reference and
    editing conditions; ``output_dir`` and ``formats`` are the ``output`` section.
    """

    seed: int
    model: GMMDenoiserParams
    conditions: dict[str, np.ndarray]
    noise_schedule: AlphaSchedule
    grid: TimestepGrid
    manipulation: ManipulationConfig | None
    condition_a: str
    condition_b: str
    output_dir: str
    formats: tuple[str, ...]

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "RunConfig":
        dims: dict[str, int] = {}
        cfg = _checked(data, FIELDS, "", dims)
        components, sampler = cfg["model"]["components"], cfg["sampler"]
        if sampler["t_train"] > MAX_T_TRAIN:
            raise ConfigError(f"sampler.t_train must be at most {MAX_T_TRAIN}, "
                              f"got {sampler['t_train']}")
        with _section("model"):
            model = GMMDenoiserParams(*([comp[key] for comp in components] for key in (
                "weight", "base_mean", "condition_map", "variance")))
        rows = np.array([*cfg["conditions"].values()], dtype=np.float64).reshape(-1, model.m)
        rows.setflags(write=False)  # the schema checked each row's length and numbers
        conditions = dict(zip(cfg["conditions"], rows))
        with _section("sampler"):
            grid = make_timestep_grid(sampler["t_train"], sampler["t_sample"])
            noise_schedule = build_linear_beta_schedule(
                sampler["t_train"], sampler["beta_min"], sampler["beta_max"])
        manip, names = None, {"condition_a": "a", "condition_b": "b"}
        if "manipulation" in cfg:
            raw = cfg["manipulation"]
            names = {key: raw.get(key, name) for key, name in names.items()}
            for key, name in names.items():
                if name not in conditions and name != "null":
                    raise ConfigError(f"manipulation.{key}: {name!r} is not in conditions")
            sched, mask = raw["schedule"], raw.get("mask")
            with _section("manipulation"):
                manip = ManipulationConfig(
                    raw["kind"], ScheduleSpec(sched["kind"], sched["t_min"], sched["t_max"],
                                              grid.t_sample, sched.get("amplitude", 1.0)),
                    beta=raw.get("beta"), cam_hook=raw.get("cam_hook"),
                    mask=None if mask is None else validate_mask(mask, model.d))
        out = cfg.get("output", {})
        formats = tuple(out.get("formats", ("csv", "svg")))
        for i, fmt in enumerate(formats):
            if fmt not in ("csv", "svg"):
                raise ConfigError(f"output.formats[{i}] must be 'csv' or 'svg', got {shown(fmt)}")
        return RunConfig(
            seed=cfg["seed"], model=model, conditions=conditions,
            noise_schedule=noise_schedule, grid=grid, manipulation=manip, **names,
            output_dir=out.get("directory") or os.environ.get(OUTPUT_DIR_ENV, "out"),
            formats=formats)

    def to_dict(self) -> dict:
        p, schedule = self.model, self.noise_schedule
        out: dict[str, Any] = {
            "seed": self.seed,
            "model": {"d": p.d, "m": p.m, "components": [
                {"weight": w, "base_mean": b, "condition_map": cm, "variance": v}
                for w, b, cm, v in zip(p.weights.tolist(), p.base_means.tolist(),
                                       p.condition_maps.tolist(), p.variances.tolist())]},
            "conditions": {name: c.tolist() for name, c in self.conditions.items()},
            "sampler": {"t_train": schedule.t_train, "t_sample": self.grid.t_sample,
                        "beta_min": schedule.beta_min, "beta_max": schedule.beta_max},
        }
        manip = self.manipulation
        if manip is not None:
            spec = manip.schedule
            section: dict[str, Any] = {
                "kind": manip.kind,
                "schedule": {"kind": spec.kind, "t_min": spec.t_min, "t_max": spec.t_max,
                             "amplitude": spec.amplitude},
                "condition_a": self.condition_a, "condition_b": self.condition_b}
            mask = None if manip.mask is None else manip.mask.tolist()
            optional = (("beta", manip.beta), ("mask", mask), ("cam_hook", manip.cam_hook))
            section.update((key, value) for key, value in optional if value is not None)
            out["manipulation"] = section
        out["output"] = {"directory": self.output_dir, "formats": list(self.formats)}
        return out

    def build_denoiser(self) -> GMMDenoiser:
        return GMMDenoiser(self.model)

    def build_conditions(self) -> dict[str, np.ndarray]:
        named = dict(self.conditions)
        if "null" not in named:
            named["null"] = np.zeros(self.model.m)
            named["null"].setflags(write=False)
        return named

    def build_noise_schedule(self) -> AlphaSchedule:
        return self.noise_schedule

    def build_grid(self) -> TimestepGrid:
        return self.grid

    def build_manipulation(self) -> ManipulationConfig:
        if self.manipulation is None:
            raise ConfigError("this command needs a manipulation section (or --preset)")
        return self.manipulation

    def condition(self, name: str) -> np.ndarray:
        """The condition called ``name``, ``null`` included."""
        try:
            return self.build_conditions()[name]
        except KeyError:
            raise ConfigError(f"unknown condition {name!r}") from None

    def edit_setup(self) -> tuple[ManipulationConfig, np.ndarray, np.ndarray]:
        """The manipulation and its reference and editing conditions, ``c_a`` and ``c_b``."""
        return (self.build_manipulation(), self.condition(self.condition_a),
                self.condition(self.condition_b))


def canonical_json(config: RunConfig) -> str:
    return json.dumps(config.to_dict(), indent=2, sort_keys=False) + "\n"


def config_digest(config: RunConfig) -> str:
    import hashlib  # deferred: importing it initialises OpenSSL
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:12]


def json_literal(raw: str):
    """``raw`` parsed as JSON, or the string itself where it does not parse.

    A literal past the digit limit, or nested too deep, stays a string that its field rejects.
    """
    try:
        return json.loads(raw)
    except (ValueError, RecursionError):
        return raw


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply ``path.to.key=value`` overrides to a raw config dict.

    Values are ``json_literal``s; integer path segments index into lists.
    """
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form path=value")
        path, raw = item.split("=", 1)
        value = json_literal(raw)
        keys = path.split(".")
        target: Any = data
        for key in keys[:-1]:
            if isinstance(target, list):
                target = target[_list_index(target, key, path)]
            else:
                target = target.setdefault(key, {})
            if not isinstance(target, (dict, list)):
                raise ConfigError(f"override path {path!r} crosses a non-container")
        last = keys[-1]
        if isinstance(target, list):
            target[_list_index(target, last, path)] = value
        else:
            target[last] = value
    return data


def _list_index(items: list, key: str, path: str) -> int:
    """``key`` as an index of ``items``, or a ConfigError naming the override ``path``."""
    try:
        index = int(key)
        items[index]
    except (ValueError, IndexError):
        raise ConfigError(f"override path {path!r}: {key!r} is not an index of a list "
                          f"of {len(items)}") from None
    return index
