"""Run-configuration schema: strict parsing, canonical serialization.

A run config is a single JSON document with six sections (seed, model,
conditions, sampler, manipulation, output).  Parsing is strict: unknown keys
anywhere are rejected so typos cannot silently change a run.  Each section is
parsed once, straight into the objects the engine runs on; the canonical
serialization is rendered back from those objects, is byte-stable, and its
SHA-256 prefix is the run's digest.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .denoiser import ConditionEmbedding, GMMDenoiser, GMMDenoiserParams
from .edits import ManipulationConfig, validate_mask
from .errors import ConfigError, checked_number
from .schedule import (AlphaSchedule, ScheduleSpec, TimestepGrid,
                       build_linear_beta_schedule, make_timestep_grid)

OUTPUT_DIR_ENV = "DIFFPATH_OUTPUT_DIR"


def _require(mapping: Mapping[str, Any], section: str, keys: tuple[str, ...],
             optional: tuple[str, ...] = ()) -> None:
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{section} must be an object")
    unknown = set(mapping) - set(keys) - set(optional)
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {sorted(unknown)}")
    missing = [k for k in keys if k not in mapping]
    if missing:
        raise ConfigError(f"missing keys in {section}: {missing}")


def _numbers(value, name: str):
    """``value``, a number or nested lists of numbers, each checked by ``checked_number``."""
    if isinstance(value, (list, tuple)):
        return [_numbers(entry, f"{name}[{i}]") for i, entry in enumerate(value)]
    return checked_number(value, name)


def _parse_model(data: Mapping[str, Any]) -> GMMDenoiserParams:
    _require(data, "model", ("d", "m", "components"))
    comps = data["components"]
    for i, comp in enumerate(comps):
        _require(comp, f"model.components[{i}]",
                 ("weight", "base_mean", "condition_map", "variance"))
    if not comps:
        raise ConfigError("model needs at least one component")

    def stack(key):
        return np.array([_numbers(comp[key], f"model.components[{i}].{key}")
                         for i, comp in enumerate(comps)], dtype=np.float64)

    params = GMMDenoiserParams(weights=stack("weight"), base_means=stack("base_mean"),
                               condition_maps=stack("condition_map"),
                               variances=stack("variance"))
    d, m = (checked_number(data[key], f"model.{key}", integer=True) for key in ("d", "m"))
    if (params.d, params.m) != (d, m):
        raise ConfigError(f"model declares d={d}, m={m} but its components have "
                          f"d={params.d}, m={params.m}")
    return params


def _parse_conditions(data: Mapping[str, Any], m: int) -> dict[str, ConditionEmbedding]:
    if not isinstance(data, Mapping):
        raise ConfigError("conditions must map names to vectors")
    named = {}
    for name, vec in data.items():
        values = np.array(_numbers(vec, f"conditions.{name}"), dtype=np.float64)
        if values.shape != (m,):
            raise ConfigError(f"condition {name!r} has dimension {values.size}, "
                              f"model expects {m}")
        named[str(name)] = ConditionEmbedding(values)
    return named


def _parse_manipulation(data: Mapping[str, Any], conditions: Mapping[str, Any],
                        total: int, d: int) -> tuple[ManipulationConfig, str, str]:
    _require(data, "manipulation", ("kind", "schedule"),
             ("beta", "mask", "cam_hook", "condition_a", "condition_b"))
    names = (str(data.get("condition_a", "a")), str(data.get("condition_b", "b")))
    for name in names:
        if name not in conditions and name != "null":
            raise ConfigError(f"manipulation references unknown condition {name!r}")
    sched = data["schedule"]
    _require(sched, "manipulation.schedule", ("kind", "t_min", "t_max"), ("amplitude",))
    t_min, t_max = (checked_number(sched[key], f"manipulation.schedule.{key}", integer=True)
                    for key in ("t_min", "t_max"))
    spec = ScheduleSpec(kind=str(sched["kind"]), t_min=t_min, t_max=t_max, total=total,
                        amplitude=checked_number(sched.get("amplitude", 1.0),
                                                 "manipulation.schedule.amplitude"))
    beta, mask, hook = data.get("beta"), data.get("mask"), data.get("cam_hook")
    manip = ManipulationConfig(kind=str(data["kind"]), schedule=spec,
                               beta=None if beta is None else checked_number(
                                   beta, "manipulation.beta"),
                               mask=None if mask is None else validate_mask(
                                   _numbers(mask, "manipulation.mask"), d),
                               cam_hook=None if hook is None else str(hook))
    return (manip, *names)


@dataclass(frozen=True)
class OutputCfg:
    directory: str
    formats: tuple[str, ...] = ("csv", "svg")

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "OutputCfg":
        _require(data, "output", (), ("directory", "formats"))
        directory = data.get("directory")
        if directory is not None and not isinstance(directory, str):
            raise ConfigError(f"output.directory must be a string, got {directory!r}")
        directory = directory or os.environ.get(OUTPUT_DIR_ENV, "out")
        formats = data.get("formats", ("csv", "svg"))
        if not isinstance(formats, (list, tuple)):
            raise ConfigError(f"output.formats must be a list, got {formats!r}")
        formats = tuple(str(f) for f in formats)
        for f in formats:
            if f not in ("csv", "svg"):
                raise ConfigError(f"unknown output format {f!r}")
        return OutputCfg(directory=directory, formats=formats)

    def to_dict(self) -> dict:
        return {"directory": self.directory, "formats": list(self.formats)}


@dataclass(frozen=True)
class RunConfig:
    """A parsed run config, held as the objects the engine runs on.

    The ``sampler`` section lives in ``noise_schedule`` and ``grid`` and is
    rendered back from them, so the digest always describes the grid run.
    ``conditions`` holds the declared conditions only; ``build_conditions``
    adds the all-zeros ``null`` condition when none is declared.
    ``condition_a``/``condition_b`` name the manipulation's reference and
    editing conditions.
    """

    seed: int
    model: GMMDenoiserParams
    conditions: dict[str, ConditionEmbedding]
    noise_schedule: AlphaSchedule
    grid: TimestepGrid
    manipulation: ManipulationConfig | None
    condition_a: str
    condition_b: str
    output: OutputCfg

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "RunConfig":
        _require(data, "config", ("seed", "model", "conditions", "sampler"),
                 ("manipulation", "output"))
        try:
            model = _parse_model(data["model"])
            conditions = _parse_conditions(data["conditions"], model.m)
            sampler = data["sampler"]
            _require(sampler, "sampler", ("t_train", "t_sample", "beta_min", "beta_max"))
            t_train, t_sample = (checked_number(sampler[key], f"sampler.{key}", integer=True)
                                 for key in ("t_train", "t_sample"))
            beta_min, beta_max = (checked_number(sampler[key], f"sampler.{key}")
                                  for key in ("beta_min", "beta_max"))
            raw = data.get("manipulation")
            manip, cond_a, cond_b = (None, "a", "b") if raw is None else _parse_manipulation(
                raw, conditions, t_sample, model.d)
            return RunConfig(
                seed=checked_number(data["seed"], "seed", integer=True), model=model,
                conditions=conditions,
                noise_schedule=build_linear_beta_schedule(t_train, beta_min, beta_max),
                grid=make_timestep_grid(t_train, t_sample),
                manipulation=manip, condition_a=cond_a, condition_b=cond_b,
                output=OutputCfg.from_dict(data.get("output", {})))
        except ConfigError:
            raise
        except (ValueError, TypeError, OverflowError) as err:
            raise ConfigError(str(err)) from err

    def to_dict(self) -> dict:
        p, schedule = self.model, self.noise_schedule
        out: dict[str, Any] = {
            "seed": self.seed,
            "model": {"d": p.d, "m": p.m, "components": [
                {"weight": w, "base_mean": b, "condition_map": cm, "variance": v}
                for w, b, cm, v in zip(p.weights.tolist(), p.base_means.tolist(),
                                       p.condition_maps.tolist(), p.variances.tolist())]},
            "conditions": {name: c.values.tolist() for name, c in self.conditions.items()},
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
            if manip.beta is not None:
                section["beta"] = manip.beta
            if manip.mask is not None:
                section["mask"] = manip.mask.tolist()
            if manip.cam_hook is not None:
                section["cam_hook"] = manip.cam_hook
            out["manipulation"] = section
        out["output"] = self.output.to_dict()
        return out

    def build_denoiser(self) -> GMMDenoiser:
        return GMMDenoiser(self.model)

    def build_conditions(self) -> dict[str, ConditionEmbedding]:
        named = dict(self.conditions)
        if "null" not in named:
            named["null"] = ConditionEmbedding(np.zeros(self.model.m))
        return named

    def build_noise_schedule(self) -> AlphaSchedule:
        return self.noise_schedule

    def build_grid(self) -> TimestepGrid:
        return self.grid

    def build_manipulation(self) -> ManipulationConfig:
        if self.manipulation is None:
            raise ConfigError("this command needs a manipulation section (or --preset)")
        return self.manipulation


def parse_config(text: str) -> RunConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    return RunConfig.from_dict(data)


def canonical_json(config: RunConfig) -> str:
    return json.dumps(config.to_dict(), indent=2, sort_keys=False) + "\n"


def config_digest(config: RunConfig) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:12]


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply ``path.to.key=value`` overrides to a raw config dict.

    Values parse as JSON when possible and fall back to plain strings;
    integer path segments index into lists.
    """
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form path=value")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
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
