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
from .errors import ConfigError
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


def _parse_model(data: Mapping[str, Any]) -> GMMDenoiserParams:
    _require(data, "model", ("d", "m", "components"))
    comps = data["components"]
    for i, comp in enumerate(comps):
        _require(comp, f"model.components[{i}]",
                 ("weight", "base_mean", "condition_map", "variance"))
    if not comps:
        raise ConfigError("model needs at least one component")

    def stack(key):
        return np.array([comp[key] for comp in comps], dtype=np.float64)

    params = GMMDenoiserParams(weights=stack("weight"), base_means=stack("base_mean"),
                               condition_maps=stack("condition_map"),
                               variances=stack("variance"))
    d, m = int(data["d"]), int(data["m"])
    if (params.d, params.m) != (d, m):
        raise ConfigError(f"model declares d={d}, m={m} but its components have "
                          f"d={params.d}, m={params.m}")
    return params


def _parse_conditions(data: Mapping[str, Any], m: int) -> dict[str, ConditionEmbedding]:
    if not isinstance(data, Mapping):
        raise ConfigError("conditions must map names to vectors")
    named = {}
    for name, vec in data.items():
        values = np.array(vec, dtype=np.float64)
        if values.shape != (m,):
            raise ConfigError(f"condition {name!r} has dimension {values.size}, "
                              f"model expects {m}")
        named[str(name)] = ConditionEmbedding(values, is_null=(name == "null"))
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
    spec = ScheduleSpec(kind=str(sched["kind"]), t_min=int(sched["t_min"]),
                        t_max=int(sched["t_max"]), total=total,
                        amplitude=float(sched.get("amplitude", 1.0)))
    beta, mask, hook = data.get("beta"), data.get("mask"), data.get("cam_hook")
    manip = ManipulationConfig(kind=str(data["kind"]), schedule=spec,
                               beta=None if beta is None else float(beta),
                               mask=None if mask is None else validate_mask(mask, d),
                               cam_hook=None if hook is None else str(hook))
    return (manip, *names)


@dataclass(frozen=True)
class SamplerCfg:
    t_train: int
    t_sample: int
    beta_min: float
    beta_max: float

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "SamplerCfg":
        _require(data, "sampler", ("t_train", "t_sample", "beta_min", "beta_max"))
        return SamplerCfg(t_train=int(data["t_train"]), t_sample=int(data["t_sample"]),
                          beta_min=float(data["beta_min"]), beta_max=float(data["beta_max"]))

    def to_dict(self) -> dict:
        return {"t_train": self.t_train, "t_sample": self.t_sample,
                "beta_min": self.beta_min, "beta_max": self.beta_max}


@dataclass(frozen=True)
class OutputCfg:
    directory: str
    formats: tuple[str, ...] = ("csv", "svg")

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "OutputCfg":
        _require(data, "output", (), ("directory", "formats"))
        directory = data.get("directory") or os.environ.get(OUTPUT_DIR_ENV, "out")
        formats = tuple(str(f) for f in data.get("formats", ("csv", "svg")))
        for f in formats:
            if f not in ("csv", "svg"):
                raise ConfigError(f"unknown output format {f!r}")
        return OutputCfg(directory=str(directory), formats=formats)

    def to_dict(self) -> dict:
        return {"directory": self.directory, "formats": list(self.formats)}


@dataclass(frozen=True)
class RunConfig:
    """A parsed run config, held as the objects the engine runs on.

    ``conditions`` holds the declared conditions only; ``build_conditions``
    adds the all-zeros ``null`` condition when none is declared.
    ``condition_a``/``condition_b`` name the manipulation's reference and
    editing conditions.
    """

    seed: int
    model: GMMDenoiserParams
    conditions: dict[str, ConditionEmbedding]
    sampler: SamplerCfg
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
            sampler = SamplerCfg.from_dict(data["sampler"])
            raw = data.get("manipulation")
            manip, cond_a, cond_b = (None, "a", "b") if raw is None else _parse_manipulation(
                raw, conditions, sampler.t_sample, model.d)
            return RunConfig(
                seed=int(data["seed"]), model=model, conditions=conditions,
                sampler=sampler,
                noise_schedule=build_linear_beta_schedule(
                    sampler.t_train, sampler.beta_min, sampler.beta_max),
                grid=make_timestep_grid(sampler.t_train, sampler.t_sample),
                manipulation=manip, condition_a=cond_a, condition_b=cond_b,
                output=OutputCfg.from_dict(data.get("output", {})))
        except ConfigError:
            raise
        except (ValueError, TypeError, OverflowError) as err:
            raise ConfigError(str(err)) from err

    def to_dict(self) -> dict:
        p = self.model
        out: dict[str, Any] = {
            "seed": self.seed,
            "model": {"d": p.d, "m": p.m, "components": [
                {"weight": w, "base_mean": b, "condition_map": cm, "variance": v}
                for w, b, cm, v in zip(p.weights.tolist(), p.base_means.tolist(),
                                       p.condition_maps.tolist(), p.variances.tolist())]},
            "conditions": {name: c.values.tolist() for name, c in self.conditions.items()},
            "sampler": self.sampler.to_dict(),
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
            named["null"] = ConditionEmbedding(np.zeros(self.model.m), is_null=True)
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
                target = target[int(key)]
            else:
                target = target.setdefault(key, {})
            if not isinstance(target, (dict, list)):
                raise ConfigError(f"override path {path!r} crosses a non-container")
        last = keys[-1]
        if isinstance(target, list):
            target[int(last)] = value
        else:
            target[last] = value
    return data
