import json
import re

import numpy as np
import pytest

from diffpath.config import (MAX_T_TRAIN, RunConfig, apply_overrides, canonical_json,
                             config_digest)
from diffpath.errors import ConfigError
from diffpath.presets import EDIT_PRESETS, demo_config_dict, preset_manipulation


def test_demo_config_parses_and_builds(demo_cfg):
    assert demo_cfg.model.d == 2 and demo_cfg.model.m == 2
    den = demo_cfg.build_denoiser()
    assert den.d == 2 and den.m == 2
    assert set(demo_cfg.build_conditions()) == {"null", "a", "b"}
    manip = demo_cfg.build_manipulation()
    assert manip.kind == "noise_interp"
    assert manip.schedule.total == demo_cfg.grid.t_sample


def test_build_conditions_adds_a_read_only_zero_null():
    data = demo_config_dict()
    del data["conditions"]["null"]
    cfg = RunConfig.from_dict(data)
    declared, digest = cfg.to_dict(), config_digest(cfg)
    null = cfg.build_conditions()["null"]
    assert null.tobytes() == np.zeros(cfg.model.m).tobytes() and not null.flags.writeable
    assert "null" not in cfg.conditions
    assert (cfg.to_dict(), config_digest(cfg)) == (declared, digest)


def test_round_trip_is_canonical():
    cfg = RunConfig.from_dict(json.loads(json.dumps(demo_config_dict())))
    once = canonical_json(cfg)
    again = RunConfig.from_dict(json.loads(once))
    assert canonical_json(again) == once
    assert config_digest(cfg) == config_digest(again)


def test_digest_changes_with_content():
    d1 = demo_config_dict()
    d2 = demo_config_dict()
    d2["seed"] = d1["seed"] + 1
    assert config_digest(RunConfig.from_dict(d1)) != config_digest(RunConfig.from_dict(d2))


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(extra=1),
    lambda d: d["model"].update(flavor="x"),
    lambda d: d["model"]["components"][0].update(skew=2),
    lambda d: d["sampler"].update(warmup=5),
    lambda d: d["manipulation"].update(strength=3),
    lambda d: d["manipulation"]["schedule"].update(shape="x"),
    lambda d: d["output"].update(compress=True),
])
def test_unknown_keys_rejected(mutate):
    data = demo_config_dict()
    mutate(data)
    with pytest.raises(ConfigError):
        RunConfig.from_dict(data)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("seed"),
    lambda d: d["model"].pop("components"),
    lambda d: d["sampler"].pop("t_train"),
])
def test_missing_keys_rejected(mutate):
    data = demo_config_dict()
    mutate(data)
    with pytest.raises(ConfigError):
        RunConfig.from_dict(data)


def test_condition_dimension_checked():
    data = demo_config_dict()
    data["conditions"]["a"] = [1.0, 0.0, 0.0]
    with pytest.raises(ConfigError):
        RunConfig.from_dict(data)


def test_manipulation_condition_names_checked():
    data = demo_config_dict()
    data["manipulation"]["condition_a"] = "missing"
    with pytest.raises(ConfigError):
        RunConfig.from_dict(data)


def test_schedule_length_is_bounded():
    data = demo_config_dict()
    data["sampler"]["t_train"] = MAX_T_TRAIN
    assert RunConfig.from_dict(data).noise_schedule.t_train == MAX_T_TRAIN
    data["sampler"]["t_train"] = MAX_T_TRAIN + 1
    with pytest.raises(ConfigError, match=r"^sampler\.t_train must be at most 1000000, got"):
        RunConfig.from_dict(data)


def test_invalid_window_is_config_error():
    data = demo_config_dict()
    data["manipulation"]["schedule"]["t_max"] = 60
    with pytest.raises(ConfigError):
        RunConfig.from_dict(data)


def test_alias_kind_rejected():
    data = demo_config_dict()
    data["manipulation"]["kind"] = "PNI"
    with pytest.raises(ConfigError, match="unknown manipulation kind"):
        RunConfig.from_dict(data)


def test_mask_round_trip_and_validation():
    data = demo_config_dict()
    data["manipulation"]["kind"] = "noise_mask"
    data["manipulation"]["mask"] = [1.0, 0.0]
    cfg = RunConfig.from_dict(data)
    manip = cfg.build_manipulation()
    assert manip.mask.tolist() == [1.0, 0.0]
    data["manipulation"]["mask"] = [0.5, 0.0]
    with pytest.raises(ConfigError):
        RunConfig.from_dict(data)


def test_overrides_nested_and_typed():
    data = demo_config_dict()
    apply_overrides(data, ["manipulation.schedule.amplitude=0.7",
                           "sampler.t_sample=25",
                           "manipulation.schedule.t_min=5",
                           "manipulation.schedule.t_max=20",
                           "model.components.0.variance=0.5",
                           "manipulation.condition_b=a"])
    cfg = RunConfig.from_dict(data)
    assert cfg.manipulation.schedule.amplitude == 0.7
    assert cfg.grid.t_sample == 25
    assert cfg.model.variances[0] == 0.5
    assert cfg.condition_b == "a"


def test_window_must_fit_grid():
    data = demo_config_dict()
    apply_overrides(data, ["sampler.t_sample=25"])
    with pytest.raises(ConfigError):
        RunConfig.from_dict(data)


def test_override_bad_shapes():
    with pytest.raises(ConfigError):
        apply_overrides({}, ["no-equals-sign"])
    with pytest.raises(ConfigError):
        apply_overrides({"a": 3}, ["a.b=1"])
    for path in ("model.components.9.weight", "model.components.x.weight",
                 "conditions.a.5", "conditions.a.x"):
        with pytest.raises(ConfigError, match=f"override path '{path}'"):
            apply_overrides(demo_config_dict(), [f"{path}=1"])


def _set_manipulation_mask(d, mask):
    d["manipulation"].update(kind="noise_mask", mask=mask)


@pytest.mark.parametrize("field, mutate", [
    ("conditions.a[0]", lambda d: d["conditions"].update(a=[True, 0.25])),
    ("conditions.a[0]", lambda d: d["conditions"].update(a=["1.0", "0.25"])),
    ("model.components[0].weight", lambda d: d["model"]["components"][0].update(weight="0.5")),
    ("model.components[1].variance", lambda d: d["model"]["components"][1].update(variance=True)),
    ("model.components[0].base_mean[0]",
     lambda d: d["model"]["components"][0].update(base_mean=["0", "0"])),
    ("model.components[0].condition_map[1][0]",
     lambda d: d["model"]["components"][0]["condition_map"][1].__setitem__(0, False)),
    ("manipulation.mask[0]", lambda d: _set_manipulation_mask(d, [True, False])),
    ("manipulation.mask[1]", lambda d: _set_manipulation_mask(d, [1.0, "0"])),
    ("conditions.a[0]", lambda d: d["conditions"].update(a=[float("nan"), 0.25])),
    ("conditions.b[1]", lambda d: d["conditions"].update(b=[0.0, float("-inf")])),
    ("model.components[2].base_mean[1]",
     lambda d: d["model"]["components"][2].update(base_mean=[0.0, 10**400])),
    ("model.components[0].variance",
     lambda d: d["model"]["components"][0].update(variance=float("inf"))),
], ids=["bool-condition", "string-condition", "string-weight", "bool-variance",
        "string-base-mean", "bool-condition-map", "bool-mask", "string-mask",
        "nan-condition", "infinite-condition", "huge-integer-base-mean", "infinite-variance"])
def test_vector_entries_must_be_numbers(field, mutate):
    data = demo_config_dict()
    mutate(data)
    with pytest.raises(ConfigError, match=re.escape(field) + " must be (a number|finite)"):
        RunConfig.from_dict(data)


@pytest.mark.parametrize("key, value, message", [
    ("formats", "csv", "output.formats must be a list"),
    ("directory", 5, "output.directory must be a string"),
])
def test_output_field_types_checked(key, value, message):
    data = demo_config_dict()
    data["output"][key] = value
    with pytest.raises(ConfigError, match=message):
        RunConfig.from_dict(data)


def test_output_defaults_from_env(monkeypatch):
    data = demo_config_dict()
    del data["output"]
    monkeypatch.setenv("DIFFPATH_OUTPUT_DIR", "env-dir")
    cfg = RunConfig.from_dict(data)
    assert cfg.output_dir == "env-dir"
    monkeypatch.delenv("DIFFPATH_OUTPUT_DIR")
    cfg = RunConfig.from_dict(data)
    assert cfg.output_dir == "out"


def test_presets_all_valid():
    for name in EDIT_PRESETS:
        data = demo_config_dict()
        manip = preset_manipulation(name)
        manip.setdefault("condition_a", "a")
        manip.setdefault("condition_b", "b")
        data["manipulation"] = manip
        cfg = RunConfig.from_dict(data)
        built = cfg.build_manipulation()
        assert built.schedule.total == cfg.grid.t_sample


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset_manipulation("nope")


#: canonical-form digests of the demo config and of each preset on top of it
PINNED_DIGESTS = {
    "demo": "0ee8652ad6b1",
    "noise-interp-local": "0ee8652ad6b1",
    "noise-interp-global": "7d79d5497fb9",
    "cond-interp-local": "e007a4e6602d",
    "cond-interp-global": "00cf8c668e90",
    "latent-interp-local": "f8de5484adf3",
    "latent-interp-global": "505a3fc6ea84",
    "guidance-local": "5800808b7940",
    "guidance-default": "18b59ee4060c",
    "attention-local": "eb74a8d9e1ed",
    "noise-mask-demo": "006bf9109331",
    "latent-mask-demo": "ba6bada04f68",
}


@pytest.mark.parametrize("name", PINNED_DIGESTS)
def test_config_digest_is_pinned(name):
    data = demo_config_dict()
    if name != "demo":
        data["manipulation"] = {**preset_manipulation(name),
                                "condition_a": "a", "condition_b": "b"}
    assert config_digest(RunConfig.from_dict(data)) == PINNED_DIGESTS[name]


def test_pinned_digests_cover_every_preset():
    assert set(PINNED_DIGESTS) == {"demo", *EDIT_PRESETS}


@pytest.mark.parametrize("key, value", [("d", 3), ("m", 1)])
def test_declared_dimensions_must_match_components(key, value):
    data = demo_config_dict()
    data["model"][key] = value
    vector = {"d": "base_mean", "m": "condition_map[0]"}[key]
    with pytest.raises(ConfigError, match=re.escape(
            f"model.components[0].{vector} has length 2 but model.{key} is {value}")):
        RunConfig.from_dict(data)
