"""Shipped defaults: the bundled demo model and named manipulation presets.

Preset windows and factors follow the recommended operating ranges for each
operator: noise interpolation works best starting within the first few
sampling steps with a window of 15-25 steps, condition interpolation from the
very top, latent interpolation with a reduced factor (0.7) since a full-
strength latent override pins the output to the reference path, guidance over
the whole grid with a negative scale, and attention-style hooks over a long
window.  Factors default to 0.7 for latent blending and 1.0 elsewhere, with
guidance at -0.3.
"""

from __future__ import annotations

import copy

from .errors import ConfigError

#: manipulation-section presets, keyed by "<operator>-<scope>"
EDIT_PRESETS: dict[str, dict] = {
    "noise-interp-local": {
        "kind": "noise_interp",
        "schedule": {"kind": "constant", "t_min": 28, "t_max": 48, "amplitude": 1.0},
    },
    "noise-interp-global": {
        "kind": "noise_interp",
        "schedule": {"kind": "constant", "t_min": 26, "t_max": 46, "amplitude": 1.0},
    },
    "cond-interp-local": {
        "kind": "cond_interp",
        "schedule": {"kind": "constant", "t_min": 28, "t_max": 48, "amplitude": 1.0},
    },
    "cond-interp-global": {
        "kind": "cond_interp",
        "schedule": {"kind": "constant", "t_min": 28, "t_max": 50, "amplitude": 1.0},
    },
    "latent-interp-local": {
        "kind": "latent_interp",
        "schedule": {"kind": "constant", "t_min": 28, "t_max": 46, "amplitude": 0.7},
    },
    "latent-interp-global": {
        "kind": "latent_interp",
        "schedule": {"kind": "constant", "t_min": 33, "t_max": 45, "amplitude": 0.7},
    },
    "guidance-local": {
        "kind": "guidance",
        "schedule": {"kind": "constant", "t_min": 0, "t_max": 50, "amplitude": 1.0},
        "beta": -0.65,
    },
    "guidance-default": {
        "kind": "guidance",
        "schedule": {"kind": "constant", "t_min": 0, "t_max": 50, "amplitude": 1.0},
        "beta": -0.3,
    },
    "attention-local": {
        "kind": "attention",
        "schedule": {"kind": "constant", "t_min": 10, "t_max": 50, "amplitude": 1.0},
        "cam_hook": "identity",
    },
    "noise-mask-demo": {
        "kind": "noise_mask",
        "schedule": {"kind": "constant", "t_min": 28, "t_max": 48, "amplitude": 1.0},
        "mask": [1.0, 0.0],
    },
    "latent-mask-demo": {
        "kind": "latent_mask",
        "schedule": {"kind": "constant", "t_min": 28, "t_max": 46, "amplitude": 1.0},
        "mask": [1.0, 0.0],
    },
}

#: two-condition, three-component planar model used by the CLI when no
#: config is given; component variances stay above 1/(2*pi) so the mixture
#: density never exceeds one and alignment scores stay nonnegative.
DEMO_CONFIG: dict = {
    "seed": 20240,
    "model": {
        "d": 2,
        "m": 2,
        "components": [
            {"weight": 0.5, "base_mean": [0.0, 0.0],
             "condition_map": [[0.8, -0.1], [0.05, 0.55]], "variance": 0.85},
            {"weight": 0.3, "base_mean": [0.55, -0.35],
             "condition_map": [[-0.25, 0.4], [0.5, 0.15]], "variance": 0.75},
            {"weight": 0.2, "base_mean": [-0.45, 0.4],
             "condition_map": [[0.2, 0.3], [-0.4, 0.45]], "variance": 0.95},
        ],
    },
    "conditions": {
        "null": [0.0, 0.0],
        "a": [1.0, 0.25],
        "b": [-0.35, 1.0],
    },
    "sampler": {"t_train": 1000, "t_sample": 50, "beta_min": 1e-4, "beta_max": 0.02},
    "manipulation": {
        "kind": "noise_interp",
        "schedule": {"kind": "constant", "t_min": 28, "t_max": 48, "amplitude": 1.0},
        "condition_a": "a",
        "condition_b": "b",
    },
    "output": {"directory": "out", "formats": ["csv", "svg"]},
}


def demo_config_dict() -> dict:
    return copy.deepcopy(DEMO_CONFIG)


def preset_manipulation(name: str) -> dict:
    if name not in EDIT_PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(EDIT_PRESETS)}")
    return copy.deepcopy(EDIT_PRESETS[name])
