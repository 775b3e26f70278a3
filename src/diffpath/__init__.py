"""Deterministic DDIM path engine.

Sampling, inversion, and schedule-driven manipulation of diffusion sampling
paths, verified against a closed-form Gaussian-mixture denoiser.
"""

from .denoiser import (ConditionEmbedding, Denoiser, GMMDenoiser, GMMDenoiserParams,
                       gmm_log_density, gmm_posterior_mean, gmm_responsibilities,
                       predict_noise)
from .edits import (CamContext, EditResult, ManipulationConfig, apply_mask, lerp,
                    prompt_switch, prompt_switches, register_cam_hook, run_edit,
                    run_edits)
from .errors import ConfigError, DenoiserError, ParameterError
from .metrics import EditMetrics, inversion_report, run_sweep, score_edit
from .sampler import (PathRecord, NullTextResult, cfg_combine, ddim_invert,
                      ddim_step, effective_noise, f_theta, generate, invert_step,
                      null_text_invert)
from .schedule import (AlphaSchedule, ScheduleSpec, TimestepGrid,
                       build_linear_beta_schedule, make_timestep_grid, omega)

__version__ = "0.1.0"

__all__ = [
    "AlphaSchedule", "CamContext", "ConditionEmbedding", "ConfigError",
    "Denoiser", "DenoiserError", "EditMetrics", "EditResult", "GMMDenoiser",
    "GMMDenoiserParams", "ManipulationConfig", "NullTextResult",
    "ParameterError", "PathRecord", "ScheduleSpec", "TimestepGrid", "apply_mask",
    "build_linear_beta_schedule", "cfg_combine", "ddim_invert", "ddim_step",
    "effective_noise", "f_theta", "generate", "gmm_log_density", "gmm_posterior_mean",
    "inversion_report", "invert_step", "lerp",
    "gmm_responsibilities", "make_timestep_grid", "null_text_invert", "omega",
    "predict_noise", "prompt_switch", "prompt_switches", "register_cam_hook", "run_edit",
    "run_edits", "run_sweep", "score_edit",
]
