import numpy as np
import pytest

from diffpath.config import RunConfig
from diffpath.denoiser import Denoiser, GMMDenoiser, GMMDenoiserParams
from diffpath.metrics import SweepScenario
from diffpath.presets import demo_config_dict, preset_manipulation
from diffpath.rng import standard_normals, substream

#: the default sweep and the window-grid demo
WINDOW_AXES = {"t_max": (50, 48, 46, 44, 42), "t_m": (5, 10, 15, 20, 25)}


@pytest.fixture(scope="session")
def demo_cfg() -> RunConfig:
    return RunConfig.from_dict(demo_config_dict())


@pytest.fixture(scope="session")
def demo(demo_cfg):
    """Bundled model unpacked into the pieces most tests need."""
    conds = demo_cfg.build_conditions()
    return {
        "cfg": demo_cfg,
        "denoiser": demo_cfg.build_denoiser(),
        "params": demo_cfg.model,
        "c_a": conds["a"],
        "c_b": conds["b"],
        "null": conds["null"],
        "schedule": demo_cfg.build_noise_schedule(),
        "grid": demo_cfg.build_grid(),
        "x_top": standard_normals(substream(demo_cfg.seed, "x_top"), demo_cfg.model.d),
    }


def single_gaussian(base_mean=(0.1, -0.2), cond_map=((0.9, 0.2), (0.1, 0.8)),
                    variance=0.8) -> GMMDenoiser:
    params = GMMDenoiserParams(
        weights=np.array([1.0]),
        base_means=np.array([base_mean], dtype=float),
        condition_maps=np.array([cond_map], dtype=float),
        variances=np.array([variance]))
    return GMMDenoiser(params)


@pytest.fixture(scope="session")
def affine_denoiser() -> GMMDenoiser:
    return single_gaussian()


def preset_config(preset: str) -> RunConfig:
    """The demo config with a named manipulation preset from condition a to b."""
    data = demo_config_dict()
    data["manipulation"] = {**preset_manipulation(preset),
                            "condition_a": "a", "condition_b": "b"}
    return RunConfig.from_dict(data)


def sweep_scenario(config: RunConfig, denoiser: Denoiser) -> SweepScenario:
    """The sweep of ``config``'s manipulation, predicted by ``denoiser``."""
    conds = config.build_conditions()
    return SweepScenario(denoiser=denoiser, score_params=config.model,
                         c_a=conds[config.condition_a], c_b=conds[config.condition_b],
                         grid=config.grid, noise_schedule=config.noise_schedule,
                         base=config.build_manipulation())


class PerRowDenoiser(Denoiser):
    """Forwards ``predict_noise`` only, so a batch takes the base class's per-row loop."""

    def __init__(self, inner: Denoiser):
        self._inner = inner
        self.d = inner.d
        self.m = inner.m

    def predict_noise(self, x, c, alpha_bar, t):
        return self._inner.predict_noise(x, c, alpha_bar, t)


class NanRowDenoiser(PerRowDenoiser):
    """Answers row ``row`` of a batch at training step ``level`` with NaN."""

    def __init__(self, inner: Denoiser, level: int, row: int):
        super().__init__(inner)
        self.level = level
        self.row = row

    def predict_noise_batch(self, X, C, alpha_bar, t):
        eps = self._inner.predict_noise_batch(X, C, alpha_bar, t)
        if t == self.level and len(X) > self.row:
            eps[self.row] = np.nan
        return eps
