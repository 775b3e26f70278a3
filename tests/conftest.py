import numpy as np
import pytest

from diffpath.config import RunConfig
from diffpath.denoiser import GMMDenoiser, GMMDenoiserParams
from diffpath.presets import demo_config_dict
from diffpath.rng import standard_normals, substream


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
