"""Monte-Carlo reference for the optimal noise prediction.

Independent of the closed form: clean latents are drawn from the prior
mixture (stratified over components) and reweighted by the forward-corruption
likelihood, a plain self-normalized importance-sampling estimate of
E[eps | x_t, c].
"""

import numpy as np

from diffpath.denoiser import GMMDenoiserParams


def mc_predict_noise(params: GMMDenoiserParams, x: np.ndarray,
                     c: np.ndarray, alpha_bar: float, n_samples: int,
                     gen: np.random.Generator) -> np.ndarray:
    mus = params.component_means(c)
    counts = np.round(params.weights * n_samples).astype(int)
    counts[-1] = n_samples - counts[:-1].sum()
    x0 = np.vstack([
        mus[k] + np.sqrt(params.variances[k]) * gen.normal(size=(count, params.d))
        for k, count in enumerate(counts)])
    resid = x - np.sqrt(alpha_bar) * x0
    log_w = -0.5 * (resid ** 2).sum(axis=1) / (1.0 - alpha_bar)
    log_w -= log_w.max()
    weights = np.exp(log_w)
    weights /= weights.sum()
    return weights @ (resid / np.sqrt(1.0 - alpha_bar))
