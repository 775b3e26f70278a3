"""Simple reference computations the tests hold the engine to.

``f_theta`` and ``ddim_step`` are written from the DDIM update itself,

    x_{t-1} = sqrt(a_prev) * f(x_t, eps, a_t) + sqrt(1 - a_prev) * eps,
    f(x_t, eps, a_t) = (x_t - sqrt(1 - a_t) * eps) / sqrt(a_t),

so a walk compared with them bit for bit is checked against a second,
separate computation.  Inversion hops are checked against ``ddim_step``
too, run upward: from the level a hop leaves to the level it lands on.
The others are thin wrappers over the private engine code they exercise,
looked up through its module when called, so that a monkeypatch of that
code reaches them.  None checks its arguments.
"""

import numpy as np

from diffpath import denoiser, edits


def f_theta(x_t, eps, alpha_bar_t):
    """Predicted clean latent implied by (x_t, eps) at level alpha_bar_t."""
    return (x_t - np.sqrt(1.0 - alpha_bar_t) * eps) / np.sqrt(alpha_bar_t)


def ddim_step(x_t, eps, alpha_bar_t, alpha_bar_prev):
    """One deterministic update from level alpha_bar_t down to alpha_bar_prev."""
    return (np.sqrt(alpha_bar_prev) * f_theta(x_t, eps, alpha_bar_t)
            + np.sqrt(1.0 - alpha_bar_prev) * eps)


def lerp(a, b, w):
    """w * a + (1 - w) * b through the operators' blend; w weights the first operand."""
    return edits._blend(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64), w)


def apply_mask(a, b, mask):
    """Elementwise mask * a + (1 - mask) * b: ``lerp`` with per-entry weights."""
    return lerp(a, b, np.asarray(mask, dtype=np.float64))


def gmm_responsibilities(params, x, c, alpha_bar):
    """Posterior component weights of x_t under the noised mixture."""
    return denoiser._noised_mixture(params, x, c, alpha_bar)[3]


def gmm_posterior_mean(params, x, c, alpha_bar):
    """E[x_0 | x_t, c] for the mixture; an overflow raises FloatingPointError."""
    with np.errstate(over="raise"):
        return denoiser._posterior_mean(params, x, c, alpha_bar)
