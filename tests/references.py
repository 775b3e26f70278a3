"""Simple reference computations the tests hold the engine to.

``f_theta`` and ``ddim_step`` are written from the DDIM update itself,

    x_{t-1} = sqrt(a_prev) * f(x_t, eps, a_t) + sqrt(1 - a_prev) * eps,
    f(x_t, eps, a_t) = (x_t - sqrt(1 - a_t) * eps) / sqrt(a_t),

so a walk compared with them bit for bit is checked against a second,
separate computation.  Inversion hops are checked against ``ddim_step``
too, run upward: from the level a hop leaves to the level it lands on.

``predict_noise``, ``gmm_posterior_mean`` and ``gmm_responsibilities`` are
the mixture oracle written out one row at a time, separate from the
package's batched pass: means through ``@`` on one condition, each squared
distance halved and then divided by its variance (the pass divides by
twice the variance, which differs only for a subnormal distance), and one
``errstate`` per row.  They share only the far limit, ``_far_log_resp``,
with the package.  ``lerp`` and ``apply_mask`` are thin wrappers over the
engine's blend.  Private engine code is looked up through its module when
called, so that a monkeypatch of it reaches these references.  None checks
its arguments.
"""

import math

import numpy as np

from diffpath import denoiser, edits
from diffpath.errors import ParameterError


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


def _noised_mixture(params, x, c, a):
    """Means, marginal variances, residuals and responsibilities of x_t's components.

    The marginal of x_t is a mixture of N(sqrt(a)*mu_k, (a*s2_k + 1 - a) I).
    Each squared distance is halved, then divided by its variance; a
    distance too large for a float makes its component's log density -inf,
    and when that holds for every component the package's ``_far_log_resp``
    takes the limit.
    """
    x = np.asarray(x, dtype=np.float64)
    mus = params.condition_maps @ c + params.base_means  # (K, d)
    var = a * params.variances + (1.0 - a)               # (K,)
    resid = x - math.sqrt(a) * mus                       # (K, d)
    log_norm = np.log(params.weights) - 0.5 * params.d * np.log(2.0 * np.pi * var)
    with np.errstate(over="ignore"):
        log_resp = log_norm - 0.5 * np.einsum("kd,kd->k", resid, resid) / var
        peak = log_resp.max()
        if peak == -np.inf:
            log_resp = denoiser._far_log_resp(x, mus, resid, var, log_norm, np.sqrt(a))
            peak = log_resp.max()
    resp = np.exp(log_resp - peak)
    return mus, var, resid, resp / resp.sum()


def _posterior_mean(params, x, c, a):
    mus, var, resid, resp = _noised_mixture(params, x, c, a)
    shrink = math.sqrt(a) * params.variances / var  # (K,)
    return resp @ (mus + shrink[:, None] * resid)


def gmm_responsibilities(params, x, c, alpha_bar):
    """Posterior component weights of x_t under the noised mixture."""
    return _noised_mixture(params, x, c, alpha_bar)[3]


def gmm_posterior_mean(params, x, c, alpha_bar):
    """E[x_0 | x_t, c] for the mixture; an overflow raises FloatingPointError."""
    with np.errstate(over="raise"):
        return _posterior_mean(params, x, c, alpha_bar)


def predict_noise(params, x, c, alpha_bar):
    """The oracle's noise prediction for one row; an overflow is the package's ParameterError."""
    a, x, c = float(alpha_bar), np.asarray(x, dtype=np.float64), np.asarray(c, dtype=np.float64)
    try:
        with np.errstate(over="raise"):
            return (x - math.sqrt(a) * _posterior_mean(params, x, c, a)) / math.sqrt(1.0 - a)
    except FloatingPointError:
        raise ParameterError(f"noise prediction exceeds the float range at alpha_bar = {a}") \
            from None
