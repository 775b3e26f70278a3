"""Noise-prediction interface and a closed-form Gaussian-mixture oracle.

The sampling and editing loops only ever see the abstract :class:`Denoiser`
interface.  The analytic oracle below realizes it exactly for data drawn from
a conditional isotropic Gaussian mixture, which makes every downstream
operator testable against algebra instead of a trained network: under the
forward corruption x_t = sqrt(a)*x_0 + sqrt(1-a)*eps with x_0 mixture
distributed, the Bayes-optimal noise prediction is available in closed form.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .rng import standard_normals


def _condition_matrix(C, n: int | None, m: int) -> np.ndarray:
    """Conditions ``C`` as one read-only float array, checked once where they enter.

    ``C`` is one condition (m,) when ``n`` is None, else a batch (n, m).  A
    caller's float array is never made read-only: the result is a view of it.
    """
    form = "(m,)" if n is None else "(N, m)"
    try:
        C = np.ascontiguousarray(C, dtype=np.float64)
    except (TypeError, ValueError):
        raise ParameterError(f"conditions C must be an {form} array of numbers") from None
    shape = (m,) if n is None else (n, m)
    if C.shape != shape:
        raise ParameterError(f"conditions C must have shape {shape}, got {C.shape}")
    if not np.isfinite(C).all():
        raise ParameterError("condition embedding must be finite: conditions C hold NaN or inf")
    C = C.view()
    C.setflags(write=False)
    return C


class Denoiser(abc.ABC):
    """Predicts the Gaussian noise mixed into a latent at a given noise level.

    Time enters analytic implementations only through ``alpha_bar``; the
    training-step index is still part of the call so remote backends that key
    off discrete timesteps can be bridged.
    """

    #: latent dimension
    d: int
    #: condition-embedding dimension
    m: int
    #: whether independent calls may run concurrently
    concurrent_safe: bool = True

    @abc.abstractmethod
    def predict_noise(self, x: np.ndarray, c: np.ndarray,
                      alpha_bar: float, t: int) -> np.ndarray:
        """eps_hat(x, c) under condition ``c`` (m,) at level ``alpha_bar``, training step ``t``."""

    def predict_noise_batch(self, X: np.ndarray, C: np.ndarray,
                            alpha_bar: float, t: int) -> np.ndarray:
        """Predictions for the rows of ``X`` (N, d) under those of ``C`` (N, m), at one level.

        Row i must equal ``predict_noise(X[i], C[i], alpha_bar, t)`` bit for
        bit; ``C`` is checked once per call.  The walks make every prediction
        through this method, one call per round.  This default passes the
        checked rows, read-only views, straight to one ``predict_noise`` call
        each, in row order, so wrappers and remote peers need not implement
        it; a subclass that overrides either method must keep the two consistent.
        No rows give the (0, d) answer.
        """
        C = _condition_matrix(C, len(X), self.m)
        eps = [self.predict_noise(x, c, alpha_bar, t) for x, c in zip(X, C)]
        return np.array(eps) if eps else np.empty((0, self.d))


@dataclass(frozen=True)
class GMMDenoiserParams:
    """Conditional isotropic Gaussian mixture over clean latents.

    Component k has mean ``condition_maps[k] @ c + base_means[k]`` and
    covariance ``variances[k] * I``; ``weights`` sum to one.  Means affine in
    the embedding keep interpolated conditions meaningful: the model for a
    blended embedding is itself a mixture of the same family.
    """

    weights: np.ndarray        # (K,)
    base_means: np.ndarray     # (K, d)
    condition_maps: np.ndarray  # (K, d, m)
    variances: np.ndarray      # (K,)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.base_means, dtype=np.float64)
        cm = np.asarray(self.condition_maps, dtype=np.float64)
        v = np.asarray(self.variances, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ParameterError("weights must be a non-empty vector")
        k = w.size
        if b.ndim != 2 or b.shape[0] != k:
            raise ParameterError("base_means must have shape (K, d)")
        if cm.ndim != 3 or cm.shape[0] != k or cm.shape[1] != b.shape[1]:
            raise ParameterError("condition_maps must have shape (K, d, m)")
        if v.shape != (k,):
            raise ParameterError("variances must have shape (K,)")
        if np.any(w <= 0.0) or not np.isclose(w.sum(), 1.0, rtol=0, atol=1e-12):
            raise ParameterError("weights must be positive and sum to 1")
        if np.any(v < 0.0):
            raise ParameterError("variances must be nonnegative")
        for arr in (w, b, cm, v):
            if not np.all(np.isfinite(arr)):
                raise ParameterError("mixture parameters must be finite")
            arr.setflags(write=False)
        for k, var in enumerate(v.tolist()):  # the oracle's normaliser takes log(2*pi*var)
            if math.isinf(2.0 * math.pi * var):
                raise ParameterError(f"component {k}'s variance {var} is too large: "
                                     "2*pi*variance exceeds the float range")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "base_means", b)
        object.__setattr__(self, "condition_maps", cm)
        object.__setattr__(self, "variances", v)

    @property
    def k(self) -> int:
        return self.weights.size

    @property
    def d(self) -> int:
        return self.base_means.shape[1]

    @property
    def m(self) -> int:
        return self.condition_maps.shape[2]

    def component_means(self, c: np.ndarray) -> np.ndarray:
        """Per-component clean-data means under condition ``c`` (m,), checked here: (K, d)."""
        return self.condition_maps @ _condition_matrix(c, None, self.m) + self.base_means


def _check_alpha_bar(alpha_bar: float) -> float:
    a = float(alpha_bar)
    if not 0.0 < a <= 1.0:
        raise ParameterError(f"alpha_bar must lie in (0, 1], got {a}")
    if a == 1.0:
        raise ZeroDivisionError(
            "noise prediction is undefined at alpha_bar = 1 (clean endpoint)")
    return a


def _far_log_resp(x: np.ndarray, mus: np.ndarray, resid: np.ndarray, var: np.ndarray,
                  log_norm: np.ndarray, sqrt_a: float) -> np.ndarray:
    """Log-responsibilities, up to a shared shift, when every squared distance overflows.

    In the softmax's limit all mass goes to the nearest component(s).
    Distances are first compared scaled by max|resid|.  Components of equal
    variance that tie there are told apart by the exact gap of their halved
    squared distances, (r_k - r_j).(r_k + r_j)/2 / var, formed from the
    means so that it does not cancel; tied components of another variance
    keep their weights.  The gaps are formed scaled by a power of two,
    which keeps them exact and finite; a gap that overflows when unscaled
    only leaves its component no mass.
    """
    top = np.abs(resid).max()
    scaled = resid / top
    dist = np.einsum("kd,kd->k", scaled, scaled) / var
    tied = np.flatnonzero(dist == dist.min())
    same = tied[var[tied] == var[tied[0]]]
    scale = math.ldexp(1.0, -math.frexp(top)[1])  # a power of two: scale * top is in [0.5, 1)

    def gap(j: int) -> np.ndarray:
        diff = sqrt_a * (mus[j] - mus[same])              # r_k - r_j
        mid = x - sqrt_a * (mus[same] + mus[j]) / 2.0     # (r_k + r_j) / 2
        return np.einsum("kd,kd->k", diff, scale * mid) / var[j]

    # measured from the nearest of them, every gap is >= 0
    nearest = same[np.argmin(gap(same[0]))]
    log_resp = np.full_like(log_norm, -np.inf)
    log_resp[tied] = log_norm[tied]
    log_resp[same] -= gap(nearest) / scale
    return log_resp


def gmm_log_density(params: GMMDenoiserParams, x: np.ndarray,
                    c: np.ndarray) -> float | np.ndarray:
    """Log density of the clean-data mixture at ``x`` under condition ``c``.

    ``x`` is one latent (d,), which gives a float, or rows (n, d), which give
    an (n,) array.  The component means and log-normalisers are computed
    once; each row's log-sum-exp subtracts that row's own peak, so a row gets
    the bits it gets alone.
    """
    if np.any(params.variances == 0.0):
        raise ParameterError("log density requires strictly positive component variances")
    x = np.asarray(x, dtype=np.float64)
    log_norm = np.log(params.weights) - 0.5 * params.d * np.log(2.0 * np.pi * params.variances)
    resid = x[..., None, :] - params.component_means(c)                # (..., K, d)
    logs = log_norm - 0.5 * np.einsum("...kd,...kd->...k", resid, resid) / params.variances
    peak = np.max(logs, axis=-1, keepdims=True)
    dens = peak[..., 0] + np.log(np.exp(logs - peak).sum(axis=-1))
    return float(dens) if x.ndim == 1 else dens


#: the most levels one oracle keeps constants for; a full table is cleared
_LEVELS = 1024


class GMMDenoiser(Denoiser):
    """In-process analytic denoiser backed by :class:`GMMDenoiserParams`."""

    def __init__(self, params: GMMDenoiserParams):
        self.params = params
        self.d = params.d
        self.m = params.m
        self._maps = params.condition_maps[None]  # (1, K, d, m): broadcasts over rows
        self._log_weights = np.log(params.weights)
        self._levels = {}  # alpha_bar -> its constants, for every checked level seen

    def predict_noise(self, x: np.ndarray, c: np.ndarray,
                      alpha_bar: float, t: int) -> np.ndarray:
        """The one-row case of ``predict_noise_batch``, for one condition ``c`` (m,)."""
        level = self._level(alpha_bar)
        x = np.asarray(x, dtype=np.float64)
        c = _condition_matrix(c, None, self.m)
        return self._noise(x[None], c[None], alpha_bar, level)[0]

    def predict_noise_batch(self, X: np.ndarray, C: np.ndarray,
                            alpha_bar: float, t: int) -> np.ndarray:
        """The oracle's closed form for every row, in one vectorised pass.

        eps = (x - sqrt(a) * E[x_0 | x, c]) / sqrt(1 - a).  The marginal of
        x_t is a mixture of N(sqrt(a)*mu_k, (a*s2_k + 1 - a) I); each
        component contributes its joint-Gaussian regression mean
        mu_k + sqrt(a)*s2_k / (a*s2_k + 1 - a) * (x - sqrt(a)*mu_k), weighted
        by its responsibility, a softmax over the component log densities
        taken after subtracting the row's peak.  Every marginal variance is
        at least ``1 - a > 0``, and no row's arithmetic reads another row.

        The pass runs inside one ``errstate`` that raises on overflow and on
        invalid operations.  An overflow anywhere, or a row whose every
        component's log density is -inf (its softmax takes -inf - -inf),
        re-runs the pass on the same checked rows in its far-limit form:
        there a log density may overflow to -inf, each row whose log
        densities are all -inf takes its log-responsibilities from
        ``_far_log_resp``, and any other overflow is a ParameterError, the
        noise exceeding the float range.  ``einsum`` does not raise on
        overflow; a squared distance it overflows is a -inf log density in
        either form.
        """
        level = self._level(alpha_bar)
        X = np.asarray(X, dtype=np.float64)
        return self._noise(X, _condition_matrix(C, len(X), self.m), alpha_bar, level)

    def _level(self, alpha_bar: float) -> tuple:
        """The constants of level ``alpha_bar``, from this oracle's level table.

        What depends on the level alone (``2 * var``, ``log_norm``,
        ``shrink`` shaped (K, 1), sqrt(a) and sqrt(1 - a)) is built, after
        ``_check_alpha_bar``, the first time this oracle sees a level, and
        kept in a table keyed by ``alpha_bar``.  A bad level never enters
        it; a null-text op's tuning and regeneration, every later walk on
        the same grid and each frame a long-lived ``diffpath serve`` answers
        only read it.  It holds at most ``_LEVELS`` levels (one more per
        racing thread) and is cleared when full.  The condition maps'
        broadcast view and log(weights) are taken once per oracle.
        """
        a = float(alpha_bar)
        level = self._levels.get(a)
        if level is None:
            _check_alpha_bar(a)
            p = self.params
            var = a * p.variances + (1.0 - a)
            level = (2.0 * var, self._log_weights - 0.5 * p.d * np.log(2.0 * np.pi * var),
                     (math.sqrt(a) * p.variances / var)[:, None], math.sqrt(a),
                     math.sqrt(1.0 - a))
            if len(self._levels) >= _LEVELS:
                self._levels.clear()
            self._levels[a] = level
        return level

    def _noise(self, X: np.ndarray, C: np.ndarray, alpha_bar: float, level: tuple) -> np.ndarray:
        """The pass over checked rows, in its far-limit form if the plain one raises."""
        try:  # raising on overflow costs less than checking the result
            with np.errstate(over="raise", invalid="raise"):
                return self._pass(X, C, level)
        except FloatingPointError:
            try:
                with np.errstate(over="raise"):
                    return self._pass(X, C, level, far=True)
            except FloatingPointError:
                raise ParameterError("noise prediction exceeds the float range at "
                                     f"alpha_bar = {float(alpha_bar)}") from None

    def _pass(self, X: np.ndarray, C: np.ndarray, level: tuple, far: bool = False) -> np.ndarray:
        """The closed form over checked rows; ``far`` is its far-limit form."""
        twice_var, log_norm, shrink, sqrt_a, sqrt_1ma = level
        mus = np.matmul(self._maps, C[:, None, :, None])[..., 0]   # (N, K, d)
        mus += self.params.base_means
        resid = X[:, None, :] - sqrt_a * mus
        log_resp = np.einsum("nkd,nkd->nk", resid, resid)
        if far:
            with np.errstate(over="ignore"):  # a log density may be -inf
                log_resp /= twice_var
                np.subtract(log_norm, log_resp, out=log_resp)
                for i in np.flatnonzero(np.maximum.reduce(log_resp, axis=1) == -np.inf):
                    log_resp[i] = _far_log_resp(X[i], mus[i], resid[i], 0.5 * twice_var,
                                                log_norm, sqrt_a)
        else:
            log_resp /= twice_var
            np.subtract(log_norm, log_resp, out=log_resp)
        log_resp -= np.maximum.reduce(log_resp, axis=1, keepdims=True)
        resp = np.exp(log_resp, out=log_resp)
        resp /= np.add.reduce(resp, axis=1, keepdims=True)
        resid *= shrink
        resid += mus                                             # the regression means
        eps = np.matmul(resp[:, None, :], resid)[:, 0]           # E[x0 | x], (N, d)
        eps *= sqrt_a
        np.subtract(X, eps, out=eps)
        eps /= sqrt_1ma
        return eps

    def sample_clean(self, c: np.ndarray, n: int,
                     gen: np.random.Generator) -> np.ndarray:
        """Draw ``n`` clean latents from the mixture under condition ``c``."""
        mus = self.params.component_means(c)
        ks = gen.choice(self.params.k, size=n, p=self.params.weights)
        noise = standard_normals(gen, (n, self.d))
        return mus[ks] + np.sqrt(self.params.variances[ks])[:, None] * noise
