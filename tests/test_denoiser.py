import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diffpath import denoiser
import references
from diffpath.denoiser import Denoiser, GMMDenoiser, GMMDenoiserParams, gmm_log_density
from diffpath.errors import ParameterError
from conftest import PerRowDenoiser
from mc_oracle import mc_predict_noise
from references import gmm_posterior_mean, gmm_responsibilities


def _k1(base_mean, cond_map, variance):
    return GMMDenoiserParams(
        weights=np.array([1.0]),
        base_means=np.array([base_mean], dtype=float),
        condition_maps=np.array([cond_map], dtype=float),
        variances=np.array([variance], dtype=float))


ZERO_MAP = ((0.0, 0.0), (0.0, 0.0))
C = np.array([0.4, -1.1])


class TestPosteriorMean:
    def test_point_mass_forces_mean(self):
        mu = np.array([0.7, -0.4])
        params = _k1(mu, ZERO_MAP, 0.0)
        for a in (0.2, 0.9):
            x = np.array([3.0, -5.0])
            assert np.allclose(gmm_posterior_mean(params, x, C, a), mu, atol=1e-14)

    def test_unit_gaussian_shrinks_by_sqrt_alpha(self):
        # joint-Gaussian regression: E[x0|x] = sqrt(a) * x for N(0, I) data
        params = _k1((0.0, 0.0), ZERO_MAP, 1.0)
        x = np.array([1.3, -0.2])
        for a in (0.1, 0.5, 0.97):
            got = gmm_posterior_mean(params, x, C, a)
            assert np.allclose(got, np.sqrt(a) * x, rtol=1e-14)

    def test_symmetric_mixture_cancels_at_origin(self):
        mu = np.array([1.1, -0.6])
        params = GMMDenoiserParams(
            weights=np.array([0.5, 0.5]),
            base_means=np.array([mu, -mu]),
            condition_maps=np.zeros((2, 2, 2)),
            variances=np.array([0.5, 0.5]))
        got = gmm_posterior_mean(params, np.zeros(2), C, 0.7)
        assert np.allclose(got, 0.0, atol=1e-14)

    def test_mean_beyond_the_float_range_is_a_parameter_error(self):
        # E[x0 | x] is about 1.41 * x here; no inf and no RuntimeWarning
        params, c = _k1([0.0], [[0.0]], 441766.0), np.zeros(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="noise prediction exceeds the float range"):
                GMMDenoiser(params).predict_noise(np.array([1.28e308]), c, 0.5, 1)


class TestPredictNoise:
    def test_unit_gaussian_closed_form(self):
        # substitute the posterior mean: eps = (x - a*x)/sqrt(1-a) = sqrt(1-a)*x
        params = _k1((0.0, 0.0), ZERO_MAP, 1.0)
        x = np.array([0.9, 2.2])
        for a in (0.15, 0.6, 0.99):
            assert np.allclose(GMMDenoiser(params).predict_noise(x, C, a, 1),
                               np.sqrt(1.0 - a) * x, rtol=1e-13)

    def test_point_mass_noise(self):
        mu = np.array([0.7, -0.4])
        params = _k1(mu, ZERO_MAP, 0.0)
        x = np.array([2.0, 1.0])
        a = 0.64
        expect = (x - np.sqrt(a) * mu) / np.sqrt(1.0 - a)
        assert np.allclose(GMMDenoiser(params).predict_noise(x, C, a, 1), expect, rtol=1e-14)

    def test_clean_endpoint_is_undefined(self):
        params = _k1((0.0, 0.0), ZERO_MAP, 1.0)
        with pytest.raises(ZeroDivisionError):
            GMMDenoiser(params).predict_noise(np.zeros(2), C, 1.0, 0)

    def test_affine_in_latent_for_single_component(self, affine_denoiser):
        den = GMMDenoiser(affine_denoiser.params)
        a, t = 0.42, 580
        x1 = np.array([0.3, -0.9])
        x2 = np.array([-1.2, 0.4])
        lhs = den.predict_noise(x1 + x2, C, a, t) + den.predict_noise(np.zeros(2), C, a, t)
        rhs = den.predict_noise(x1, C, a, t) + den.predict_noise(x2, C, a, t)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_matches_monte_carlo_reference(self, demo):
        params = demo["params"]
        den = GMMDenoiser(params)
        gen = np.random.default_rng(2057)
        for _ in range(3):
            a = gen.uniform(0.1, 0.75)
            mus = params.component_means(demo["c_a"])
            k = gen.choice(params.k, p=params.weights)
            x0 = mus[k] + np.sqrt(params.variances[k]) * gen.normal(size=2)
            x = np.sqrt(a) * x0 + np.sqrt(1 - a) * gen.normal(size=2)
            exact = den.predict_noise(x, demo["c_a"], a, 1)
            approx = mc_predict_noise(params, x, demo["c_a"], a, 100_000, gen)
            assert np.linalg.norm(exact - approx) / max(np.linalg.norm(exact), 1.0) < 0.03


@st.composite
def random_mixtures(draw):
    k = draw(st.integers(1, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = gen.uniform(0.2, 1.0, size=k)
    return GMMDenoiserParams(
        weights=raw / raw.sum(),
        base_means=gen.normal(size=(k, 2)),
        condition_maps=gen.normal(size=(k, 2, 2)),
        variances=gen.uniform(0.05, 2.0, size=k))


def _outcome(call):
    """What ``call()`` gives: its array's bytes, or its ParameterError's type and words."""
    try:
        return call().tobytes()
    except ParameterError as err:
        return type(err), str(err)


def _assert_package_is_reference(params, x, c, a):
    """The package's noise for row ``x``, alone and in a batch after a row at the
    origin, is the per-row reference's bits, or its ParameterError in its words."""
    den, near = GMMDenoiser(params), np.zeros_like(x)
    near_eps, want = (_outcome(lambda: references.predict_noise(params, row, c, a))
                      for row in (near, x))
    assert _outcome(lambda: den.predict_noise(x, c, a, 1)) == want
    assert _outcome(lambda: den.predict_noise_batch(np.array([near, x]), np.array([c, c]), a, 1)) \
        == (want if isinstance(want, tuple) else near_eps + want)


class TestResponsibilities:
    @given(params=random_mixtures(),
           a=st.floats(1e-6, 1.0, exclude_max=False),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_sum_to_one_everywhere(self, params, a, seed):
        gen = np.random.default_rng(seed)
        x = gen.normal(size=2) * gen.uniform(0.1, 50.0)
        resp = gmm_responsibilities(params, x, C, a)
        assert np.all(np.isfinite(resp))
        assert abs(resp.sum() - 1.0) < 1e-12

    def test_far_tail_is_stable(self, demo):
        resp = gmm_responsibilities(demo["params"], np.array([1e6, -1e6]), C, 0.5)
        assert abs(resp.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("a", [1e-5, 0.5, 0.999])
    @pytest.mark.parametrize("scale", [1e154, 1e200, 1e308, 1.7e308])
    def test_overflowing_distances_stay_finite(self, demo, scale, a):
        for x in ([scale, scale], [scale, -scale], [-scale, 0.0]):
            x = np.array(x)
            resp = gmm_responsibilities(demo["params"], x, demo["c_a"], a)
            assert np.all(np.isfinite(resp)) and resp.sum() == pytest.approx(1.0)
            assert np.all(np.isfinite(demo["denoiser"].predict_noise(x, demo["c_a"], a, 1)))

    def test_overflow_limit_is_the_nearest_component(self):
        def mixture(variances):
            return GMMDenoiserParams(weights=np.array([0.3, 0.7]),
                                     base_means=np.zeros((2, 2)),
                                     condition_maps=np.zeros((2, 2, 2)),
                                     variances=np.array(variances))

        # far out, the wider marginal is the nearer one: it takes all the mass
        x = np.array([1e200, -1e200])
        assert gmm_responsibilities(mixture([2.0, 0.5]), x, C, 0.5).tolist() == [1.0, 0.0]
        # equal distances: the quadratic terms cancel, leaving the weights
        assert np.allclose(gmm_responsibilities(mixture([0.5, 0.5]), x, C, 0.5),
                           [0.3, 0.7], rtol=1e-15)
        for variances in ([2.0, 0.5], [0.5, 0.5]):
            _assert_package_is_reference(mixture(variances), x, C, 0.5)

    def test_overflow_ties_go_to_the_nearer_mean(self):
        """Far-limit ties are split by the exact gap of the halved squared distances.

        At |x| = 1e200 a mean of order 1 is below one ulp of the noise, so the
        package's noise bits do not depend on which component wins: this test
        pins the shared ``_far_log_resp`` only through the reference's
        responsibilities, not through the package's noise.
        """
        # the residuals agree to float precision, yet component 1 is nearer
        # by a log-responsibility gap of about 2.8e200
        params = GMMDenoiserParams(weights=np.array([0.3, 0.7]),
                                   base_means=np.array([[-1.0, 0.0], [1.0, 0.0]]),
                                   condition_maps=np.zeros((2, 2, 2)),
                                   variances=np.array([0.5, 0.5]))
        x = np.array([1e200, 0.0])
        assert gmm_responsibilities(params, x, C, 0.5).tolist() == [0.0, 1.0]
        assert gmm_responsibilities(params, -x, C, 0.5).tolist() == [1.0, 0.0]
        for row in (x, -x):
            _assert_package_is_reference(params, row, C, 0.5)

    def test_overflowing_gaps_keep_the_nearest_component(self):
        """A gap that overflows when unscaled leaves its component no mass.

        At |x| of 1e308 and more the means are below one ulp of the noise, so
        this test, like the tie test, pins the shared ``_far_log_resp`` only
        through the reference's responsibilities.
        """
        # at x = -1e308 two of the gaps from component 0 overflow to -inf
        params = GMMDenoiserParams(weights=np.full(4, 0.25),
                                   base_means=np.array([[2.45], [1.12], [-1.63], [1.34]]),
                                   condition_maps=np.zeros((4, 1, 1)),
                                   variances=np.zeros(4))
        c = np.zeros(1)
        for x in (-1e308, -1.7e308):
            assert gmm_responsibilities(params, np.array([x]), c, 0.5).tolist() \
                == [0.0, 0.0, 1.0, 0.0]
        assert gmm_responsibilities(params, np.array([1.7e308]), c, 0.5).tolist() \
            == [1.0, 0.0, 0.0, 0.0]
        for x in (-1e308, -1.7e308, 1.7e308):
            _assert_package_is_reference(params, np.array([x]), c, 0.5)

    def test_far_limit_winner_sets_the_noise_bits(self):
        """Far out, the nearest component takes all the mass, and which one wins shows.

        At |x| of about 2e154 every squared distance overflows, yet the means,
        +/-1e150, are far more than one ulp of the noise apart: each
        component alone gives other noise bits, so a far limit that left the
        mass with the weights would too.  One row and a batch are the
        reference's bits, and each side's noise is its winner's alone.
        """
        means = np.array([[1e150, 0.0], [-1e150, 0.0]])
        params = GMMDenoiserParams(weights=np.array([0.3, 0.7]), base_means=means,
                                   condition_maps=np.zeros((2, 2, 2)),
                                   variances=np.array([0.5, 0.5]))
        x = np.array([2e154, 3e153])
        for row, winner in ((x, 0), (-x, 1)):
            assert gmm_responsibilities(params, row, C, 0.5)[winner] == 1.0
            alone = [GMMDenoiser(_k1(mu, ZERO_MAP, 0.5)).predict_noise(row, C, 0.5, 1)
                     for mu in means]
            assert alone[0].tobytes() != alone[1].tobytes()
            assert GMMDenoiser(params).predict_noise(row, C, 0.5, 1).tobytes() \
                == alone[winner].tobytes()
            _assert_package_is_reference(params, row, C, 0.5)

    def test_tiny_marginal_variance_warns_nothing(self):
        # the zero-variance component's squared distance over a variance of
        # about 1e-12 exceeds the float range; it simply gets no mass
        params = GMMDenoiserParams(weights=np.array([0.5, 0.5]),
                                   base_means=np.zeros((2, 2)),
                                   condition_maps=np.zeros((2, 2, 2)),
                                   variances=np.array([0.0, 1.0]))
        x, a = np.array([1e150, 1e150]), 1.0 - 1e-12
        assert gmm_responsibilities(params, x, C, a).tolist() == [0.0, 1.0]
        _assert_package_is_reference(params, x, C, a)
        eps = GMMDenoiser(params).predict_noise(x, C, a, 1)
        batch = GMMDenoiser(params).predict_noise_batch(np.array([x, x / 2]),
                                                        np.array([C] * 2), a, 1)
        assert np.all(np.isfinite(eps)) and np.array_equal(batch[0], eps)
        assert np.all(np.isfinite(batch))


@st.composite
def batch_cases(draw):
    """A mixture, a level and N >= 1 rows, some far out or zero-variance."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # numpy's pairwise summation changes its grouping at 8 terms
    k, d, m = draw(st.integers(1, 12)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    raw = gen.uniform(0.2, 1.0, size=k)
    variances = gen.uniform(0.05, 2.0, size=k)
    if draw(st.booleans()):
        variances[gen.integers(k)] = 0.0
    params = GMMDenoiserParams(weights=raw / raw.sum(),
                               base_means=gen.normal(size=(k, d)) * 3.0,
                               condition_maps=gen.normal(size=(k, d, m)),
                               variances=variances)
    X = gen.normal(size=(n, d)) * 10.0 ** gen.uniform(-3.0, 3.0, size=(n, 1))
    far = draw(st.lists(st.integers(0, n - 1), max_size=2))
    X[far] = gen.choice([-1.0, 1.0], size=(len(far), d)) * 10.0 ** gen.uniform(
        154.0, 308.0, size=(len(far), 1))
    C = gen.normal(size=(n, m))
    a = draw(st.one_of(st.floats(1e-6, 1.0, exclude_max=True),
                       st.sampled_from([0.5, 1.0 - 1e-12])))
    return params, X, C, a


def _zero_log_normaliser(weights, variance, d, a):
    """``variance`` with its first entry moved by the fewest ulps that make component
    0's log normaliser exactly 0 at level ``a``, as the oracle forms it; else None."""
    lo = hi = variance[0]
    for _ in range(300):
        for v0 in (lo, hi):
            var = a * np.concatenate([[v0], variance[1:]]) + (1.0 - a)
            if (np.log(weights) - 0.5 * d * np.log(2.0 * np.pi * var))[0] == 0.0:
                return np.concatenate([[v0], variance[1:]])
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
    return None


@st.composite
def tiny_distance_cases(draw):
    """Rows at a zero, subnormal or overflowing squared distance from some component.

    Component 0 has a log normaliser of exactly 0 at the level, so nothing
    absorbs its subnormal distances; it and component 1 have means near
    1e-155, close enough to 0 that a row within 1e-160 of sqrt(a) * mean
    is not rounded onto it, and component 2 sits near 1e170.
    """
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, d, m = draw(st.integers(3, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    n = draw(st.integers(1, 12))
    raw = gen.uniform(0.2, 1.0, size=k)
    weights = raw / raw.sum()
    # the variance of component 0 that makes 2*pi*var_0 = w_0^(2/d), and a level it can reach
    target = math.exp(2.0 * math.log(weights[0]) / d) / (2.0 * math.pi)
    a = 1.0 - gen.uniform(0.05, 0.95) * target
    variances = gen.uniform(0.0, 2.0, size=k)
    variances[0] = (target - (1.0 - a)) / a
    variances = _zero_log_normaliser(weights, variances, d, a)
    assume(variances is not None)
    base_means = gen.normal(size=(k, d)) * 3.0
    base_means[:2] *= 1e-155
    base_means[2] *= 1e170
    maps = gen.normal(size=(k, d, m))
    maps[:3] = 0.0
    params = GMMDenoiserParams(weights=weights, base_means=base_means, condition_maps=maps,
                               variances=variances)
    C = gen.normal(size=(n, m))
    X = gen.normal(size=(n, d))
    for i, kind in enumerate(draw(st.lists(st.sampled_from(["zero", "subnormal", "plain"]),
                                           min_size=n, max_size=n))):
        if kind == "zero":
            X[i] = math.sqrt(a) * params.component_means(C[i])[draw(st.integers(0, k - 1))]
        elif kind == "subnormal":
            X[i] = math.sqrt(a) * params.base_means[draw(st.integers(0, 1))] \
                + gen.uniform(-1e-160, 1e-160, size=d)
    # every row overflows component 2's distance; one far out overflows every
    # component's, which sends the call through the per-row oracle
    if draw(st.integers(0, 3)) == 0:
        X[draw(st.integers(0, n - 1))] = gen.choice([-1.0, 1.0], size=d) * 10.0 ** gen.uniform(
            154.0, 308.0)
    return params, X, C, a


def _assert_batch_is_per_row(params, X, C, a):
    # each row alone and the whole batch give the per-row reference's bits;
    # a noise beyond the float range fails them the same way, in the same words
    den = GMMDenoiser(params)
    rows = [_outcome(lambda: references.predict_noise(params, x, c, a)) for x, c in zip(X, C)]
    assert [_outcome(lambda: den.predict_noise(x, c, a, 7)) for x, c in zip(X, C)] == rows
    errors = [row for row in rows if isinstance(row, tuple)]
    assert _outcome(lambda: den.predict_noise_batch(X, C, a, 7)) \
        == (errors[0] if errors else b"".join(rows))


class TestPredictNoiseBatch:
    @given(case=batch_cases())
    @settings(max_examples=150, deadline=None)
    def test_rows_are_bitwise_the_per_row_oracle(self, case):
        _assert_batch_is_per_row(*case)

    @given(case=tiny_distance_cases())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_tiny_and_overflowing_distances_are_the_per_row_bits(self, case):
        # the pass divides a squared distance by 2 * var where the per-row
        # oracle halves it first: the two differ only for a subnormal distance
        _assert_batch_is_per_row(*case)

    def test_noise_beyond_the_float_range_is_a_parameter_error(self):
        # eps = x / sqrt(1 - a) is about 2.1e308 for a point mass at the origin
        params, x, a = _k1([0.0], [[0.0]], 0.0), np.array([3.7e307]), 0.96875
        c = np.zeros(1)
        with pytest.raises(ParameterError, match="float range"):
            GMMDenoiser(params).predict_noise(x, c, a, 1)
        with pytest.raises(ParameterError, match="float range"):
            GMMDenoiser(params).predict_noise_batch(np.array([[1.0], x]),
                                                    np.array([c] * 2), a, 1)

    def test_posterior_mean_beyond_the_float_range_is_a_parameter_error(self):
        # E[x0 | x] is about 1.41 * x here, beyond the float range
        params, x, a = _k1([0.0], [[0.0]], 441766.0), np.array([1.28e308]), 0.5
        c = np.zeros(1)
        with pytest.raises(ParameterError, match="float range"):
            GMMDenoiser(params).predict_noise(x, c, a, 1)
        with pytest.raises(ParameterError, match="float range"):
            GMMDenoiser(params).predict_noise_batch(np.array([[1.0], x]),
                                                    np.array([c] * 2), a, 1)

    def test_interleaved_levels_are_a_fresh_oracles_bits(self, demo):
        # the constants of every level seen are kept; a call at one level
        # must not see another's, and a bad level still fails
        den = GMMDenoiser(demo["params"])
        X = np.array([[0.3, -0.2], [1.5, 0.25], [-2.0, 4.0]])
        C = np.array([demo[name] for name in ("c_a", "c_b", "null")])
        for a, t in ((0.3, 700), (0.8, 200), (0.3, 700), (0.3, 700), (0.8, 200)):
            fresh = GMMDenoiser(demo["params"]).predict_noise_batch(X, C, a, t)
            assert den.predict_noise_batch(X, C, a, t).tobytes() == fresh.tobytes()
        with pytest.raises(ZeroDivisionError):
            den.predict_noise_batch(X, C, 1.0, 0)
        for a in (0.0, float("nan"), 1.5):
            with pytest.raises(ParameterError):
                den.predict_noise_batch(X, C, a, 0)

    def test_level_memo_is_bounded(self, demo):
        # a long-lived server answers any level a peer sends: over 10,000
        # distinct levels the oracle keeps its attributes, and its level
        # table holds the level just called and never more than 1,024 levels
        den = GMMDenoiser(demo["params"])
        X, C = np.array([[0.3, -0.2]]), demo["c_a"][None]
        attributes = set(vars(den))
        sizes = set()
        for a in np.linspace(1e-4, 1.0 - 1e-4, 10_000).tolist():
            den.predict_noise_batch(X, C, a, 1)
            assert a in den._levels and set(vars(den)) == attributes
            sizes.add(len(den._levels))
        assert max(sizes) == 1024 and min(sizes) == 1

    def test_bad_levels_are_never_kept(self, demo):
        # a bad level fails on every call, after good levels too, and never
        # enters the level table
        den = GMMDenoiser(demo["params"])
        X, C = np.array([[0.3, -0.2]]), demo["c_a"][None]
        for a in (0.3, 0.8):
            den.predict_noise_batch(X, C, a, 1)
        for a, error in ((0.0, ParameterError), (float("nan"), ParameterError),
                         (1.5, ParameterError), (1.0, ZeroDivisionError)):
            for _ in range(2):
                with pytest.raises(error):
                    den.predict_noise_batch(X, C, a, 1)
        assert sorted(den._levels) == [0.3, 0.8]
        assert den.predict_noise_batch(X, C, 0.3, 1).tobytes() \
            == GMMDenoiser(demo["params"]).predict_noise_batch(X, C, 0.3, 1).tobytes()

    def test_fallback_checks_conditions_once(self, demo, monkeypatch):
        # a call that overflows re-runs the pass in its far-limit form on the
        # rows its own check passed: C is checked once, and the far limit and
        # the float-range error are the per-row reference's
        checks = []
        check = denoiser._condition_matrix
        monkeypatch.setattr(denoiser, "_condition_matrix",
                            lambda C, n, m: checks.append(n) or check(C, n, m))
        den = GMMDenoiser(demo["params"])
        X = np.array([[0.3, -0.2], [1e200, -3e300], [-1e300, 1e300]])
        C = np.array([demo[name] for name in ("c_a", "c_b", "null")])
        batch = den.predict_noise_batch(X, C, 0.5, 500)
        assert checks == [3]
        rows = [references.predict_noise(demo["params"], x, c, 0.5) for x, c in zip(X, C)]
        assert batch.tobytes() == np.array(rows).tobytes()
        params, x, c = _k1([0.0], [[0.0]], 0.0), np.array([3.7e307]), np.zeros(1)
        checks.clear()
        with pytest.raises(ParameterError) as err:
            GMMDenoiser(params).predict_noise_batch(np.array([[1.0], x]), np.array([c] * 2),
                                                    0.96875, 1)
        assert checks == [2]
        assert str(err.value) == "noise prediction exceeds the float range at alpha_bar = 0.96875"

    def test_threads_at_different_levels_get_their_own_bits(self, demo):
        # the oracle is concurrent_safe: a level's constants are read and
        # stored under that level alone, so no call, one-row or batched,
        # sees another level's
        den = GMMDenoiser(demo["params"])
        X = np.array([[0.3, -0.2], [1.5, 0.25]])
        C = np.array([demo["c_a"], demo["c_b"]])
        want = {}
        for a in (0.2, 0.4, 0.6, 0.8):
            fresh = GMMDenoiser(demo["params"])
            want[a] = [fresh.predict_noise(x, c, a, 1).tobytes() for x, c in zip(X, C)] \
                + [fresh.predict_noise_batch(X, C, a, 1).tobytes()]
        wrong = []

        def calls(a):
            for i in range(3000):
                row = i % 3  # rows 0 and 1 alone, then both in one batch
                got = den.predict_noise_batch(X, C, a, 1) if row == 2 \
                    else den.predict_noise(X[row], C[row], a, 1)
                if got.tobytes() != want[a][row]:
                    wrong.append(a)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=calls, args=(a,)) for a in want]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_default_loops_over_predict_noise(self, demo):
        class PerRow(Denoiser):
            d, m = 2, 2

            def __init__(self):
                self.seen = []

            def predict_noise(self, x, c, alpha_bar, t):
                self.seen.append((tuple(x), tuple(c)))
                return demo["denoiser"].predict_noise(x, c, alpha_bar, t)

        X = np.array([[0.3, -0.2], [1.5, 0.25], [-2.0, 4.0]])
        C = np.array([demo[name] for name in ("c_a", "c_b", "null")])
        den = PerRow()
        batch = den.predict_noise_batch(X, C, 0.4, 600)
        assert den.seen == [(tuple(x), tuple(c)) for x, c in zip(X, C)]
        assert np.array_equal(batch, demo["denoiser"].predict_noise_batch(X, C, 0.4, 600))

    def test_default_rows_are_read_only_views_of_a_writable_c(self, demo):
        class Rows(Denoiser):
            d, m = 2, 2
            rows = []

            def predict_noise(self, x, c, alpha_bar, t):
                self.rows.append(c)
                return np.zeros(2)

        C = np.array([demo["c_a"], demo["c_b"]])
        Rows().predict_noise_batch(np.zeros((2, 2)), C, 0.4, 600)
        assert [(r.tobytes(), r.flags.writeable, np.shares_memory(r, C)) for r in Rows.rows] \
            == [(c.tobytes(), False, True) for c in C]
        assert C.flags.writeable

    @pytest.mark.parametrize("per_row", [False, True])
    def test_conditions_are_one_checked_matrix(self, demo, per_row):
        # the oracle's pass and the interface's per-row loop check C once,
        # before any prediction, and name it
        den = GMMDenoiser(demo["params"])
        den = PerRowDenoiser(den) if per_row else den
        X = np.array([[0.3, -0.2], [1.5, 0.25]])
        C = np.array([demo["c_a"], demo["c_b"]])
        for bad in (C[:, :1], C[:1], np.hstack([C, C]), C[0]):
            with pytest.raises(ParameterError, match=r"conditions C must have shape \(2, 2\)"):
                den.predict_noise_batch(X, bad, 0.5, 1)
        for bad in ([demo["c_a"], demo["c_b"][:1]], [demo["c_a"], ["0.5", "x"]]):
            with pytest.raises(ParameterError, match=r"must be an \(N, m\) array of numbers"):
                den.predict_noise_batch(X, bad, 0.5, 1)
        # one condition (m,), as predict_noise takes it
        for bad in (C[0, :1], C[:1]):
            with pytest.raises(ParameterError, match=r"conditions C must have shape \(2,\), got"):
                den.predict_noise(X[0], bad, 0.5, 1)
        C[1, 0] = np.nan
        with pytest.raises(ParameterError, match="finite: conditions C hold NaN or inf"):
            den.predict_noise_batch(X, C, 0.5, 1)


@st.composite
def oracle_cases(draw):
    """A mixture with variances >= 0, a latent anywhere in the float range, a in (0, 1)."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, d, m = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    raw = gen.uniform(0.2, 1.0, size=k)
    variances = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
                              min_size=k, max_size=k))
    params = GMMDenoiserParams(weights=raw / raw.sum(),
                               base_means=gen.normal(size=(k, d)) * 3.0,
                               condition_maps=gen.normal(size=(k, d, m)),
                               variances=np.array(variances))
    x = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=d, max_size=d)))
    a = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return params, x, gen.normal(size=m), a


class TestOracleProperty:
    @given(case=oracle_cases())
    @settings(max_examples=300, deadline=None)
    def test_finite_noise_or_a_named_error(self, case):
        params, x, c, a = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resp = gmm_responsibilities(params, x, c, a)
            assert np.all(np.isfinite(resp)) and abs(resp.sum() - 1.0) < 1e-12
            want = _outcome(lambda: references.predict_noise(params, x, c, a))
            if not isinstance(want, tuple):
                assert np.all(np.isfinite(np.frombuffer(want)))
            den = GMMDenoiser(params)
            assert _outcome(lambda: den.predict_noise(x, c, a, 1)) == want
            assert _outcome(lambda: den.predict_noise_batch(x[None], c[None], a, 1)) == want


class TestLogDensity:
    def test_matches_direct_evaluation(self, demo):
        params = demo["params"]
        x = np.array([0.2, -0.4])
        mus = params.component_means(demo["c_b"])
        dens = sum(w * np.exp(-((x - mu) ** 2).sum() / (2 * v)) / (2 * np.pi * v)
                   for w, mu, v in zip(params.weights, mus, params.variances))
        assert gmm_log_density(params, x, demo["c_b"]) == pytest.approx(np.log(dens), rel=1e-12)

    def test_rejects_degenerate_components(self):
        params = _k1((0.0, 0.0), ZERO_MAP, 0.0)
        with pytest.raises(ParameterError):
            gmm_log_density(params, np.zeros(2), C)


class TestParamsValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            GMMDenoiserParams(weights=np.array([0.5, 0.4]),
                              base_means=np.zeros((2, 2)),
                              condition_maps=np.zeros((2, 2, 2)),
                              variances=np.ones(2))

    def test_variance_whose_normaliser_overflows_is_rejected(self):
        # log(2*pi*variance) is finite for 2.8e307 and not for 2.9e307
        assert np.isfinite(gmm_log_density(_k1((0.0, 0.0), ZERO_MAP, 2.8e307), np.zeros(2), C))
        with pytest.raises(ParameterError, match="component 0's variance 2.9e\\+307 is too large"):
            _k1((0.0, 0.0), ZERO_MAP, 2.9e307)

    def test_sample_clean_respects_condition(self, demo):
        gen = np.random.Generator(np.random.Philox(key=5))
        xs = demo["denoiser"].sample_clean(demo["c_a"], 4000, gen)
        mus = demo["params"].component_means(demo["c_a"])
        expect = demo["params"].weights @ mus
        assert np.allclose(xs.mean(axis=0), expect, atol=0.08)
