import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffpath.denoiser import (ConditionEmbedding, Denoiser, GMMDenoiser,
                               GMMDenoiserParams, embed_condition, gmm_log_density,
                               gmm_posterior_mean, gmm_responsibilities,
                               predict_noise)
from diffpath.errors import ParameterError
from mc_oracle import mc_predict_noise


def _k1(base_mean, cond_map, variance):
    return GMMDenoiserParams(
        weights=np.array([1.0]),
        base_means=np.array([base_mean], dtype=float),
        condition_maps=np.array([cond_map], dtype=float),
        variances=np.array([variance], dtype=float))


ZERO_MAP = ((0.0, 0.0), (0.0, 0.0))
C = ConditionEmbedding(np.array([0.4, -1.1]))


class TestPosteriorMean:
    def test_point_mass_forces_mean(self):
        mu = np.array([0.7, -0.4])
        params = _k1(mu, ZERO_MAP, 0.0)
        for a in (0.2, 0.9, 1.0):
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

    def test_alpha_bar_validation(self):
        params = _k1((0.0, 0.0), ZERO_MAP, 1.0)
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ParameterError):
                gmm_posterior_mean(params, np.zeros(2), C, bad)


class TestPredictNoise:
    def test_unit_gaussian_closed_form(self):
        # substitute the posterior mean: eps = (x - a*x)/sqrt(1-a) = sqrt(1-a)*x
        params = _k1((0.0, 0.0), ZERO_MAP, 1.0)
        x = np.array([0.9, 2.2])
        for a in (0.15, 0.6, 0.99):
            assert np.allclose(predict_noise(params, x, C, a),
                               np.sqrt(1.0 - a) * x, rtol=1e-13)

    def test_point_mass_noise(self):
        mu = np.array([0.7, -0.4])
        params = _k1(mu, ZERO_MAP, 0.0)
        x = np.array([2.0, 1.0])
        a = 0.64
        expect = (x - np.sqrt(a) * mu) / np.sqrt(1.0 - a)
        assert np.allclose(predict_noise(params, x, C, a), expect, rtol=1e-14)

    def test_clean_endpoint_is_undefined(self):
        params = _k1((0.0, 0.0), ZERO_MAP, 1.0)
        with pytest.raises(ZeroDivisionError):
            predict_noise(params, np.zeros(2), C, 1.0)

    def test_affine_in_latent_for_single_component(self, affine_denoiser):
        params = affine_denoiser.params
        a = 0.42
        x1 = np.array([0.3, -0.9])
        x2 = np.array([-1.2, 0.4])
        lhs = predict_noise(params, x1 + x2, C, a) + predict_noise(params, np.zeros(2), C, a)
        rhs = predict_noise(params, x1, C, a) + predict_noise(params, x2, C, a)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_matches_monte_carlo_reference(self, demo):
        params = demo["params"]
        gen = np.random.default_rng(2057)
        for _ in range(3):
            a = gen.uniform(0.1, 0.75)
            mus = params.component_means(demo["c_a"])
            k = gen.choice(params.k, p=params.weights)
            x0 = mus[k] + np.sqrt(params.variances[k]) * gen.normal(size=2)
            x = np.sqrt(a) * x0 + np.sqrt(1 - a) * gen.normal(size=2)
            exact = predict_noise(params, x, demo["c_a"], a)
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

    def test_overflow_ties_go_to_the_nearer_mean(self):
        # the residuals agree to float precision, yet component 1 is nearer
        # by a log-responsibility gap of about 2.8e200
        params = GMMDenoiserParams(weights=np.array([0.3, 0.7]),
                                   base_means=np.array([[-1.0, 0.0], [1.0, 0.0]]),
                                   condition_maps=np.zeros((2, 2, 2)),
                                   variances=np.array([0.5, 0.5]))
        x = np.array([1e200, 0.0])
        assert gmm_responsibilities(params, x, C, 0.5).tolist() == [0.0, 1.0]
        assert gmm_responsibilities(params, -x, C, 0.5).tolist() == [1.0, 0.0]

    def test_tiny_marginal_variance_warns_nothing(self):
        # the zero-variance component's squared distance over a variance of
        # about 1e-12 exceeds the float range; it simply gets no mass
        params = GMMDenoiserParams(weights=np.array([0.5, 0.5]),
                                   base_means=np.zeros((2, 2)),
                                   condition_maps=np.zeros((2, 2, 2)),
                                   variances=np.array([0.0, 1.0]))
        x, a = np.array([1e150, 1e150]), 1.0 - 1e-12
        assert gmm_responsibilities(params, x, C, a).tolist() == [0.0, 1.0]
        eps = predict_noise(params, x, C, a)
        batch = GMMDenoiser(params).predict_noise_batch(np.array([x, x / 2]), [C, C], a, 1)
        assert np.all(np.isfinite(eps)) and np.array_equal(batch[0], eps)
        assert np.all(np.isfinite(batch))


@st.composite
def batch_cases(draw):
    """A mixture, a level and N >= 1 rows, some far out or zero-variance."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, d, m = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
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
    C_rows = [ConditionEmbedding(gen.normal(size=m)) for _ in range(n)]
    a = draw(st.one_of(st.floats(1e-6, 1.0, exclude_max=True),
                       st.sampled_from([0.5, 1.0 - 1e-12])))
    return params, X, C_rows, a


class TestPredictNoiseBatch:
    @given(case=batch_cases())
    @settings(max_examples=150, deadline=None)
    def test_rows_are_bitwise_the_per_row_oracle(self, case):
        params, X, C_rows, a = case
        den = GMMDenoiser(params)
        try:
            rows = [den.predict_noise(x, c, a, 7) for x, c in zip(X, C_rows)]
        except ParameterError as err:
            # a noise beyond the float range: the batch fails the same way
            with pytest.raises(type(err)):
                den.predict_noise_batch(X, C_rows, a, 7)
            return
        batch = den.predict_noise_batch(X, C_rows, a, 7)
        assert batch.shape == X.shape
        for i, row in enumerate(rows):
            assert np.array_equal(batch[i], row), i

    def test_noise_beyond_the_float_range_is_a_parameter_error(self):
        # eps = x / sqrt(1 - a) is about 2.1e308 for a point mass at the origin
        params, x, a = _k1([0.0], [[0.0]], 0.0), np.array([3.7e307]), 0.96875
        c = ConditionEmbedding(np.zeros(1))
        with pytest.raises(ParameterError, match="float range"):
            predict_noise(params, x, c, a)
        with pytest.raises(ParameterError, match="float range"):
            GMMDenoiser(params).predict_noise_batch(np.array([[1.0], x]), [c, c], a, 1)

    def test_default_loops_over_predict_noise(self, demo):
        class PerRow(Denoiser):
            d, m = 2, 2

            def __init__(self):
                self.seen = []

            def predict_noise(self, x, c, alpha_bar, t):
                self.seen.append((tuple(x), c))
                return demo["denoiser"].predict_noise(x, c, alpha_bar, t)

        X = np.array([[0.3, -0.2], [1.5, 0.25], [-2.0, 4.0]])
        C_rows = [demo["c_a"], demo["c_b"], demo["null"]]
        den = PerRow()
        batch = den.predict_noise_batch(X, C_rows, 0.4, 600)
        assert den.seen == [(tuple(x), c) for x, c in zip(X, C_rows)]
        assert np.array_equal(batch, demo["denoiser"].predict_noise_batch(X, C_rows, 0.4, 600))


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


class TestEmbedCondition:
    def test_null_resolves_to_zero_vector(self):
        emb = embed_condition("null", 3)
        assert emb.is_null and np.all(emb.values == 0.0) and emb.m == 3

    def test_named_registry(self):
        named = {"warm": ConditionEmbedding(np.array([1.0, 2.0]))}
        assert embed_condition("warm", 2, named) is named["warm"]

    def test_raw_vector(self):
        emb = embed_condition([1.0, 0.0], 2)
        assert emb.values.tolist() == [1.0, 0.0] and not emb.is_null

    def test_wrong_length(self):
        with pytest.raises(ParameterError):
            embed_condition([1.0, 0.0, 3.0], 2)

    def test_unknown_preset(self):
        with pytest.raises(ParameterError):
            embed_condition("missing", 2)


class TestParamsValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            GMMDenoiserParams(weights=np.array([0.5, 0.4]),
                              base_means=np.zeros((2, 2)),
                              condition_maps=np.zeros((2, 2, 2)),
                              variances=np.ones(2))

    def test_sample_clean_respects_condition(self, demo):
        gen = np.random.Generator(np.random.Philox(key=5))
        xs = demo["denoiser"].sample_clean(demo["c_a"], 4000, gen)
        mus = demo["params"].component_means(demo["c_a"])
        expect = demo["params"].weights @ mus
        assert np.allclose(xs.mean(axis=0), expect, atol=0.08)
