"""Noise channel and importance-sampling distribution."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from diffinfo.channel import LogSnrSampler, corrupt, noise_weight, sigmoid, signal_weight

EPS = np.finfo(float).eps


class TestWeights:
    def test_pair_sums_to_one_to_machine_epsilon(self):
        rng = np.random.default_rng(0)
        alphas = rng.uniform(-40, 40, 1000)
        total = signal_weight(alphas) + noise_weight(alphas)
        assert np.abs(total - 1.0).max() <= EPS

    @given(st.floats(min_value=-60, max_value=60))
    def test_pair_sums_to_one_property(self, alpha):
        assert abs(signal_weight(alpha) + noise_weight(alpha) - 1.0) <= EPS

    def test_snr_positive_and_monotone(self):
        alphas = np.array([-10.0, 0.0, 3.0])
        snrs = signal_weight(alphas) / noise_weight(alphas)
        assert np.all(snrs > 0)
        assert np.all(np.diff(snrs) > 0)
        np.testing.assert_allclose(snrs, np.exp(alphas), rtol=1e-12)
        assert signal_weight(0.0) == pytest.approx(0.5)


class TestSigmoid:
    def test_array_within_4_ulp_of_expit(self):
        grid = np.linspace(-700.0, 700.0, 400_001)
        want = expit(grid)
        ulps = np.abs(sigmoid(grid) - want) / np.spacing(want)
        assert ulps.max() <= 4

    def test_scalar_bit_equal_to_expit(self):
        grid = np.linspace(-700.0, 700.0, 14_001)
        got = [sigmoid(float(a)) for a in grid]
        assert all(type(v) is float for v in got)
        assert got == expit(grid).tolist()

    def test_extremes_are_finite_without_warnings(self):
        extremes = np.array([-1e4, -745.0, -709.5, 709.5, 745.0, 1e4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.concatenate(
                [
                    sigmoid(extremes),
                    [sigmoid(float(a)) for a in extremes],
                    signal_weight(extremes),
                    noise_weight(extremes),
                ]
            )
            noised = corrupt(np.ones(1), extremes, np.ones((extremes.size, 1)))
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(noised))
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_accepts_lists_ints_and_zero_dim_arrays(self):
        assert sigmoid(0) == 0.5
        assert sigmoid(np.asarray(1.3)) == expit(1.3)
        np.testing.assert_array_equal(sigmoid([0, 2]), sigmoid(np.array([0.0, 2.0])))


class TestCorrupt:
    def test_high_snr_returns_x(self):
        x = np.array([0.3, -1.2, 5.0])
        eps = np.array([1.0, -1.0, 2.0])
        out = corrupt(x, 40.0, eps)
        np.testing.assert_allclose(out, x, atol=1e-8)

    def test_alpha_zero_mixes_equally(self):
        out = corrupt([1.0, 1.0], 0.0, [1.0, -1.0])
        np.testing.assert_allclose(out, [np.sqrt(2.0), 0.0], atol=1e-15)

    def test_zero_signal_is_scaled_noise(self):
        eps = np.array([0.4, -0.7])
        for alpha in (-3.0, 0.0, 2.0):
            out = corrupt(np.zeros(2), alpha, eps)
            np.testing.assert_allclose(out, np.sqrt(noise_weight(alpha)) * eps, atol=1e-15)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(5)
        eps = rng.standard_normal(5)
        out = corrupt(x, 1.3, eps)
        recovered = (out - np.sqrt(signal_weight(1.3)) * x) / np.sqrt(noise_weight(1.3))
        np.testing.assert_allclose(recovered, eps, atol=1e-12)

    def test_dimension_mismatch_names_both_dimensions(self):
        with pytest.raises(ValueError, match=r"dimension 3.*dimension 2"):
            corrupt([1.0, 2.0, 3.0], 0.0, [1.0, 2.0])

    def test_batch_matches_single_points_exactly(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(3)
        alphas = rng.uniform(-5.0, 7.0, 6)
        eps = rng.standard_normal((6, 4, 3))
        batch = corrupt(x, alphas[:, None], eps)
        assert batch.shape == eps.shape
        for i, alpha in enumerate(alphas):
            for j in range(eps.shape[1]):
                np.testing.assert_array_equal(batch[i, j], corrupt(x, alpha, eps[i, j]))

    @given(
        st.floats(min_value=-8, max_value=8),
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
    )
    @settings(max_examples=50)
    def test_affine_in_signal(self, scale, alpha, x0, e0):
        x = np.array([x0])
        eps = np.array([e0])
        base = corrupt(np.zeros(1), alpha, eps)
        lhs = corrupt(scale * x, alpha, eps) - base
        rhs = scale * (corrupt(x, alpha, eps) - base)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestLogSnrSampler:
    def test_default_draws_span_minus5_to_7(self):
        sampler = LogSnrSampler(loc=1.0, scale=2.0, clip=3.0, n_draws=5000)
        alphas, _ = sampler.sample(0)
        assert sampler.support == (-5.0, 7.0)
        assert alphas.min() >= -5.0 and alphas.max() <= 7.0

    def test_deterministic_given_seed(self):
        sampler = LogSnrSampler(n_draws=64)
        a1, w1 = sampler.sample(42)
        a2, w2 = sampler.sample(42)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(w1, w2)

    @pytest.mark.parametrize("clip", [3.0, 3, 0.5])
    def test_draws_match_the_per_call_formula_bit_for_bit(self, clip):
        # The sampler computes its CDF bounds and truncated mass once; the
        # draws must equal those of the same formula evaluated per call.
        sampler = LogSnrSampler(loc=0.5, scale=1.5, clip=clip, n_draws=50)
        rng = np.random.default_rng(9)
        u = rng.uniform(sigmoid(-clip), sigmoid(clip), size=50)
        mass = sigmoid(clip) - sigmoid(-clip)
        alphas, weights = sampler.sample(9)
        np.testing.assert_array_equal(alphas, 0.5 + 1.5 * (np.log(u) - np.log1p(-u)))
        np.testing.assert_array_equal(weights, 1.5 * mass / (u * (1.0 - u)))
        assert sampler == LogSnrSampler(loc=0.5, scale=1.5, clip=clip, n_draws=50)

    def test_constant_integrand_gives_interval_length(self):
        sampler = LogSnrSampler(n_draws=20_000)
        _, weights = sampler.sample(1)
        estimate = weights.mean()
        se = weights.std(ddof=1) / np.sqrt(weights.size)
        assert abs(estimate - 12.0) <= 3 * se

    def test_empirical_mean_matches_loc(self):
        sampler = LogSnrSampler(n_draws=100_000)
        alphas, _ = sampler.sample(2)
        assert abs(alphas.mean() - 1.0) <= 0.05

    def test_sigmoid_integral_matches_quadrature(self):
        sampler = LogSnrSampler(n_draws=10_000)
        alphas, weights = sampler.sample(3)
        values = weights * signal_weight(alphas)
        estimate = values.mean()
        se = values.std(ddof=1) / np.sqrt(values.size)
        grid = np.linspace(-5.0, 7.0, 10_001)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        reference = trapezoid(signal_weight(grid), grid)
        assert abs(estimate - reference) <= 3 * se

    @pytest.mark.parametrize(
        "kwargs", [{"scale": 0.0}, {"scale": -1.0}, {"clip": 0.0}, {"clip": -2.0}, {"n_draws": 0}]
    )
    def test_invalid_configuration_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LogSnrSampler(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"clip": 1e308}, {"scale": 1e308}, {"loc": 1.7e308, "scale": 1e307}])
    def test_infinite_interval_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be finite"):
            LogSnrSampler(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"loc": 1e17}, {"loc": -1e308}, {"loc": 2.0**26}, {"scale": 1e-300}])
    def test_interval_its_floats_cannot_resolve_rejected(self, kwargs):
        with pytest.raises(ValueError, match="too narrow for its floats"):
            LogSnrSampler(**kwargs)

    @pytest.mark.parametrize("loc", [700.0, -700.0, 6e7])
    def test_far_but_resolvable_interval_accepted(self, loc):
        alphas, _ = LogSnrSampler(loc=loc, n_draws=50).sample(3)
        assert np.unique(alphas).size == 50 and (np.abs(alphas - loc) <= 6.0).all()
