"""Ground-truth oracle checks.

The quadrature and closed-form values pinned here back every [tolerance]
assertion in the estimator tests, so this module must not import any
denoiser or estimator code paths.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

from diffinfo.oracle import (
    OracleResult,
    QuadratureError,
    gaussian_mi,
    gaussian_pointwise,
    gmm_mi_numeric,
    mmse_gaussian,
)
from diffinfo.denoise import GmmSpec

from toys import component_responsibilities

# Regression-pinned quadrature/closed-form values (step-halving to < 1e-6).
GAUSSIAN_MI_RHO_08 = 0.5108256237659907
GMM_PM4_MI = 0.69305364548292
POINTWISE_X0_Y3_RHO09 = -18.35384492290497


def two_component_spec(offset, variance=1.0):
    return GmmSpec(
        weights=[0.5, 0.5],
        means=[[-offset], [offset]],
        covariances=[[[variance]], [[variance]]],
        condition_map={"neg": (0,), "pos": (1,)},
    )


class TestGaussianMi:
    def test_independence_is_zero(self):
        assert gaussian_mi(0.0).value == 0.0

    def test_rho_08_closed_form(self):
        res = gaussian_mi(0.8)
        assert res.value == pytest.approx(GAUSSIAN_MI_RHO_08, abs=1e-15)
        assert res.method == "closed_form"
        assert res.abs_error_bound == 0.0

    def test_sign_symmetry(self):
        assert gaussian_mi(-0.8).value == gaussian_mi(0.8).value

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5])
    def test_degenerate_correlation_rejected(self, rho):
        with pytest.raises(ValueError):
            gaussian_mi(rho)


class TestMmseGaussian:
    def test_unit_variance_at_alpha_zero(self):
        assert mmse_gaussian(1.0, 0.0).value == pytest.approx(0.5, abs=1e-15)

    def test_unit_variance_equals_signal_weight(self):
        for alpha in (-3.0, -1.0, 0.5, 2.0):
            expected = 1.0 / (1.0 + math.exp(-alpha))
            assert mmse_gaussian(1.0, alpha).value == pytest.approx(expected, rel=1e-12)

    def test_deterministic_source_has_zero_error(self):
        for alpha in (-5.0, 0.0, 5.0):
            assert mmse_gaussian(0.0, alpha).value == 0.0

    def test_limits(self):
        # Pure-noise observations reveal eps exactly; pure-signal ones hide it.
        assert mmse_gaussian(1.0, -40.0).value == pytest.approx(0.0, abs=1e-12)
        assert mmse_gaussian(1.0, 40.0).value == pytest.approx(1.0, abs=1e-12)

    def test_far_out_alpha_does_not_overflow(self):
        assert mmse_gaussian(1.0, -1000.0).value == 0.0
        assert mmse_gaussian(1.0, 1000.0).value == 1.0

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            mmse_gaussian(-0.1, 0.0)

    def test_matches_simulated_regression(self):
        # Empirical error of the best linear predictor on 10^6 simulated pairs.
        rng = np.random.default_rng(0)
        alpha, s2 = 0.7, 1.8
        sa = 1.0 / (1.0 + math.exp(-alpha))
        sna = 1.0 - sa
        x = math.sqrt(s2) * rng.standard_normal(1_000_000)
        eps = rng.standard_normal(1_000_000)
        x_a = math.sqrt(sa) * x + math.sqrt(sna) * eps
        coef = np.cov(eps, x_a)[0, 1] / np.var(x_a)
        resid = eps - coef * x_a
        assert float((resid**2).mean()) == pytest.approx(
            mmse_gaussian(s2, alpha).value, rel=5e-3
        )


class TestGmmMiNumeric:
    def test_single_component_is_zero(self):
        spec = GmmSpec.single([0.0], [[1.0]])
        spec = GmmSpec(
            weights=[1.0], means=[[0.0]], covariances=[[[1.0]]], condition_map={"only": (0,)}
        )
        res = gmm_mi_numeric(spec)
        assert res.method == "quadrature"
        assert abs(res.value) <= 1e-9

    def test_two_components_at_pm4(self):
        res = gmm_mi_numeric(two_component_spec(4.0))
        assert res.value == pytest.approx(GMM_PM4_MI, abs=1e-9)
        assert 0.690 <= res.value <= 0.6932

    def test_duplicated_components_carry_no_information(self):
        spec = GmmSpec(
            weights=[0.5, 0.5],
            means=[[1.0], [1.0]],
            covariances=[[[1.0]], [[1.0]]],
            condition_map={"a": (0,), "b": (1,)},
        )
        res = gmm_mi_numeric(spec)
        assert abs(res.value) <= max(res.abs_error_bound, 1e-9)

    def test_two_dimensional_quadrature(self):
        eye = np.eye(2)
        spec = GmmSpec(
            weights=[0.5, 0.5],
            means=[[-4.0, 0.0], [4.0, 0.0]],
            covariances=[eye, eye],
            condition_map={"neg": (0,), "pos": (1,)},
        )
        res = gmm_mi_numeric(spec, initial_nodes=257)
        assert res.value == pytest.approx(GMM_PM4_MI, abs=1e-4)

    def test_monte_carlo_fallback_above_two_dims(self):
        eye = np.eye(3)
        mean_hi = np.array([4.0, 4.0, 4.0])
        spec = GmmSpec(
            weights=[0.5, 0.5],
            means=[-mean_hi, mean_hi],
            covariances=[eye, eye],
            condition_map={"neg": (0,), "pos": (1,)},
        )
        res = gmm_mi_numeric(spec, mc_samples=100_000, seed=1)
        assert res.method == "monte_carlo"
        assert res.value == pytest.approx(math.log(2), abs=res.abs_error_bound + 1e-3)

    def test_non_convergence_carries_iterates(self):
        with pytest.raises(QuadratureError) as excinfo:
            gmm_mi_numeric(two_component_spec(4.0), tol=0.0, max_refinements=1)
        assert len(excinfo.value.iterates) == 2

    def test_labels_must_partition(self):
        spec = GmmSpec(
            weights=[0.5, 0.5],
            means=[[-1.0], [1.0]],
            covariances=[[[1.0]], [[1.0]]],
            condition_map={"both": (0, 1), "neg": (0,)},
        )
        with pytest.raises(ValueError):
            gmm_mi_numeric(spec)  # "both" and "neg" overlap on component 0
        with pytest.raises(ValueError):
            gmm_mi_numeric(spec, labels=["neg"])  # component 1 uncovered

    def test_copula_discretization_matches_closed_form(self):
        # 128 equal-probability y-buckets of the rho=0.8 bivariate Gaussian.
        rho, buckets = 0.8, 128
        qs = np.linspace(0.0, 1.0, buckets + 1)
        bucket_means = (norm.pdf(norm.ppf(qs[:-1])) - norm.pdf(norm.ppf(qs[1:]))) * buckets
        spec = GmmSpec(
            weights=np.full(buckets, 1.0 / buckets),
            means=(rho * bucket_means)[:, None],
            covariances=np.full((buckets, 1, 1), 1.0 - rho**2),
            condition_map={f"b{i}": (i,) for i in range(buckets)},
        )
        res = gmm_mi_numeric(spec)
        assert res.value == pytest.approx(GAUSSIAN_MI_RHO_08, abs=1e-3)


class TestGaussianPointwise:
    def test_independent_pair_is_zero(self):
        cov = np.eye(2)
        for x, y in ((0.0, 0.0), (1.0, -2.0), (0.3, 0.7)):
            assert gaussian_pointwise([x], [y], cov).value == pytest.approx(0.0, abs=1e-12)

    def test_pinned_value(self):
        cov = np.array([[1.0, 0.9], [0.9, 1.0]])
        res = gaussian_pointwise([0.0], [3.0], cov)
        assert res.value == pytest.approx(POINTWISE_X0_Y3_RHO09, abs=1e-9)
        assert res.value < 0  # strongly misinformative pair

    def test_matches_direct_density_evaluation(self):
        rho = 0.9
        cov = np.array([[1.0, rho], [rho, 1.0]])
        res = gaussian_pointwise([0.0], [3.0], cov)
        direct = norm.logpdf(0.0, loc=rho * 3.0, scale=math.sqrt(1 - rho**2)) - norm.logpdf(0.0)
        assert res.value == pytest.approx(direct, abs=1e-12)

    def test_maximizer_found_by_grid_search(self):
        # The ratio -(x - rho y)^2 / (2 (1 - rho^2)) + x^2 / 2 is stationary at
        # x = y / rho, where the conditional gain outweighs the marginal cost.
        rho, y = 0.8, 1.5
        cov = np.array([[1.0, rho], [rho, 1.0]])
        grid = np.linspace(-4, 4, 801)
        values = [gaussian_pointwise([x], [y], cov).value for x in grid]
        best_x = grid[int(np.argmax(values))]
        assert best_x == pytest.approx(y / rho, abs=0.02)

    def test_singular_covariance_rejected(self):
        with pytest.raises(ValueError):
            gaussian_pointwise([0.0], [0.0], np.ones((2, 2)))


class TestOracleConsistency:
    def test_result_validation(self):
        with pytest.raises(ValueError):
            OracleResult(value=1.0, method="guesswork", abs_error_bound=0.0)
        with pytest.raises(ValueError):
            OracleResult(value=1.0, method="closed_form", abs_error_bound=-1.0)

    def test_component_responsibilities_sum_to_one(self):
        spec = two_component_spec(2.0)
        resp = component_responsibilities(spec, np.array([[0.0], [1.0], [-3.0]]))
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)
        assert resp[2, 0] > 0.99  # a point at -3 belongs to the -2 component

    @pytest.mark.parametrize("dim", [1, 3])
    def test_component_responsibilities_of_one_row_are_one_row(self, dim):
        spec = GmmSpec(
            weights=[0.5, 0.5],
            means=[-np.ones(dim), np.ones(dim)],
            covariances=[np.eye(dim)] * 2,
            condition_map={"neg": (0,), "pos": (1,)},
        )
        rows = np.linspace(-1.0, 2.0, 4 * dim).reshape(4, dim)
        one = component_responsibilities(spec, rows[:1])
        assert one.shape == (1, 2)
        np.testing.assert_allclose(one, component_responsibilities(spec, rows)[:1], rtol=1e-12)

    @pytest.mark.parametrize(
        "dim, x, shape",
        [(1, np.zeros(3), r"\(3,\)"), (3, np.zeros(3), r"\(3,\)"), (1, np.zeros((4, 2)), r"\(4, 2\)"),
         (3, np.zeros((4, 1)), r"\(4, 1\)"), (2, np.zeros((2, 1, 2)), r"\(2, 1, 2\)")],
        ids=["vector_on_1d", "vector_on_3d", "too_wide", "too_narrow", "three_axes"],
    )
    def test_component_responsibilities_reject_other_shapes_naming_them(self, dim, x, shape):
        spec = GmmSpec(
            weights=[0.5, 0.5],
            means=[-np.ones(dim), np.ones(dim)],
            covariances=[np.eye(dim)] * 2,
            condition_map={"neg": (0,), "pos": (1,)},
        )
        with pytest.raises(ValueError, match=rf"rows of shape \(n, {dim}\).*got shape {shape}"):
            component_responsibilities(spec, x)
