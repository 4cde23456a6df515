"""Closed-form denoisers and their optimality."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffinfo import denoise
from diffinfo.channel import noise_weight, signal_weight
from diffinfo.denoise import ConditionId, GmmDenoiser, GmmSpec, gmm_mmse
from diffinfo.oracle import mmse_gaussian

from toys import ZeroDenoiser, direct_solve_terms, redundant_editing_spec, restrict

STD_NORMAL = GmmSpec.single([0.0], [[1.0]])


def empirical_mse(denoiser, spec, alpha, n, seed, condition=None, components=None):
    """Mean squared noise-prediction error over fresh corruptions of spec draws."""
    rng = np.random.default_rng(seed)
    if components is None:
        x, _ = spec.sample(n, rng)
    else:
        x, _ = restrict(spec, components).sample(n, rng)
    eps = rng.standard_normal(x.shape)
    x_a = np.sqrt(signal_weight(alpha)) * x + np.sqrt(noise_weight(alpha)) * eps
    pred = denoiser.predict_eps(x_a, alpha, condition)
    per_draw = ((eps - pred) ** 2).sum(axis=1)
    return per_draw.mean(), per_draw.std(ddof=1) / np.sqrt(n)


class TestGaussianMmse:
    def test_standard_normal_closed_form(self):
        den = gmm_mmse(STD_NORMAL)
        rng = np.random.default_rng(0)
        for alpha in (-2.0, 0.0, 1.5, 4.0):
            x_a = rng.standard_normal((5, 1))
            expected = np.sqrt(noise_weight(alpha)) * x_a
            np.testing.assert_allclose(den.predict_eps(x_a, alpha), expected, rtol=1e-12)

    def test_regression_on_simulated_pairs(self):
        # E[eps | x_a] is linear for Gaussian data; the fitted slope and the
        # residual MSE over 10^6 pairs must match the closed form.
        den = gmm_mmse(STD_NORMAL)
        rng = np.random.default_rng(1)
        alpha = 0.0
        x = rng.standard_normal(1_000_000)
        eps = rng.standard_normal(1_000_000)
        x_a = np.sqrt(signal_weight(alpha)) * x + np.sqrt(noise_weight(alpha)) * eps
        slope = np.cov(eps, x_a)[0, 1] / np.var(x_a)
        assert slope == pytest.approx(np.sqrt(noise_weight(alpha)), abs=3e-3)
        mse, se = empirical_mse(den, STD_NORMAL, alpha, 100_000, seed=2)
        assert abs(mse - mmse_gaussian(1.0, alpha).value) <= 3 * se

    def test_narrow_source_recovers_noise_exactly(self):
        mu, s = 2.0, 1e-4
        den = gmm_mmse(GmmSpec.single([mu], [[s**2]]))
        rng = np.random.default_rng(3)
        for alpha in (-1.0, 0.0, 2.0):
            x_a = mu * np.sqrt(signal_weight(alpha)) + rng.standard_normal((4, 1))
            expected = (x_a - np.sqrt(signal_weight(alpha)) * mu) / np.sqrt(noise_weight(alpha))
            np.testing.assert_allclose(den.predict_eps(x_a, alpha), expected, rtol=1e-6)

    def test_high_snr_prediction_vanishes(self):
        den = gmm_mmse(STD_NORMAL)
        x_a = np.array([[1.0], [-2.0]])
        for alpha in (20.0, 40.0):
            pred = den.predict_eps(x_a, alpha)
            bound = np.sqrt(noise_weight(alpha)) * np.abs(x_a)
            assert np.all(np.abs(pred) <= bound + 1e-15)
        assert np.abs(den.predict_eps(x_a, 40.0)).max() < 1e-8

    def test_non_positive_definite_covariance_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            GmmSpec.single([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])


def pair_spec(offset, variance=1.0):
    return GmmSpec(
        weights=[0.5, 0.5],
        means=[[-offset], [offset]],
        covariances=[[[variance]], [[variance]]],
        condition_map={"neg": (0,), "pos": (1,)},
    )


class TestGmmMmse:
    def test_single_component_matches_gaussian(self):
        spec = GmmSpec.single([1.5], [[2.0]])
        gmm = gmm_mmse(spec)
        rng = np.random.default_rng(4)
        x_a = rng.standard_normal((8, 1)) * 2
        alphas = rng.uniform(-4, 6, 8)
        sa, sna = signal_weight(alphas)[:, None], noise_weight(alphas)[:, None]
        gauss = np.sqrt(sna) * (x_a - np.sqrt(sa) * 1.5) / (sa * 2.0 + sna)
        np.testing.assert_allclose(gmm.predict_eps(x_a, alphas), gauss, rtol=1e-12, atol=1e-15)

    def test_far_separated_component_dominates(self):
        spec = GmmSpec(
            weights=[0.5, 0.5],
            means=[[-10.0], [10.0]],
            covariances=[[[1.0]], [[1.0]]],
            condition_map={"neg": (0,), "pos": (1,)},
        )
        den = gmm_mmse(spec)
        alpha = 3.0
        x_a = np.array([[10.0 * np.sqrt(signal_weight(alpha))]])
        resp = den.responsibilities(x_a, alpha)
        assert resp[0, 0] < 1e-20
        only_pos = gmm_mmse(restrict(spec, ConditionId(label="pos")))
        np.testing.assert_allclose(
            den.predict_eps(x_a, alpha), only_pos.predict_eps(x_a, alpha), atol=1e-6
        )

    def test_symmetric_mixture_zero_at_origin(self):
        den = gmm_mmse(pair_spec(3.0))
        for alpha in (-2.0, 0.0, 2.0):
            pred = den.predict_eps(np.zeros((1, 1)), alpha)
            assert abs(pred[0, 0]) <= 1e-12

    @given(
        st.floats(min_value=-30, max_value=30),
        st.floats(min_value=-5, max_value=7),
    )
    @settings(max_examples=60)
    def test_responsibilities_sum_to_one(self, x, alpha):
        den = gmm_mmse(pair_spec(4.0))
        resp = den.responsibilities(np.array([[x]]), alpha)
        assert resp.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(resp >= 0)

    def test_never_nan_for_far_inputs(self):
        den = gmm_mmse(pair_spec(4.0))
        x_a = np.array([[1e6], [-1e6], [0.0]])
        out = den.predict_eps(x_a, 2.0)
        assert np.all(np.isfinite(out))

    def test_conditioning_selects_subsets(self):
        spec = pair_spec(4.0)
        den = gmm_mmse(spec)
        x_a = np.array([[0.5]])
        pos = den.predict_eps(x_a, 0.0, ConditionId(label="pos"))
        neg = den.predict_eps(x_a, 0.0, ConditionId(label="neg"))
        assert pos[0, 0] != neg[0, 0]
        with pytest.raises(ValueError, match="unknown condition token"):
            den.predict_eps(x_a, 0.0, ConditionId(label="missing"))

    def test_empty_intersection_rejected(self):
        spec = pair_spec(4.0)
        with pytest.raises(ValueError, match="selects no components"):
            spec.components_for(ConditionId(label="pos", context=("neg",)))

    def test_dimension_mismatch_names_both(self):
        den = gmm_mmse(pair_spec(1.0))
        with pytest.raises(ValueError, match=r"dimension 1.*dimension 2"):
            den.predict_eps(np.zeros((3, 2)), 0.0)


class TestSpecValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GmmSpec(weights=[0.5, 0.4], means=[[0.0], [1.0]], covariances=[[[1.0]], [[1.0]]])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            GmmSpec(weights=[1.2, -0.2], means=[[0.0], [1.0]], covariances=[[[1.0]], [[1.0]]])

    @pytest.mark.parametrize(
        "weights, means, covariances, message",
        [
            ([np.nan, 0.5], [[0.0], [1.0]], [[[1.0]], [[1.0]]], "component 0 has a non-finite weight"),
            ([0.5, 0.5], [[0.0], [np.inf]], [[[1.0]], [[1.0]]], "component 1 has a non-finite mean"),
            ([0.5, 0.5], [[0.0], [1.0]], [[[1.0]], [[np.nan]]], "component 1 has a non-finite covariance"),
        ],
        ids=["nan_weight", "inf_mean", "nan_covariance"],
    )
    def test_parameters_must_be_finite(self, weights, means, covariances, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GmmSpec(weights=weights, means=means, covariances=covariances)

    def test_condition_map_subsets_validated(self):
        with pytest.raises(ValueError, match="no components"):
            GmmSpec(weights=[1.0], means=[[0.0]], covariances=[[[1.0]]], condition_map={"t": ()})
        with pytest.raises(ValueError, match="out of range"):
            GmmSpec(weights=[1.0], means=[[0.0]], covariances=[[[1.0]]], condition_map={"t": (3,)})

    def test_restrict_renormalizes(self):
        spec = GmmSpec(
            weights=[0.2, 0.3, 0.5],
            means=[[0.0], [1.0], [2.0]],
            covariances=[[[1.0]]] * 3,
            condition_map={"a": (0, 1), "b": (2,)},
        )
        sub = restrict(spec, ConditionId(label="a"))
        np.testing.assert_allclose(sub.weights, [0.4, 0.6])
        assert sub.condition_map["a"] == (0, 1)
        assert "b" not in sub.condition_map

    def test_condition_requires_label_or_context(self):
        with pytest.raises(ValueError):
            ConditionId()


class TestSampling:
    def test_sample_draws_the_weights_means_and_covariances(self):
        """Each statistic within 4 standard errors: binomial for the component
        frequencies, sqrt(C_ii / m) for a mean and sqrt((C_ii C_jj + C_ij^2) / m)
        for a covariance entry, over the m draws of a component."""
        cov = np.array([[2.0, 0.9, -0.6], [0.9, 1.0, 0.4], [-0.6, 0.4, 1.5]])
        spec = GmmSpec(
            weights=[0.2, 0.3, 0.5],
            means=[[-3.0, 0.0, 1.0], [2.0, 2.0, -1.0], [0.0, -4.0, 3.0]],
            covariances=[cov, np.diag([0.5, 2.0, 1.0]), cov[::-1, ::-1]],
        )
        n = 20_000
        x, comps = spec.sample(n, 11)
        assert x.shape == (n, 3) and comps.shape == (n,)
        w = spec.weights
        assert np.all(np.abs(np.bincount(comps, minlength=3) - n * w) <= 4 * np.sqrt(n * w * (1 - w)))
        for k, (mean, c) in enumerate(zip(spec.means, spec.covariances)):
            rows = x[comps == k]
            m, var = len(rows), np.diag(c)
            assert np.all(np.abs(rows.mean(axis=0) - mean) <= 4 * np.sqrt(var / m))
            cov_se = np.sqrt((np.outer(var, var) + c**2) / m)
            assert np.all(np.abs(np.cov(rows.T) - c) <= 4 * cov_se)


class TestOptimality:
    """No denoiser beats the closed form; conditioning never hurts."""

    @pytest.mark.parametrize("alpha", [-2.0, 0.0, 2.0])
    def test_closed_form_attains_analytic_mmse(self, alpha):
        den = gmm_mmse(STD_NORMAL)
        mse, se = empirical_mse(den, STD_NORMAL, alpha, 10_000, seed=5)
        assert mse >= mmse_gaussian(1.0, alpha).value - 3 * se
        assert abs(mse - mmse_gaussian(1.0, alpha).value) <= 3 * se

    @pytest.mark.parametrize("alpha", [-2.0, 0.0, 2.0])
    def test_zero_denoiser_never_beats_analytic(self, alpha):
        mse, se = empirical_mse(ZeroDenoiser(dim=1), STD_NORMAL, alpha, 10_000, seed=6)
        assert mse >= mmse_gaussian(1.0, alpha).value - 3 * se

    def test_conditional_mmse_never_exceeds_unconditional(self):
        # Paired draws on 5 random mixtures: conditioning on the true label
        # cannot make the optimal squared error larger.
        rng = np.random.default_rng(7)
        for trial in range(5):
            k = int(rng.integers(2, 4))
            means = rng.uniform(-6, 6, (k, 1))
            variances = rng.uniform(0.3, 2.0, k)
            weights = rng.uniform(0.5, 1.5, k)
            weights = weights / weights.sum()
            spec = GmmSpec(
                weights=weights,
                means=means,
                covariances=variances[:, None, None],
                condition_map={f"c{i}": (i,) for i in range(k)},
            )
            den = gmm_mmse(spec)
            x, comps = spec.sample(4000, rng)
            eps = rng.standard_normal(x.shape)
            for alpha in (-1.0, 0.5, 2.0):
                x_a = np.sqrt(signal_weight(alpha)) * x + np.sqrt(noise_weight(alpha)) * eps
                err_u = ((eps - den.predict_eps(x_a, alpha)) ** 2).sum(axis=1)
                err_c = np.empty_like(err_u)
                for i in range(k):
                    rows = comps == i
                    if not rows.any():
                        continue
                    pred = den.predict_eps(x_a[rows], alpha, ConditionId(label=f"c{i}"))
                    err_c[rows] = ((eps[rows] - pred) ** 2).sum(axis=1)
                diff = err_c - err_u
                assert diff.mean() <= 3 * diff.std(ddof=1) / np.sqrt(diff.size)


def reference_spec(d, seed):
    """Three components: two of the form R R^T / d + 0.05 I, and one with
    eigenvalues spread from 1e-4 to 1e2 (condition number 1e6)."""
    rng = np.random.default_rng(seed)
    covs = []
    for _ in range(2):
        r = rng.standard_normal((d, d))
        covs.append(r @ r.T / d + 0.05 * np.eye(d))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    covs.append((q * np.logspace(-4, 2, d)) @ q.T)
    covs = [(c + c.T) / 2 for c in covs]
    return GmmSpec(
        weights=[0.3, 0.3, 0.4],
        means=rng.standard_normal((3, d)),
        covariances=covs,
        condition_map={"wide": (0, 1), "ill": (1, 2)},
    )


class TestEigenbasisMatchesDirectSolve:
    """The eigenbasis posterior equals a direct solve to rounding."""

    @pytest.mark.parametrize("d", [1, 2, 8, 64, 256])
    @pytest.mark.parametrize("condition", [None, ConditionId(label="ill")], ids=["all", "subset"])
    @pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per_row"])
    def test_predict_eps_and_responsibilities(self, d, condition, per_row):
        spec = reference_spec(d, seed=d)
        den = GmmDenoiser(spec)
        rng = np.random.default_rng(100 + d)
        n = 40
        alpha = rng.uniform(-5.0, 7.0, n) if per_row else 1.3
        x, _ = spec.sample(n, rng)
        a = np.broadcast_to(alpha, (n,))[:, None]
        x_a = np.sqrt(signal_weight(a)) * x + np.sqrt(noise_weight(a)) * rng.standard_normal((n, d))
        ref_resp, ref_eps, _ = direct_solve_terms(spec, x_a, alpha, condition)
        np.testing.assert_allclose(
            den.predict_eps(x_a, alpha, condition), ref_eps, rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(
            den.responsibilities(x_a, alpha, condition), ref_resp, rtol=1e-9, atol=1e-12
        )

    def test_single_point_is_rejected_naming_its_shape(self):
        den = GmmDenoiser(reference_spec(8, seed=3))
        x_a = np.random.default_rng(4).standard_normal((3, 8))
        for call in (den.predict_eps, den.responsibilities):
            with pytest.raises(ValueError, match=r"rows of shape \(n, 8\), got shape \(8,\)"):
                call(x_a[1], -2.0)
        np.testing.assert_allclose(
            den.predict_eps(x_a[1:2], -2.0), den.predict_eps(x_a, -2.0)[1:2], rtol=1e-12, atol=1e-15
        )

    def test_one_log_snr_matches_the_same_value_per_row(self):
        # A scalar log-SNR takes the sigmoid's scalar path, an array its array path.
        den = GmmDenoiser(reference_spec(8, seed=6))
        x_a = np.random.default_rng(7).standard_normal((5, 8))
        for alpha in (-5.0, 1.3, 7.0):
            np.testing.assert_allclose(
                den.predict_eps(x_a, alpha), den.predict_eps(x_a, np.full(5, alpha)),
                rtol=1e-12, atol=1e-15,
            )

    def test_empty_batch(self):
        den = GmmDenoiser(reference_spec(8, seed=6))
        assert den.predict_eps(np.zeros((0, 8)), 1.3).shape == (0, 8)
        assert den.predict_eps(np.zeros((0, 8)), np.zeros(0)).shape == (0, 8)


def paired_spec(d, seed):
    """Four components in two covariance groups, {0, 1} under "a" and {2, 3} under "b"."""
    rng = np.random.default_rng(seed)
    covs = []
    for _ in range(2):
        r = rng.standard_normal((d, d))
        covs.append(r @ r.T / d + 0.05 * np.eye(d))
    return GmmSpec(
        weights=np.full(4, 0.25),
        means=rng.standard_normal((4, d)),
        covariances=[covs[0], covs[0], covs[1], covs[1]],
        condition_map={"a": (0, 1), "b": (2, 3), "c": (1, 2)},
    )


def mixed_conditions_case(d):
    """A spec, and 42 noisy rows whose conditions mix None, label-only and label+context.

    ``d = "paired"`` is 8 dimensions in two covariance groups, with conditions that lie in
    one group ("a", "b") or span both (None, "c")."""
    if d == 1:
        spec = redundant_editing_spec()
        distinct = [
            None,
            ConditionId(label="low"),
            ConditionId(label="high", context=("plain",)),
            ConditionId(label="low", context=("split",)),
        ]
    elif d == "paired":
        d, spec = 8, paired_spec(8, seed=5)
        distinct = [None, ConditionId(label="a"), ConditionId(label="b"), ConditionId(label="c")]
    else:
        spec = reference_spec(d, seed=5)
        distinct = [None, ConditionId(label="wide"), ConditionId(label="wide", context=("ill",))]
    rng = np.random.default_rng(20 + d)
    n = 42
    conditions = [distinct[i] for i in rng.integers(0, len(distinct), n)]
    alpha = rng.uniform(-5.0, 7.0, n)
    x, _ = spec.sample(n, rng)
    a = alpha[:, None]
    x_a = np.sqrt(signal_weight(a)) * x + np.sqrt(noise_weight(a)) * rng.standard_normal((n, d))
    return spec, x_a, alpha, conditions


class TestPerRowConditions:
    """A list of per-row conditions gives each row its own conditional mixture."""

    @pytest.mark.parametrize("single_first", [False, True], ids=["per_row_first", "single_first"])
    @pytest.mark.parametrize("d", [1, 8, "paired"])
    def test_equals_single_condition_batches_exactly(self, d, single_first):
        spec, x_a, alpha, conditions = mixed_conditions_case(d)
        den = GmmDenoiser(spec)
        if single_first:  # let single-condition calls resolve the conditions
            for condition in set(conditions):
                den.predict_eps(x_a, alpha, condition)
        batch = den.predict_eps(x_a, alpha, conditions)
        for condition in set(conditions):
            rows = [i for i, c in enumerate(conditions) if c == condition]
            np.testing.assert_array_equal(
                batch[rows], den.predict_eps(x_a[rows], alpha[rows], condition)
            )

    @pytest.mark.parametrize("d", [1, 8, "paired"])
    def test_equals_one_call_per_row(self, d):
        spec, x_a, alpha, conditions = mixed_conditions_case(d)
        den = GmmDenoiser(spec)
        eps = den.predict_eps(x_a, alpha, conditions)
        resp = den.responsibilities(x_a, alpha, conditions)
        # every mix includes None, so the columns span all components
        assert resp.shape == (len(conditions), spec.n_components)
        for i, condition in enumerate(conditions):
            np.testing.assert_allclose(
                eps[i : i + 1], den.predict_eps(x_a[i : i + 1], alpha[i], condition), rtol=1e-12, atol=1e-15
            )
            row = np.zeros(spec.n_components)
            row[spec.components_for(condition)] = den.responsibilities(x_a[i : i + 1], alpha[i], condition)[0]
            np.testing.assert_allclose(resp[i], row, rtol=1e-12, atol=1e-15)

    def test_wrong_length_names_both_lengths(self):
        den = GmmDenoiser(redundant_editing_spec())
        with pytest.raises(ValueError, match="2 per-row conditions for 3 rows"):
            den.predict_eps(np.zeros((3, 1)), 0.0, [None, ConditionId(label="low")])
        with pytest.raises(ValueError, match="2 per-row conditions for 1 rows"):
            den.responsibilities(np.zeros((1, 1)), 0.0, [None, None])


class TestRowPositionIndependence:
    """A row's prediction does not depend on where it sits in its batch, to the bit.

    The flow decodes a round trip and an edit in one batch, and a null edit
    must reproduce the round trip exactly.
    """

    @pytest.mark.parametrize("per_row", [False, True], ids=["one_condition", "per_row"])
    @pytest.mark.parametrize("d", [1, 2, 8, 64, "paired"])
    def test_permuted_and_repeated_batches(self, d, per_row):
        spec, x_a, alpha, conditions = mixed_conditions_case(d)
        den = GmmDenoiser(spec)
        subset = next(c for c in conditions if c is not None)

        def predict(rows):
            condition = [conditions[i] for i in rows] if per_row else subset
            return den.predict_eps(x_a[rows], alpha[rows], condition)

        rows = np.arange(len(conditions))
        out = predict(rows)
        perm = np.random.default_rng(spec.dim).permutation(rows)
        np.testing.assert_array_equal(predict(perm), out[perm])
        twice = np.concatenate([rows, rows])
        np.testing.assert_array_equal(predict(twice), np.concatenate([out, out]))


class TestConditionCache:
    """Conditions are resolved once per denoiser; that changes no prediction."""

    def test_warmed_denoiser_matches_a_fresh_one(self):
        spec, x_a, alpha, conditions = mixed_conditions_case(8)
        warm = GmmDenoiser(spec)
        queries = [*dict.fromkeys(conditions), conditions]
        for condition in queries:
            warm.predict_eps(x_a, alpha, condition)
        for condition in queries:
            np.testing.assert_array_equal(
                warm.predict_eps(x_a, alpha, condition),
                GmmDenoiser(spec).predict_eps(x_a, alpha, condition),
            )

    @pytest.mark.parametrize(
        "bad, message",
        [
            (ConditionId(label="missing"), "unknown condition token"),
            (ConditionId(label="pos", context=("neg",)), "selects no components"),
        ],
        ids=["unknown_token", "empty_selection"],
    )
    def test_errors_are_raised_on_every_call(self, bad, message):
        den = gmm_mmse(pair_spec(4.0))
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                den.predict_eps(np.zeros((1, 1)), 0.0, bad)
            with pytest.raises(ValueError, match=message):
                den.predict_eps(np.zeros((2, 1)), 0.0, [None, bad])
        pos, fresh = ConditionId(label="pos"), gmm_mmse(pair_spec(4.0))
        np.testing.assert_array_equal(
            den.predict_eps(np.zeros((1, 1)), 0.0, pos), fresh.predict_eps(np.zeros((1, 1)), 0.0, pos)
        )


class TestWorkArrays:
    """The arrays a denoiser keeps between calls change no result."""

    @staticmethod
    def two_component_case(n, seed):
        spec = GmmSpec(
            weights=[0.4, 0.6],
            means=[[-1.0, 0.5], [2.0, -0.5]],
            covariances=[np.eye(2), [[2.0, 0.3], [0.3, 0.5]]],
            condition_map={"a": (0,), "b": (1,)},
        )
        rng = np.random.default_rng(seed)
        return spec, rng.standard_normal((n, 2)) * 3.0, rng.uniform(-5.0, 7.0, n)

    def test_warm_call_allocates_under_half_a_megabyte(self):
        # An estimator chunk: 8,000 rows at k = 3, d = 2, one log-SNR per row.
        # Allocating the work arrays on every call took 2.24 MB.  A second
        # entry, over a strict subset of the components, reads the shared terms
        # into the work arrays: it may add only its 128 KB of output.
        den = GmmDenoiser(reference_spec(2, seed=2))
        rng = np.random.default_rng(3)
        x_a, alpha = rng.standard_normal((8000, 2)), rng.uniform(-5.0, 7.0, 8000)
        for entries, bound in [((), 0.5e6), ((None, ConditionId(label="ill")), 0.5e6 + x_a.nbytes)]:
            den.predict_eps(x_a, alpha, *entries)
            tracemalloc.start()
            try:
                den.predict_eps(x_a, alpha, *entries)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, entries

    @pytest.mark.parametrize("single", [False, True], ids=["batch", "point"])
    def test_results_are_not_changed_by_a_later_call(self, single):
        spec, x_a, alpha = self.two_component_case(30, seed=4)
        _, other_x, other_alpha = self.two_component_case(30, seed=5)
        if single:
            x_a, alpha, other_x, other_alpha = x_a[:1], alpha[0], other_x[:1], other_alpha[0]
        den = GmmDenoiser(spec)
        eps, resp = den.predict_eps(x_a, alpha), den.responsibilities(x_a, alpha)
        kept = eps.copy(), resp.copy()
        den.predict_eps(other_x, other_alpha)
        den.responsibilities(other_x, other_alpha, ConditionId(label="b"))
        den.predict_eps(other_x, 1.3)
        np.testing.assert_array_equal(eps, kept[0])
        np.testing.assert_array_equal(resp, kept[1])

    @pytest.mark.parametrize("per_row_alpha", [False, True], ids=["one_log_snr", "per_row"])
    def test_fewer_components_then_more_match_a_fresh_denoiser(self, per_row_alpha):
        spec, x_a, alpha = self.two_component_case(40, seed=6)
        alpha = alpha if per_row_alpha else 0.7
        den = GmmDenoiser(spec)
        for condition in (None, ConditionId(label="b"), None):  # k = 2, 1, 2
            fresh = GmmDenoiser(spec)
            np.testing.assert_array_equal(
                den.predict_eps(x_a, alpha, condition), fresh.predict_eps(x_a, alpha, condition)
            )
            np.testing.assert_array_equal(
                den.responsibilities(x_a, alpha, condition),
                fresh.responsibilities(x_a, alpha, condition),
            )

    def test_per_row_conditions_are_matched_by_value(self):
        # The last per-row log-weights are kept; equal lists reuse them, and a
        # list changed in place, or a different list of the same length, does not.
        spec, x_a, alpha = self.two_component_case(6, seed=7)
        a, b = ConditionId(label="a"), ConditionId(label="b")
        conditions = [a, b, None, a, b, None]
        den = GmmDenoiser(spec)
        queries = [conditions, list(conditions), [b] * 6, conditions]
        expected = [GmmDenoiser(spec).predict_eps(x_a, alpha, list(q)) for q in queries]
        for query, eps in zip(queries, expected):
            np.testing.assert_array_equal(den.predict_eps(x_a, alpha, query), eps)
        conditions[2] = a
        np.testing.assert_array_equal(
            den.predict_eps(x_a, alpha, conditions),
            GmmDenoiser(spec).predict_eps(x_a, alpha, list(conditions)),
        )

    def test_empty_batch_between_calls(self):
        spec, x_a, alpha = self.two_component_case(20, seed=8)
        den = GmmDenoiser(spec)
        before = den.predict_eps(x_a, alpha)
        for empty_alpha in (1.3, np.zeros(0)):
            assert den.predict_eps(np.zeros((0, 2)), empty_alpha).shape == (0, 2)
            assert den.responsibilities(np.zeros((0, 2)), empty_alpha).shape == (0, 2)
        np.testing.assert_array_equal(den.predict_eps(x_a, alpha), before)


class CountingNumpy:
    """numpy, counting the products with an eigenvector basis, one (d, d) or a stack (g, d, d):
    forward for x_a U, whose left operand is the call's ``rows``, and back for w^T U^T."""

    def __init__(self, rows):
        self.rows, self.forward, self.back = rows, 0, 0

    def __getattr__(self, name):
        return getattr(np, name)

    def count(self, a, b):
        if np.shape(b)[-2:] == (self.rows.shape[1],) * 2:
            products = b.shape[0] if np.ndim(b) == 3 else 1
            if a is self.rows:
                self.forward += products
            else:
                self.back += products

    def matmul(self, a, b, **kwargs):
        self.count(a, b)
        return np.matmul(a, b, **kwargs)

    def dot(self, a, b, **kwargs):
        self.count(a, b)
        return np.dot(a, b, **kwargs)


class TestWorkPerCall:
    """A call multiplies each covariance group of its entries' union forward once, and each
    entry's own groups back once; a rank over many labels is the case that gains."""

    LABELS = [ConditionId(label=t) for t in ("l0", "l1", "l2")]

    @staticmethod
    def spec(covariance_of=range(6)):
        """Six components, two under each of three labels, and a context across labels;
        component j takes covariance ``covariance_of[j]`` of six."""
        rng = np.random.default_rng(9)
        factors = rng.standard_normal((6, 3, 3))
        return GmmSpec(
            weights=np.full(6, 1 / 6),
            means=rng.standard_normal((6, 3)),
            covariances=(factors @ factors.transpose(0, 2, 1) + 0.1 * np.eye(3))[list(covariance_of)],
            condition_map={"l0": (0, 1), "l1": (2, 3), "l2": (4, 5), "mid": (1, 2)},
        )

    ENTRIES = [
        (None, *LABELS),
        (LABELS[0],),
        (LABELS[0], LABELS[0]),
        (LABELS[0], ConditionId(label="l1", context=("mid",)), LABELS[1]),
        ([LABELS[0], LABELS[2]] * 6, LABELS[1]),  # a per-row entry takes its union
    ]
    ENTRY_IDS = ["none_and_labels", "one", "twice", "overlapping", "per_row"]
    # (forward, back) for each list of entries, by covariance groups: six of one component;
    # three pairs, {0, 2}, {1, 3} and {4, 5}, so that each label spans two pairs but l2 one;
    # and one group of six.
    SHARINGS = {
        "six_covariances": (range(6), [(6, 12), (2, 2), (2, 4), (4, 5), (6, 6)]),
        "paired_covariances": ([0, 1, 0, 1, 4, 4], [(3, 8), (2, 2), (2, 4), (2, 5), (3, 5)]),
        "one_covariance": ([0] * 6, [(1, 4), (1, 1), (1, 2), (1, 3), (1, 2)]),
    }

    @pytest.mark.parametrize("sharing", list(SHARINGS))
    @pytest.mark.parametrize("case", range(len(ENTRIES)), ids=ENTRY_IDS)
    def test_forward_once_a_group_and_back_once_a_group_an_entry(self, monkeypatch, sharing, case):
        covariance_of, work = self.SHARINGS[sharing]
        self.check_work(monkeypatch, self.spec(covariance_of), self.ENTRIES[case], *work[case])

    @staticmethod
    def check_work(monkeypatch, spec, entries, forward, back):
        den = GmmDenoiser(spec)
        x_a, alpha = np.random.default_rng(10).standard_normal((12, 3)), np.linspace(-4.0, 6.0, 12)
        counting = CountingNumpy(x_a)
        monkeypatch.setattr(denoise, "np", counting)
        out = den.predict_eps(x_a, alpha, *entries)
        monkeypatch.undo()
        assert (counting.forward, counting.back) == (forward, back)
        separate = [GmmDenoiser(spec).predict_eps(x_a, alpha, c) for c in entries]
        assert out.tobytes() == np.concatenate(separate).tobytes()
