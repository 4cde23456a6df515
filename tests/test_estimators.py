"""Information estimators against analytic oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from diffinfo import estimators, tasks
from diffinfo.channel import LogSnrSampler
from diffinfo.denoise import ConditionId, GmmSpec, gmm_mmse
from diffinfo.estimators import (
    CHUNK_ELEMENTS,
    InfoReport,
    aggregate_reports,
    nll,
    pointwise_dataset,
    pointwise_o,
    pointwise_s,
    seed_sequence,
)
from diffinfo.mlp import MlpDenoiser, MlpTrainConfig, train_mlp
from diffinfo.oracle import gaussian_mi, gaussian_pointwise, gmm_mi_numeric

from toys import (
    CountingDenoiser,
    PerEntry,
    coordinate_localized_spec,
    correlated_gaussian,
    editing_dataset,
    hierarchy_dataset,
    hierarchy_spec,
    labeled_dataset,
    redundant_editing_spec,
    restrict,
    symmetric_pair_spec,
)

SAMPLER = LogSnrSampler()
DENSE_SAMPLER = LogSnrSampler(n_draws=400)
HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)
STD_NORMAL = GmmSpec.single([0.0], [[1.0]])


class TestNll:
    @pytest.mark.parametrize("x, expected", [(0.0, HALF_LOG_2PI), (2.0, HALF_LOG_2PI + 2.0)])
    def test_standard_normal_points(self, x, expected):
        den = gmm_mmse(STD_NORMAL)
        report = nll(den, [x], replace(DENSE_SAMPLER, n_eps=8), seed=0)
        assert abs(report.total - expected) <= 3 * report.std_error
        assert report.estimator_kind == "nll"
        assert report.sampler.support == (-5.0, 7.0)

    def test_two_dims_factorize(self):
        den = gmm_mmse(GmmSpec.single([0.0, 0.0], np.eye(2)))
        report = nll(den, [0.0, 0.0], replace(DENSE_SAMPLER, n_eps=8), seed=1)
        assert abs(report.total - 2 * HALF_LOG_2PI) <= 3 * report.std_error
        for value in report.per_dim:
            assert abs(value - HALF_LOG_2PI) <= 3 * report.std_error

    def test_conditioning_on_the_true_label_lowers_nll(self):
        spec = symmetric_pair_spec(4.0)
        den = gmm_mmse(spec)
        x = np.array([4.3])
        unconditional = nll(den, x, SAMPLER, seed=2)
        conditional = nll(den, x, SAMPLER, seed=2, condition=ConditionId(label="pos"))
        assert conditional.total < unconditional.total

    def test_dimension_mismatch(self):
        den = gmm_mmse(STD_NORMAL)
        with pytest.raises(ValueError, match="dimension"):
            nll(den, [0.0, 1.0], SAMPLER)

    @pytest.mark.parametrize("n_eps", [0, -1])
    def test_fewer_than_one_noise_draw_rejected(self, n_eps):
        den = gmm_mmse(STD_NORMAL)
        with pytest.raises(ValueError, match=f"n_eps must be at least 1, got {n_eps}"):
            nll(den, [0.0], replace(SAMPLER, n_eps=n_eps))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_point_rejected(self, bad):
        den = gmm_mmse(STD_NORMAL)
        with pytest.raises(ValueError, match="finite"):
            nll(den, [bad], SAMPLER)

    def test_deterministic_given_seed(self):
        den = gmm_mmse(STD_NORMAL)
        a = nll(den, [0.3], SAMPLER, seed=11)
        b = nll(den, [0.3], SAMPLER, seed=11)
        assert a.total == b.total and a.std_error == b.std_error
        np.testing.assert_array_equal(a.per_dim, b.per_dim)

    def test_overflowing_estimate_flagged_as_inf(self):
        class ExplodingDenoiser(PerEntry):
            dim = 1

            def predict_one(self, x_alpha, alpha, condition):
                return np.full_like(np.asarray(x_alpha, dtype=float), 1e308)

        with pytest.warns(RuntimeWarning, match="overflow"):
            report = nll(ExplodingDenoiser(), [0.0], replace(SAMPLER, n_eps=2), seed=0)
        assert math.isinf(report.total)
        assert not math.isnan(report.total)
        assert np.all(np.isinf(report.per_dim))


@pytest.fixture(scope="module")
def rho08():
    bench = correlated_gaussian(0.8)
    x, ys = bench.dataset(400, seed=100)
    reports_s = pointwise_dataset(bench.uncond, bench.cond, x, ys, SAMPLER, "pointwise_s", 7)
    reports_o = pointwise_dataset(bench.uncond, bench.cond, x, ys, SAMPLER, "pointwise_o", 7)
    return bench, (x, ys), reports_s, reports_o


def dataset_mi(den, x, conditions, sampler, seed, contexts=None):
    """MI, or CMI given ``contexts``: the average of per-sample i^o estimates."""
    report = pointwise_dataset(den, den, x, conditions, sampler, seed=seed, contexts=contexts)
    return aggregate_reports(report, "mi" if contexts is None else "cmi")


class TestPointwise:
    def test_uninformative_condition_scores_exactly_zero(self):
        # A token mapping to the full mixture leaves the denoiser unchanged.
        spec = GmmSpec(
            weights=[0.5, 0.5],
            means=[[-4.0], [4.0]],
            covariances=[[[1.0]], [[1.0]]],
            condition_map={"neg": (0,), "pos": (1,), "any": (0, 1)},
        )
        den = gmm_mmse(spec)
        both = ConditionId(label="any")
        assert pointwise_o(den, den, [1.0], both, SAMPLER, seed=3).total == 0.0
        assert pointwise_s(den, den, [1.0], both, SAMPLER, seed=3).total == 0.0

    def test_misinformative_pair_is_negative(self):
        spec = GmmSpec(
            weights=[0.5, 0.5],
            means=[[0.0], [5.0]],
            covariances=[[[1.0]], [[1.0]]],
            condition_map={"near": (0,), "far": (1,)},
        )
        den = gmm_mmse(spec)
        report = pointwise_s(den, den, [0.0], ConditionId(label="far"), replace(SAMPLER, n_eps=8), seed=4)
        analytic = norm.logpdf(0.0, 5.0, 1.0) - math.log(
            0.5 * norm.pdf(0.0, 0.0, 1.0) + 0.5 * norm.pdf(0.0, 5.0, 1.0)
        )
        assert analytic < 0
        assert report.total < 0  # sign matches the analytic log-density ratio

    def test_llr_matches_analytic_ratio_on_average(self, rho08):
        bench, (x, ys), reports_s, _ = rho08
        cov = np.array([[1.0, 0.8], [0.8, 1.0]])
        analytic = np.array([gaussian_pointwise(xi, [y], cov).value for xi, y in zip(x, ys)])
        diffs = reports_s.total - analytic
        assert abs(diffs.mean()) <= 3 * diffs.std(ddof=1) / math.sqrt(diffs.size)

    def test_identical_denoisers_give_exact_zero(self):
        den = gmm_mmse(STD_NORMAL)
        report = pointwise_o(den, den, [0.7], None, SAMPLER, seed=5)
        assert report.total == 0.0
        assert np.all(report.per_dim == 0.0)

    def test_orthogonal_estimator_recovers_gaussian_mi(self, rho08):
        _, _, _, reports_o = rho08
        totals = reports_o.total
        se = totals.std(ddof=1) / math.sqrt(totals.size)
        assert abs(totals.mean() - gaussian_mi(0.8).value) <= 3 * se

    def test_orthogonal_estimator_has_lower_spread_than_llr(self, rho08):
        # Measured on the shared-draw benchmark only: the squared-difference
        # integrand drops the extra eps terms, so its totals scatter less.
        _, _, reports_s, reports_o = rho08
        spread_s = np.std(reports_s.total, ddof=1)
        spread_o = np.std(reports_o.total, ddof=1)
        assert spread_o <= spread_s

    def test_mean_reported_std_error_lower_for_orthogonal(self, rho08):
        _, _, reports_s, reports_o = rho08
        assert reports_o.std_error.mean() <= reports_s.std_error.mean()

    def test_orthogonality_cross_term_vanishes_on_average(self, rho08):
        _, _, reports_s, reports_o = rho08
        cross = 0.5 * (reports_s.total - reports_o.total)
        assert abs(cross.mean()) <= 3 * cross.std(ddof=1) / math.sqrt(cross.size)

    @given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=-6, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_orthogonal_score_never_negative(self, seed, x):
        den = gmm_mmse(symmetric_pair_spec(2.0))
        report = pointwise_o(
            den,
            den,
            [x],
            ConditionId(label="pos"),
            LogSnrSampler(n_draws=8, n_eps=2),
            seed=seed,
        )
        assert report.total >= 0.0
        assert np.all(report.per_dim >= 0.0)


class TestMi:
    def test_independent_labels_carry_nothing(self):
        spec = GmmSpec(
            weights=[0.5, 0.5],
            means=[[0.5], [0.5]],
            covariances=[[[1.0]], [[1.0]]],
            condition_map={"a": (0,), "b": (1,)},
        )
        den = gmm_mmse(spec)
        x, labels = labeled_dataset(spec, ["a", "b"], 50, seed=6)
        report = dataset_mi(den, x, labels, SAMPLER, seed=8)
        assert abs(report.total) <= 1e-12  # identical conditionals, shared draws

    def test_separated_pair_recovers_label_entropy(self):
        spec = symmetric_pair_spec(4.0)
        den = gmm_mmse(spec)
        x, labels = labeled_dataset(spec, ["neg", "pos"], 400, seed=9)
        # This benchmark still carries ~0.05 nats of label information at
        # alpha = -5, so the truncation interval must reach further down.
        wide = LogSnrSampler(loc=1.0, scale=2.0, clip=4.5, n_draws=100)
        report = dataset_mi(den, x, labels, wide, seed=10)
        assert report.total == pytest.approx(math.log(2), rel=0.05)
        assert report.n_samples == 400
        assert report.sampler.support == (-8.0, 10.0)

    def test_estimator_kinds_agree_in_expectation(self, rho08):
        _, _, reports_s, reports_o = rho08
        t_s, t_o = reports_s.total, reports_o.total
        se = math.sqrt(t_s.var(ddof=1) / t_s.size + t_o.var(ddof=1) / t_o.size)
        assert abs(t_s.mean() - t_o.mean()) <= 3 * se

    def test_empty_dataset_rejected(self):
        den = gmm_mmse(STD_NORMAL)
        with pytest.raises(ValueError, match="empty"):
            pointwise_dataset(den, den, np.zeros((0, 1)), [], SAMPLER)

    def test_missing_condition_rejected(self):
        den = gmm_mmse(STD_NORMAL)
        with pytest.raises(ValueError, match="condition"):
            pointwise_dataset(den, den, np.zeros((1, 1)), [None], SAMPLER)

    def test_deterministic_given_seed(self):
        spec = symmetric_pair_spec(4.0)
        den = gmm_mmse(spec)
        x, labels = labeled_dataset(spec, ["neg", "pos"], 20, seed=11)
        a = dataset_mi(den, x, labels, SAMPLER, seed=12)
        b = dataset_mi(den, x, labels, SAMPLER, seed=12)
        assert a.total == b.total and a.std_error == b.std_error
        np.testing.assert_array_equal(a.per_dim, b.per_dim)


class TestCmi:
    def test_redundant_label_has_exactly_zero_cmi(self):
        # Both labels select the same components given the "plain" context.
        spec = redundant_editing_spec()
        den = gmm_mmse(spec)
        x, conditions, contexts = editing_dataset(spec, 120, seed=13)
        plain = [i for i, c in enumerate(contexts) if "plain" in c.context]
        assert len(plain) > 10
        pick = [conditions[i] for i in plain], [contexts[i] for i in plain]
        report = dataset_mi(den, x[plain], pick[0], SAMPLER, seed=14, contexts=pick[1])
        assert report.total == 0.0

    def test_constant_context_reduces_to_mi(self):
        spec = GmmSpec(
            weights=[0.5, 0.5],
            means=[[-4.0], [4.0]],
            covariances=[[[1.0]], [[1.0]]],
            condition_map={"neg": (0,), "pos": (1,), "all": (0, 1)},
        )
        den = gmm_mmse(spec)
        x, labels = labeled_dataset(spec, ["neg", "pos"], 200, seed=15)
        with_ctx = [ConditionId(label=c.label, context=("all",)) for c in labels]
        contexts = [ConditionId(context=("all",))] * len(labels)
        mi_report = dataset_mi(den, x, labels, SAMPLER, seed=16)
        cmi_report = dataset_mi(den, x, with_ctx, SAMPLER, seed=16, contexts=contexts)
        combined = math.hypot(mi_report.std_error, cmi_report.std_error)
        assert abs(mi_report.total - cmi_report.total) <= 3 * combined

    def test_hierarchy_refinement_matches_restricted_oracle(self):
        spec = hierarchy_spec(branching=4, spread=8.0)
        den = gmm_mmse(spec)
        x, conditions, contexts = hierarchy_dataset(spec, 200, seed=17)
        # Four-way separation keeps label information alive below alpha = -5.
        wide = LogSnrSampler(loc=1.0, scale=2.0, clip=5.0, n_draws=100)
        report = dataset_mi(den, x, conditions, wide, seed=18, contexts=contexts)
        oracle_value = gmm_mi_numeric(
            restrict(spec, ConditionId(context=("c0",))), labels=["L0", "L1", "L2", "L3"]
        )
        tolerance = max(3 * report.std_error, 1e-2)
        assert abs(report.total - oracle_value.value) <= tolerance
        assert oracle_value.value == pytest.approx(math.log(4), abs=1e-3)


class TestPerDimDecomposition:
    def test_uninformative_coordinate_gets_no_mass(self):
        # Means differ only in coordinate 0, so the denoisers agree exactly
        # on coordinate 1 and its share is zero up to roundoff.
        eye = np.eye(2)
        spec = GmmSpec(
            weights=[0.5, 0.5],
            means=[[-3.0, 1.0], [3.0, 1.0]],
            covariances=[eye, eye],
            condition_map={"neg": (0,), "pos": (1,)},
        )
        den = gmm_mmse(spec)
        x, labels = labeled_dataset(spec, ["neg", "pos"], 100, seed=19)
        report = dataset_mi(den, x, labels, SAMPLER, seed=20)
        assert abs(report.per_dim[1]) <= 1e-18
        assert report.per_dim[0] > 0.5

    def test_per_dim_sums_to_total(self, rho08):
        _, _, reports_s, reports_o = rho08
        for report in (reports_s, reports_o):
            np.testing.assert_allclose(report.per_dim.sum(axis=1), report.total, rtol=1e-9, atol=1e-12)

    def test_exchangeable_coordinates_share_mass(self):
        eye = np.eye(2)
        spec = GmmSpec(
            weights=[0.5, 0.5],
            means=[[-2.0, -2.0], [2.0, 2.0]],
            covariances=[eye, eye],
            condition_map={"neg": (0,), "pos": (1,)},
        )
        den = gmm_mmse(spec)
        x, labels = labeled_dataset(spec, ["neg", "pos"], 300, seed=21)
        report = dataset_mi(den, x, labels, SAMPLER, seed=22)
        assert abs(report.per_dim[0] - report.per_dim[1]) <= 3 * report.std_error

    def test_report_validation_rejects_a_std_error_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match=r"std_error \(2,\) must be per_dim \(2,\) less its last axis"):
            InfoReport(
                per_dim=np.array([0.2, 0.2]),
                std_error=[0.0, 0.0],
                sampler=LogSnrSampler(n_draws=1, n_eps=1),
                estimator_kind="mi",
            )

    def test_bits_conversion_scales_all_fields(self):
        den = gmm_mmse(STD_NORMAL)
        report = nll(den, [0.0], replace(SAMPLER, n_eps=2), seed=23)
        bits = report.to_bits()
        assert bits.total == pytest.approx(report.total / math.log(2))
        assert bits.std_error == pytest.approx(report.std_error / math.log(2))
        np.testing.assert_allclose(bits.per_dim, report.per_dim / math.log(2))


@pytest.fixture(scope="module")
def localized_denoisers():
    """The exact denoiser of a 2-D labeled pair and a small MLP trained on it."""
    spec = coordinate_localized_spec(dim=2, informative=1)
    x, labels = labeled_dataset(spec, ("lo", "hi"), 64, seed=30)
    config = MlpTrainConfig(hidden=(8,), n_steps=60, batch_size=16)
    trained, _ = train_mlp(x, labels, config, SAMPLER, seed=31)
    return {"gmm": gmm_mmse(spec), "mlp": trained}


class TestConditionLists:
    CONDITIONS = [ConditionId(label="hi"), ConditionId(label="lo"), ConditionId(label="hi")]

    @pytest.mark.parametrize("estimate", [pointwise_s, pointwise_o], ids=["s", "o"])
    @pytest.mark.parametrize("kind", ["gmm", "mlp"])
    def test_list_equals_separate_calls_bit_for_bit(self, localized_denoisers, estimate, kind):
        den = localized_denoisers[kind]
        x = [0.4, -1.2]
        seed = np.random.SeedSequence(32)
        together = estimate(den, den, x, self.CONDITIONS, replace(SAMPLER, n_eps=3), seed)
        assert together.total.shape == (3,) and together.per_dim.shape == (3, 2)
        for i, condition in enumerate(self.CONDITIONS):
            assert_same_point(together, i, estimate(den, den, x, condition, replace(SAMPLER, n_eps=3), seed))
        assert together.total[0] != together.total[1]

    def test_tuple_is_a_list_and_one_condition_is_not(self):
        den = gmm_mmse(symmetric_pair_spec())
        condition = ConditionId(label="pos")
        single = pointwise_s(den, den, [1.0], condition, SAMPLER, seed=33)
        assert single.total.shape == single.std_error.shape == () and single.per_dim.shape == (1,)
        listed = pointwise_s(den, den, [1.0], (condition,), SAMPLER, seed=33)
        assert listed.total.shape == (1,)
        assert_same_point(listed, 0, single)

    @pytest.mark.parametrize("estimate", [pointwise_s, pointwise_o], ids=["s", "o"])
    @pytest.mark.parametrize("empty", [[], ()], ids=["list", "tuple"])
    def test_empty_list_rejected(self, estimate, empty):
        den = gmm_mmse(symmetric_pair_spec())
        with pytest.raises(ValueError, match="at least one condition"):
            estimate(den, den, [1.0], empty, SAMPLER)


class TestTranslationInvariance:
    """Moving the source and the point by one vector b changes no estimate.

    x + b corrupts to x_a + sqrt(sigma(a)) b, and the shifted mixture's
    corrupted means move by the same amount, so every residual is unchanged:
    a check of the mixture denoiser's algebra at any dimension, with no oracle.
    """

    @pytest.mark.parametrize("d", [1, 2, 16, 64])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=4, deadline=None)
    def test_nll_and_pointwise_unchanged(self, d, seed):
        rng = np.random.default_rng(seed)
        covs = [r @ r.T / d + 0.05 * np.eye(d) for r in rng.standard_normal((3, d, d))]
        means = 2.0 * rng.standard_normal((3, d))
        shift = 10.0 * rng.standard_normal(d)

        def source(m):
            return GmmSpec(
                weights=[0.2, 0.3, 0.5],
                means=m,
                covariances=[(c + c.T) / 2 for c in covs],
                condition_map={"a": (0, 1), "b": (2,), "c": (1, 2)},
            )

        spec = source(means)
        x = spec.sample(1, rng)[0][0]
        conditions = [ConditionId(label="a"), ConditionId(label="c")]
        den, moved = gmm_mmse(spec), gmm_mmse(source(means + shift))
        pairs = [(nll(den, x, seed=seed), nll(moved, x + shift, seed=seed))]
        for estimate in (pointwise_s, pointwise_o):
            pairs.append(
                (
                    estimate(den, den, x, conditions, seed=seed),
                    estimate(moved, moved, x + shift, conditions, seed=seed),
                )
            )
        for report, shifted in pairs:
            np.testing.assert_allclose(shifted.total, report.total, rtol=0, atol=1e-9)
            np.testing.assert_allclose(shifted.per_dim, report.per_dim, rtol=0, atol=1e-9)


def assert_same_point(report, i, alone):
    """Entry i of ``report`` equals the report ``alone`` bit for bit, NaN standard errors included."""
    assert report.total[i].shape == alone.total.shape
    np.testing.assert_array_equal(report.total[i], alone.total)
    np.testing.assert_array_equal(report.std_error[i], alone.std_error)
    np.testing.assert_array_equal(report.per_dim[i], alone.per_dim)


def estimate(kind, den, x, sampler, seed, condition, uncond_condition=None):
    """``nll``, or a pointwise kind with ``den`` on both sides."""
    if kind == "nll":
        assert uncond_condition is None
        return nll(den, x, sampler, seed, condition)
    pointwise = {"pointwise_s": pointwise_s, "pointwise_o": pointwise_o}[kind]
    return pointwise(den, den, x, condition, sampler, seed, uncond_condition)


class TestDatasetNll:
    """Every kind over an (n, d) array: one result per point, each on its own spawned seed."""

    LABELS = [ConditionId(label="lo"), ConditionId(label="hi")]
    CONTEXT = ConditionId(context=("lo",))

    def check_against_single_points(self, den, xs, sampler, seed, condition, kind="nll", uncond=None):
        report = estimate(kind, den, xs, sampler, seed, condition, uncond)
        assert report.total.shape[0] == len(xs)
        children = seed_sequence(seed).spawn(len(xs))
        for i in range(len(xs)):
            c, u = (e[i] if isinstance(e, (list, tuple)) else e for e in (condition, uncond))
            assert_same_point(report, i, estimate(kind, den, xs[i], sampler, children[i], c, u))

    @pytest.mark.parametrize(
        "kind, form",
        [("nll", "none"), ("nll", "one"), ("nll", "per_point")]
        + [(k, f) for k in ("pointwise_s", "pointwise_o") for f in ("per_point", "contexts", "candidates")],
    )
    @pytest.mark.parametrize("den_kind", ["gmm", "mlp"])
    def test_chunks_equal_single_points_bit_for_bit(self, localized_denoisers, den_kind, kind, form):
        sampler, n = LogSnrSampler(n_draws=200, n_eps=4), 23
        lo, hi = self.LABELS
        condition, uncond, groups = {
            "none": (None, None, [n]),
            "one": (hi, None, [n]),
            # None (4 points), "hi" (11) and "lo" (8), each group chunked on its own.
            "per_point": (tuple(self.LABELS[i % 2] if i % 6 else None for i in range(n)), None, [4, 11, 8]),
            # Unconditional side: None (8 points) and a context (15), as cmi passes them.
            "contexts": (hi, [self.CONTEXT if i % 3 else None for i in range(n)], [8, 15]),
            # One candidate list per point, in two orders (12 and 11 points).
            "candidates": ([[lo, hi] if i % 2 == 0 else [hi, lo] for i in range(n)], None, [12, 11]),
        }[form]
        passes = (2 if form == "candidates" else 1) + (kind != "nll")
        rows_per_point = sampler.n_draws * sampler.n_eps
        per_chunk = CHUNK_ELEMENTS // (rows_per_point * 2 * passes)
        assert 1 < per_chunk < n and n % per_chunk  # several chunks, the last one partial
        xs = np.random.default_rng(40).standard_normal((n, 2))
        counting = CountingDenoiser(localized_denoisers[den_kind])
        self.check_against_single_points(counting, xs, sampler, 41, condition, kind, uncond)
        chunks = [p for g in groups for p in [per_chunk] * (g // per_chunk) + [g % per_chunk] if p]
        expected = [p * rows_per_point for p in chunks]  # one call per chunk, carrying every pass
        assert counting.rows[: len(expected)] == expected
        assert [len(e) for e in counting.entries[: len(expected)]] == [passes] * len(expected)
        assert all(c is None or isinstance(c, ConditionId) for e in counting.entries for c in e)

    def test_point_over_the_budget_gets_its_own_chunk(self, localized_denoisers):
        den = CountingDenoiser(localized_denoisers["gmm"])
        sampler = LogSnrSampler(n_draws=CHUNK_ELEMENTS // 2 + 1, n_eps=1)
        xs = np.array([[0.5, -0.5], [3.0, 0.0], [-1.0, 2.0]])
        self.check_against_single_points(den, xs, sampler, 42, self.LABELS[0])
        assert den.rows[:3] == [sampler.n_draws] * 3

    @pytest.mark.parametrize("kind", ["nll", "pointwise_s", "pointwise_o"])
    @pytest.mark.parametrize("den_kind", ["gmm", "mlp"])
    def test_point_over_the_budget_splits_its_entries(self, localized_denoisers, monkeypatch, den_kind, kind):
        """A point whose passes do not fit the budget makes calls of as many entries as fit,
        and gets the estimates of one call carrying them all."""
        lo, hi = self.LABELS
        candidates = [lo, hi, None, lo]
        x, sampler = [0.5, -0.5], LogSnrSampler(n_draws=50, n_eps=2)  # 200 elements a pass
        whole = estimate(kind, localized_denoisers[den_kind], x, sampler, 44, candidates)
        monkeypatch.setattr(estimators, "CHUNK_ELEMENTS", 450)  # two passes a call
        den = CountingDenoiser(localized_denoisers[den_kind])
        split = estimate(kind, den, x, sampler, 44, candidates)
        entries = candidates if kind == "nll" else [None, *candidates]
        assert den.entries == [tuple(entries[i : i + 2]) for i in range(0, len(entries), 2)]
        assert den.rows == [100] * len(den.entries)
        np.testing.assert_array_equal(split.per_dim, whole.per_dim)
        np.testing.assert_array_equal(split.std_error, whole.std_error)

    def test_point_over_the_budget_shares_one_call(self):
        """At d = 64 and 100 x 4 draws (heatmap-d64's), one pass of a point is over the budget;
        the unconditional entry and the candidate still share one mixture call, and the report
        is, bit for bit, that of one call per entry."""

        class OneEntryPerCall(PerEntry):
            def __init__(self, inner):
                self.inner, self.dim = inner, inner.dim

            def predict_one(self, rows, alphas, entry):
                return self.inner.predict_eps(rows, alphas, entry)

        rng = np.random.default_rng(45)
        factors = rng.standard_normal((2, 64, 64))
        spec = GmmSpec(
            weights=[0.5, 0.5],
            means=rng.standard_normal((2, 64)),
            covariances=factors @ factors.transpose(0, 2, 1) / 64 + 0.1 * np.eye(64),
            condition_map={"a": (0,), "b": (1,)},
        )
        sampler, label = LogSnrSampler(n_draws=100, n_eps=4), ConditionId(label="b")
        assert sampler.n_draws * sampler.n_eps * 64 > CHUNK_ELEMENTS
        x = spec.means[1] + 0.3 * rng.standard_normal(64)
        den = CountingDenoiser(gmm_mmse(spec))
        shared = pointwise_o(den, den, x, label, sampler, 46)
        assert den.entries == [(None, label)] and den.rows == [sampler.n_draws * sampler.n_eps]
        separate = OneEntryPerCall(gmm_mmse(spec))
        alone = pointwise_o(separate, separate, x, label, sampler, 46)
        assert shared.total > 0
        np.testing.assert_array_equal(shared.per_dim, alone.per_dim)
        np.testing.assert_array_equal(shared.std_error, alone.std_error)

    def test_every_call_gets_a_single_condition(self, localized_denoisers):
        den = CountingDenoiser(localized_denoisers["gmm"])
        xs = np.zeros((5, 2))
        nll(den, xs, replace(SAMPLER, n_eps=2), 43, [self.LABELS[0]] * 5)
        assert den.entries == [(self.LABELS[0],)]
        den.entries.clear()
        equal_copy = ConditionId(label="lo")
        nll(den, xs, replace(SAMPLER, n_eps=2), 43, [self.LABELS[0], None, equal_copy, None, self.LABELS[1]])
        assert den.entries == [(self.LABELS[0],), (None,), (self.LABELS[1],)]
        assert den.rows[1:] == [2 * SAMPLER.n_draws * 2, 2 * SAMPLER.n_draws * 2, SAMPLER.n_draws * 2]

    def test_wide_mlp_agrees_with_single_points_to_the_last_bits(self):
        """A (64, 64) MLP may give a row other last bits in a chunk than in one point's batch."""
        rng = np.random.default_rng(49)
        widths = (2 + 2 * 8, 64, 64, 2)
        layers = [
            (rng.standard_normal((a, b)) / math.sqrt(a), 0.1 * rng.standard_normal(b))
            for a, b in zip(widths, widths[1:])
        ]
        den = MlpDenoiser(layers, dim=2)
        xs = rng.standard_normal((60, 2))
        children = seed_sequence(50).spawn(len(xs))
        report = nll(den, xs, SAMPLER, 50)
        for i, (x, child) in enumerate(zip(xs, children)):
            alone = nll(den, x, SAMPLER, child)
            assert report.total[i] == pytest.approx(alone.total, rel=1e-12, abs=0)
            np.testing.assert_allclose(report.per_dim[i], alone.per_dim, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("payload", ["float", "array"])
    def test_per_point_payloads_of_any_kind(self, payload):
        """Float payloads group by value; an unhashable payload, such as a 0-d array, raises."""
        cond = CountingDenoiser(correlated_gaussian(0.6).cond)
        ys = [0.5, -1.0, 0.5, 2.0] if payload == "float" else [np.array(y) for y in (0.5, -1.0, 2.0)]
        condition = [ys[i % len(ys)] for i in range(9)]
        xs = np.random.default_rng(47).standard_normal((9, 1))
        if payload == "array":
            with pytest.raises(TypeError, match="unhashable"):
                nll(cond, xs, replace(SAMPLER, n_eps=2), 48, condition)
            return
        self.check_against_single_points(cond, xs, replace(SAMPLER, n_eps=2), 48, condition)
        assert len(cond.rows) - 9 == 3  # three distinct conditions, each one chunk

    def test_vector_uses_the_seed_as_it_is(self):
        den = gmm_mmse(STD_NORMAL)
        first = nll(den, [[0.7]], replace(SAMPLER, n_eps=2), 44)
        assert first.total.shape == (1,)
        child = np.random.SeedSequence(44).spawn(1)[0]
        assert_same_point(first, 0, nll(den, [0.7], replace(SAMPLER, n_eps=2), child))
        as_is = nll(den, [0.7], replace(SAMPLER, n_eps=2), 44)
        assert_same_point(as_is, (), nll(den, 0.7, replace(SAMPLER, n_eps=2), seed_sequence(44)))
        assert as_is.total != first.total[0]

    @pytest.mark.parametrize("call", ["nll", "pointwise_dataset", "evaluate_ranking"])
    def test_a_seed_sequence_is_not_advanced(self, call):
        """A dataset estimate spawns from a copy: the same SeedSequence twice gives the same
        reports, and they are those of a fresh SeedSequence and of its int seed."""
        den = gmm_mmse(symmetric_pair_spec(2.0))
        xs = np.array([[0.1], [0.5], [-1.5]])
        labels = [ConditionId(label=t) for t in ("neg", "pos")]
        run = {
            "nll": lambda seed: nll(den, xs, LogSnrSampler(n_draws=10, n_eps=2), seed).per_dim,
            "pointwise_dataset": lambda seed: pointwise_dataset(
                den, den, xs, labels + labels[:1], LogSnrSampler(n_draws=10, n_eps=2), seed=seed
            ).per_dim,
            "evaluate_ranking": lambda seed: tasks.evaluate_ranking(
                xs, labels, den, den, LogSnrSampler(n_draws=10, n_eps=2), seed=seed
            ),
        }[call]
        ss = np.random.SeedSequence(5)
        first, second = run(ss), run(ss)
        assert ss.n_children_spawned == 0
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, run(5))

    def test_overflowing_row_is_inf_and_spares_its_neighbours(self):
        class FarExploding(PerEntry):
            """Exact for a standard normal, but explodes on rows far from the origin."""

            dim = 1
            inner = gmm_mmse(STD_NORMAL)

            def predict_one(self, x_alpha, alpha, condition):
                out = self.inner.predict_eps(x_alpha, alpha, condition)
                return np.where(np.abs(x_alpha) > 50.0, 1e308, out)

        xs = np.array([[0.0], [1.0], [1e4], [-0.5]])
        with np.errstate(over="ignore"):
            report = nll(FarExploding(), xs, replace(SAMPLER, n_eps=2), 45)
        assert report.total[2] == math.inf and report.std_error[2] == math.inf
        assert np.all(np.isinf(report.per_dim[2]))
        children = seed_sequence(45).spawn(len(xs))
        for i in (0, 1, 3):
            assert math.isfinite(report.total[i])
            assert_same_point(report, i, nll(gmm_mmse(STD_NORMAL), xs[i], replace(SAMPLER, n_eps=2), children[i]))

    def test_one_log_snr_draw_gives_no_std_error(self):
        den = gmm_mmse(STD_NORMAL)
        report = nll(den, np.linspace(-1.0, 1.0, 30)[:, None], LogSnrSampler(n_draws=1, n_eps=3), 46)
        assert report.std_error.shape == (30,) and np.isnan(report.std_error).all()
        assert np.isfinite(report.total).all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_named_by_index(self, bad):
        xs = np.zeros((5, 1))
        xs[3, 0] = bad
        with pytest.raises(ValueError, match="point 3 is"):
            nll(gmm_mmse(STD_NORMAL), xs, SAMPLER)

    @pytest.mark.parametrize(
        "xs, message",
        [
            (np.zeros((3, 2)), "dimension mismatch"),
            (np.zeros((0, 1)), "no points"),
            (np.zeros((2, 2, 1)), "vector or an \\(n, d\\) array"),
        ],
        ids=["dimension", "empty", "three_axes"],
    )
    def test_malformed_points_rejected(self, xs, message):
        with pytest.raises(ValueError, match=message):
            nll(gmm_mmse(STD_NORMAL), xs, SAMPLER)

    @pytest.mark.parametrize("estimate", [pointwise_s, pointwise_o], ids=["s", "o"])
    @pytest.mark.parametrize("ragged", ["lengths", "list_and_single"])
    def test_ragged_candidate_lists_rejected(self, localized_denoisers, estimate, ragged):
        lo, hi = self.LABELS
        den = localized_denoisers["gmm"]
        condition = [[lo, hi], [lo], [hi, lo]] if ragged == "lengths" else [[lo, hi], lo, [hi, lo]]
        with pytest.raises(ValueError, match="one common length"):
            estimate(den, den, np.zeros((3, 2)), condition, SAMPLER)

    def test_dataset_with_candidates_gives_n_by_k_arrays(self, localized_denoisers):
        den = localized_denoisers["gmm"]
        report = pointwise_o(den, den, np.zeros((4, 2)), [tuple(self.LABELS)] * 4, replace(SAMPLER, n_eps=2), 51)
        assert report.total.shape == report.std_error.shape == (4, 2)
        assert report.per_dim.shape == (4, 2, 2)

    def test_wrong_number_of_conditions_rejected(self):
        den = gmm_mmse(symmetric_pair_spec())
        with pytest.raises(ValueError, match="2 per-row conditions for 3 rows"):
            nll(den, np.zeros((3, 1)), SAMPLER, condition=[None, ConditionId(label="pos")])
