"""Ranking, segmentation and correlation tasks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffinfo.channel import LogSnrSampler
from diffinfo.denoise import ConditionId, GmmSpec, gmm_mmse
from diffinfo.estimators import CHUNK_ELEMENTS, aggregate_reports, pointwise_dataset
from diffinfo.tasks import (
    TIE_ATOL,
    evaluate_ranking,
    intervention_correlation,
    iou,
    pearson_confidence,
    rank_conditions,
    rescale_unit,
    select,
    sweep_threshold,
)

from toys import CountingDenoiser, component_responsibilities, hierarchy_spec, symmetric_pair_spec

SAMPLER = LogSnrSampler()
LABELS = ("neg", "pos")
CANDIDATES = [ConditionId(label=l) for l in LABELS]


def bayes_accuracy(spec, x, comps):
    resp = component_responsibilities(spec, x)
    return float((np.argmax(resp, axis=1) == comps).mean())


def ranked(spec, n, data_seed, rank_seed, estimator_kind="pointwise_s"):
    """Points of the pair spec, their components, and the candidate each row chooses."""
    x, comps = spec.sample(n, data_seed)
    den = gmm_mmse(spec)
    scores = evaluate_ranking(
        x, CANDIDATES, den, den, SAMPLER, seed=rank_seed, estimator_kind=estimator_kind
    )
    assert scores.shape == (n, len(CANDIDATES))
    return x, comps, select(scores)[0]


class TestRanking:
    def test_well_separated_accuracy(self):
        _, comps, chosen = ranked(symmetric_pair_spec(4.0), 200, data_seed=0, rank_seed=1)
        assert (chosen == comps).mean() >= 0.95
        assert set(comps) == {0, 1}
        assert all((chosen[comps == k] == k).mean() >= 0.9 for k in (0, 1))

    def test_overlapping_accuracy_tracks_bayes(self):
        spec = symmetric_pair_spec(1.0)
        x, comps, chosen = ranked(spec, 200, data_seed=2, rank_seed=3)
        assert abs((chosen == comps).mean() - bayes_accuracy(spec, x, comps)) <= 0.05

    def test_likelihood_ratio_score_dominates_squared_difference_here(self):
        # With exact denoisers and candidates that partition the mixture, the
        # squared-difference score is smallest for the best-supported label,
        # so it anti-ranks; the log-likelihood-ratio default does not.
        spec = symmetric_pair_spec(4.0)
        _, comps, chosen_s = ranked(spec, 60, data_seed=4, rank_seed=5)
        _, _, chosen_o = ranked(spec, 60, data_seed=4, rank_seed=5, estimator_kind="pointwise_o")
        acc_s, acc_o = (chosen_s == comps).mean(), (chosen_o == comps).mean()
        assert acc_s >= 0.95
        assert acc_o <= 1.0 - acc_s + 0.10

    def test_identical_candidates_tie_flagged_first_chosen(self):
        spec = GmmSpec(
            weights=[0.5, 0.5],
            means=[[-4.0], [4.0]],
            covariances=[[[1.0]], [[1.0]]],
            condition_map={"a": (0, 1), "b": (0, 1)},
        )
        den = gmm_mmse(spec)
        scores = rank_conditions(
            np.array([1.0]),
            [ConditionId(label="a"), ConditionId(label="b")],
            den,
            den,
            SAMPLER,
            seed=6,
        )
        chosen, tie = select(scores)
        assert tie
        assert chosen == 0

    def test_needs_two_candidates(self):
        den = gmm_mmse(symmetric_pair_spec(1.0))
        with pytest.raises(ValueError, match="2 candidates"):
            rank_conditions(np.zeros(1), [ConditionId(label="pos")], den, den, SAMPLER)

    def test_each_row_scores_one_point_on_its_own_spawned_seed(self):
        spec = symmetric_pair_spec(1.0)
        den = CountingDenoiser(gmm_mmse(spec))
        rows_per_point = SAMPLER.n_draws * 4
        # d = 1, and each point costs one unconditional and two candidate passes.
        per_chunk = CHUNK_ELEMENTS // (rows_per_point * 3)
        chunks = [per_chunk, per_chunk, per_chunk // 2]
        x, _ = spec.sample(sum(chunks), 7)
        scores = evaluate_ranking(x, CANDIDATES, den, den, SAMPLER, seed=8)
        assert den.rows == [p * rows_per_point for p in chunks]  # one call per chunk
        assert den.entries == [(None, *CANDIDATES)] * len(chunks)
        children = np.random.SeedSequence(8).spawn(len(x))
        for row, xi, child in zip(scores, x, children):
            np.testing.assert_array_equal(row, rank_conditions(xi, CANDIDATES, den, den, SAMPLER, seed=child))
        with pytest.raises(ValueError, match="no points"):
            evaluate_ranking(x[:0], CANDIDATES, den, den, SAMPLER)

    @pytest.mark.parametrize("estimator_kind", ["pointwise_s", "pointwise_o"])
    def test_one_unconditional_pass_shared_by_all_candidates(self, estimator_kind):
        den = CountingDenoiser(gmm_mmse(hierarchy_spec(branching=4)))
        candidates = [ConditionId(label=f"L{j}") for j in range(4)]
        sampler = LogSnrSampler(n_draws=30)
        rank_conditions(
            np.array([3.0]), candidates, den, den, sampler, n_eps=3, seed=9, estimator_kind=estimator_kind
        )
        assert den.rows == [30 * 3]
        assert den.entries == [(None, *candidates)]

    def test_select_is_row_wise_and_ties_go_to_the_first_index(self):
        chosen, tie = select([[1.0, 3.0, 3.0], [2.0, 1.0, 0.0], [5.0, 5.0 - 1e-12, 4.0]])
        np.testing.assert_array_equal(chosen, [1, 0, 0])
        np.testing.assert_array_equal(tie, [True, False, True])

    def test_a_gap_of_exactly_tie_atol_ties(self):
        assert select([0.0, TIE_ATOL])[1]
        assert not select([0.0, 2 * TIE_ATOL])[1]

    # Multiples of 2^-20 within +-100: every shifted score and every gap is
    # exact in float, so the shift changes no comparison.  On arbitrary floats
    # no tie rule is shift-invariant: the gap of [-8.58e-299, 1e-09] exceeds
    # TIE_ATOL, but shifted by 1.0 the scores round to a gap within it.
    @given(
        st.lists(st.integers(-100 * 2**20, 100 * 2**20), min_size=2, max_size=6),
        st.integers(-100 * 2**20, 100 * 2**20),
    )
    @settings(max_examples=100)
    def test_argmax_invariant_to_constant_shift(self, scores, shift):
        scores, shift = [s * 2.0**-20 for s in scores], shift * 2.0**-20
        base_idx, base_tie = select(scores)
        shifted_idx, shifted_tie = select([s + shift for s in scores])
        assert base_idx == shifted_idx
        assert base_tie == shifted_tie


def sweep_by_loop(heatmap, truth):
    """(threshold, iou, mask) of the threshold sweep, one threshold at a time, as a reference."""
    scaled = rescale_unit(heatmap)
    best = (0.0, -1.0, None)
    for t in np.round(np.arange(0, 101) / 100.0, 2):
        mask = scaled >= t
        score = iou(mask, truth)
        if score > best[1]:
            best = (float(t), score, mask)
    return best


class TestSegmentation:
    def test_perfect_heatmap_has_unit_iou(self):
        truth = np.array([1, 0, 1, 0, 0], dtype=bool)
        for threshold in (0.01, 0.5, 1.0):
            mask = rescale_unit(truth.astype(float)) >= threshold
            assert iou(mask, truth) == 1.0
            np.testing.assert_array_equal(mask, truth)
        best = sweep_threshold(truth.astype(float), truth)
        assert best.iou == 1.0
        np.testing.assert_array_equal(best.mask, truth)

    def test_uniform_heatmap_best_is_whole_image(self):
        truth = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=bool)
        best = sweep_threshold(np.full(8, 0.7), truth)
        assert best.iou == pytest.approx(truth.sum() / truth.size)
        assert best.mask.all()

    def test_informative_coordinates_recovered_from_per_dim_mass(self):
        eye = np.eye(6)
        mean_hi = np.zeros(6)
        mean_hi[:2] = 3.0
        spec = GmmSpec(
            weights=[0.5, 0.5],
            means=[np.zeros(6), mean_hi],
            covariances=[eye, eye],
            condition_map={"lo": (0,), "hi": (1,)},
        )
        den = gmm_mmse(spec)
        x, comps = spec.sample(60, 7)
        conditions = [ConditionId(label=("lo", "hi")[k]) for k in comps]
        report = aggregate_reports(pointwise_dataset(den, den, x, conditions, SAMPLER, seed=8), "mi")
        truth = np.array([1, 1, 0, 0, 0, 0], dtype=bool)
        best = sweep_threshold(np.maximum(report.per_dim, 0.0), truth)
        assert best.iou >= 0.9

    def test_sweep_never_below_fixed_threshold(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            heatmap = rng.uniform(0, 1, 12)
            truth = rng.uniform(0, 1, 12) > 0.6
            fixed = iou(rescale_unit(heatmap) >= 0.5, truth)
            best = sweep_threshold(heatmap, truth)
            assert best.iou >= fixed
            assert 0.0 <= best.threshold <= 1.0

    def test_empty_union_convention(self):
        assert iou(np.zeros(4, bool), np.zeros(4, bool)) == 1.0

    @given(
        st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=16),
        st.lists(st.booleans(), min_size=1, max_size=16),
    )
    @settings(max_examples=100)
    def test_iou_bounds(self, heat, truth):
        n = min(len(heat), len(truth))
        mask = rescale_unit(np.array(heat[:n])) >= 0.5
        score = iou(mask, np.array(truth[:n]))
        assert 0.0 <= score <= 1.0

    @given(
        st.integers(min_value=1, max_value=24).flatmap(
            lambda n: st.tuples(
                st.one_of(
                    # few distinct values, so that masks and scores tie
                    st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.7]), min_size=n, max_size=n),
                    st.lists(st.floats(min_value=0, max_value=10), min_size=n, max_size=n),
                    st.floats(min_value=0, max_value=10).map(lambda v: [v] * n),  # constant map
                ),
                st.lists(st.booleans(), min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_sweep_equals_the_threshold_loop(self, case):
        heatmap, truth = np.array(case[0]), np.array(case[1])
        best = sweep_threshold(heatmap, truth)
        threshold, score, mask = sweep_by_loop(heatmap, truth)
        assert (best.threshold, best.iou) == (threshold, score)
        assert best.mask.dtype == mask.dtype
        np.testing.assert_array_equal(best.mask, mask)

    def test_sweep_threshold_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            sweep_threshold(np.array([-1.0, 0.5]), np.array([1, 0]))
        with pytest.raises(ValueError, match="same length"):
            sweep_threshold([0.3], [1, 1, 0, 0])
        with pytest.raises(ValueError, match="same length"):
            sweep_threshold(np.ones((2, 2)), np.ones((2, 2), dtype=bool))


class TestCorrelation:
    def test_affine_relation_is_perfect(self):
        scores = np.array([0.1, 0.4, 0.9, 1.3, 2.0])
        assert intervention_correlation(scores, 2 * scores + 1) == pytest.approx(1.0)

    def test_negation_is_minus_one(self):
        scores = np.array([0.1, 0.4, 0.9])
        assert intervention_correlation(scores, -scores) == pytest.approx(-1.0)

    def test_zero_variance_errors_name_the_side(self):
        with pytest.raises(ValueError, match="scores have zero variance"):
            intervention_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="deltas have zero variance"):
            intervention_correlation([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_length_requirements(self):
        with pytest.raises(ValueError, match="at least 3"):
            intervention_correlation([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="same length"):
            intervention_correlation([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_confidence_interval_brackets_r(self):
        lo, hi = pearson_confidence(0.5, 40)
        assert lo < 0.5 < hi
        assert -1 < lo and hi < 1
        with pytest.raises(ValueError):
            pearson_confidence(0.5, 3)
