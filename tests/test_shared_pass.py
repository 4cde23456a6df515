"""``predict_eps(x_alpha, alpha, *entries)``: one call for several entries.

Each entry's rows must be those of its own one-entry call, and two entries
that select the same components with the same weights, or the same tokens
for the MLP, must give identical bits: the flow's exact null edits and a
conditional mutual information of exactly zero rely on it.  Every denoiser,
the toys included, keeps the one contract of the ``denoise`` module
docstring.
"""

import decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffinfo.channel import LogSnrSampler, signal_weight
from diffinfo.denoise import ConditionId, GmmDenoiser, GmmSpec
from diffinfo.mlp import MlpTrainConfig, train_mlp

from toys import CorrelatedGaussianDenoiser, CountingDenoiser, ZeroDenoiser, direct_solve_terms

N = 12  # rows per call
# One and two rows are where numpy's matmul may take a matrix-vector path.
ROWS = [1, 2, N]

# "a", "a" in context "all" and "twin" select the same components with the same weights.
TWINS = (ConditionId(label="a"), ConditionId(label="a", context=("all",)), ConditionId(label="twin"))
# Labels and labels in a context that every mixture and the MLP know.
COMMON = [
    None,
    ConditionId(label="a"),
    ConditionId(label="b"),
    ConditionId(label="c"),
    ConditionId(label="a", context=("c",)),
    ConditionId(label="b", context=("c",)),
]


def entry_lists(pool, n=N):
    """Lists of 1 to 4 entries, each one condition of ``pool`` or a per-row list of ``n`` of them."""
    single = st.sampled_from(pool)
    return st.lists(st.one_of(single, st.lists(single, min_size=n, max_size=n)), min_size=1, max_size=4)


# Which covariance each of the four components takes: all different; one for "a" = (0, 1) and
# another for "b" = (2, 3), which takes a basis a component as all different does; one for all.
SHARINGS = ((0, 1, 2, 3), (0, 0, 2, 2), (0, 0, 0, 0))


def random_spec(d, seed, sharing=SHARINGS[0]) -> GmmSpec:
    rng = np.random.default_rng(seed)
    covs = []
    for _ in range(4):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        cov = (q * np.exp(rng.uniform(-3.0, 2.0, d))) @ q.T
        covs.append((cov + cov.T) / 2)
    weights = rng.uniform(0.5, 1.5, 4)
    return GmmSpec(
        weights=weights / weights.sum(),
        means=2.0 * rng.standard_normal((4, d)),
        covariances=[covs[i] for i in sharing],
        condition_map={"a": (0, 1), "b": (2, 3), "c": (1, 2), "all": (0, 1, 2, 3), "twin": (0, 1)},
    )


def batch(d, seed, n=N):
    rng = np.random.default_rng(seed + 1)
    return 3.0 * rng.standard_normal((n, d)), rng.uniform(-5.0, 7.0, n)


def blocks(stacked, n_entries, n=N) -> list[np.ndarray]:
    assert stacked.shape[0] == n_entries * n
    return [stacked[e * n : (e + 1) * n] for e in range(n_entries)]


def assert_agrees_with_a_solve_per_component(den, x, alpha, entries, rtol, resp_atol):
    """Each entry's rows against ``direct_solve_terms`` under each row's condition: each row's
    prediction to ``rtol`` of that row's scale, responsibilities to ``resp_atol``."""
    stacked = den.predict_eps(x, alpha, *entries)
    for entry, rows in zip(entries, blocks(stacked, len(entries), len(x))):
        per_row = entry if isinstance(entry, list) else [entry] * len(x)
        for condition in set(per_row):
            at = [i for i, c in enumerate(per_row) if c == condition]
            a = alpha if np.ndim(alpha) == 0 else alpha[at]
            resp, eps, scale = direct_solve_terms(den.spec, x[at], a, condition)
            err = np.abs(rows[at] - eps).max(axis=1)
            bad = ~(err <= rtol * scale)
            with np.errstate(divide="ignore", invalid="ignore"):  # a zero scale reads inf
                ratio = np.where(bad, err / scale, 0.0)
            i = ratio.argmax()  # the worst failing row, a NaN first
            assert not bad.any(), (
                f"{condition}: row {at[i]} is {err[i]:.3g} off at a scale of {scale[i]:.3g}, "
                f"{ratio[i]:.3g} of it against an rtol of {rtol:.3g}"
            )
            np.testing.assert_allclose(den.responsibilities(x[at], a, condition), resp, rtol=0, atol=resp_atol)


def two_group_covariances(rng, d, scales) -> list[np.ndarray]:
    """Two covariance groups of two: ``scales[0]`` times the identity, and ``scales[1]`` times
    a random one of eigenvalues between e^-2 and e."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    wide = (q * np.exp(rng.uniform(-2.0, 1.0, d))) @ q.T
    narrow, broad = scales[0] * np.eye(d), scales[1] * (wide + wide.T) / 2
    return [narrow, narrow, broad, broad]


def exact_pair_terms(x, alpha, mean, variance):
    """The equal-weight 1-D pair at +-``mean``, in 50-digit decimal arithmetic: per row, the
    responsibilities (n, 2), each member's prediction (n, 2), the size of the terms that its
    residual x - sqrt(sigma(a)) mu subtracts, as a prediction (n, 2), and the larger logit
    z^2 / 2s (n,)."""
    out = np.empty((4, len(x), 2))
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        sa = 1 / (1 + (-decimal.Decimal(alpha)).exp())
        s = sa * decimal.Decimal(variance) + (1 - sa)
        root_sa, gain = sa.sqrt(), (1 - sa).sqrt() / s
        for i, row in enumerate(x.tolist()):
            z = [decimal.Decimal(row) - root_sa * m for m in (-decimal.Decimal(mean), decimal.Decimal(mean))]
            logits = [-zk * zk / (2 * s) for zk in z]
            weights = [(lk - max(logits)).exp() for lk in logits]
            out[0, i] = [w / sum(weights) for w in weights]
            out[1, i] = [gain * zk for zk in z]
            out[2, i] = [gain * (abs(decimal.Decimal(row)) + root_sa * decimal.Decimal(mean))] * 2
            out[3, i] = [-min(logits)] * 2
    return out[0], out[1], out[2], out[3][:, 0]


class TestMixture:
    @pytest.mark.parametrize("n", ROWS)
    @pytest.mark.parametrize("d", [1, 2, 16, 64])
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_each_entry_equals_its_own_call_bit_for_bit(self, d, n, data, seed):
        entries = data.draw(entry_lists(COMMON + list(TWINS[1:]), n))
        x, alpha = batch(d, seed, n)
        for sharing in SHARINGS:
            spec = random_spec(d, seed, sharing)
            stacked = GmmDenoiser(spec).predict_eps(x, alpha, *entries)
            for entry, rows in zip(entries, blocks(stacked, len(entries), n)):
                assert rows.tobytes() == GmmDenoiser(spec).predict_eps(x, alpha, entry).tobytes(), sharing

    @pytest.mark.parametrize("d", [1, 2, 16, 64])
    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_a_solve_per_component(self, d, seed):
        """All four covariances equal, equal in pairs and all distinct, against the
        per-component S^-1 solve of ``toys.direct_solve_terms``, per-row and scalar log-SNRs.
        Responsibilities get 1e-11: at d = 64 the log-likelihoods reach 1e4, so each logit
        carries about 1e-12 of rounding in either computation."""
        x, alpha = batch(d, seed)
        per_row = [COMMON[i % len(COMMON)] for i in range(N)]
        for sharing in SHARINGS:
            den = GmmDenoiser(random_spec(d, seed, sharing))
            for a in (alpha, float(alpha[0])):
                assert_agrees_with_a_solve_per_component(den, x, a, [*COMMON, per_row], 1e-12, 1e-11)

    @pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per_row"])
    def test_far_separated_pair_stays_finite_and_agrees(self, per_row):
        """A 1-D pair at +-400 with variance 1e-4, one covariance group, on rows out to 1e6 and
        on the boundary between the means, against the exact values.  Each member's logit is
        about z^2 / 2s, 7e8 at a = 9, so near the boundary a responsibility may carry a few
        ulps of it (seen: 6e-10 at x = 1e-6); everywhere else the result agrees to 1e-12 of the
        terms it is formed from, and on the boundary itself it is exactly half and zero."""
        den = GmmDenoiser(GmmSpec([0.5, 0.5], [[-400.0], [400.0]], [[[1e-4]], [[1e-4]]], {"a": (0,), "b": (1,)}))
        far = np.array([1e6, 1e3, 400.01, 400.0, 399.99, 300.0, 1.0])
        x = np.concatenate([far, -far, [0.0, 1e-6, -1e-6, 1e-3, -1e-3]])[:, None]
        for alpha in (-10.0, -3.0, 0.0, 3.0, 9.0, 15.0):
            a = np.full(len(x), alpha) if per_row else alpha
            both, upper = blocks(den.predict_eps(x, a, None, ConditionId(label="b")), 2, len(x))
            resp = den.responsibilities(x, a)
            assert np.isfinite(both).all() and np.isfinite(upper).all() and np.isfinite(resp).all()
            r, eps_k, scale_k, logit = exact_pair_terms(x[:, 0], alpha, 400.0, 1e-4)
            rounding = 4 * np.finfo(float).eps * logit * r[:, 0] * r[:, 1]
            assert (np.abs(resp - r).max(axis=1) <= 1e-12 + rounding).all(), alpha
            err = np.abs(both[:, 0] - (r * eps_k).sum(axis=1))
            assert (err <= 1e-12 * (r * scale_k).sum(axis=1) + 2 * rounding * np.abs(eps_k).max(axis=1)).all(), alpha
            assert (np.abs(upper[:, 0] - eps_k[:, 1]) <= 1e-12 * scale_k[:, 1]).all(), alpha
            at_zero = x[:, 0] == 0.0
            assert (resp[at_zero] == 0.5).all() and (both[at_zero] == 0.0).all(), alpha

    @pytest.mark.parametrize("scales", [(1.0, 1.0), (1e-4, 1e4)], ids=["near", "distant_logdets"])
    @pytest.mark.parametrize("d", [1, 16, 64])
    def test_two_groups_with_far_apart_means(self, d, scales):
        """Two groups of two, 1e3 apart, under entries within a group, across both and per row:
        far means get zero weight, not NaN.  Scaled by 1e-4 and 1e4, the groups' half log det C
        differ by about 575 nats at d = 64, and their half log det S by about 340 at a = 2, an
        offset that every logit of an entry within one group carries as well."""
        rng = np.random.default_rng(d)
        covs = two_group_covariances(rng, d, scales)
        means = np.stack([np.full(d, -1e3), np.full(d, -1e3 + 2.0), np.full(d, 1e3), np.full(d, 1e3 - 1.5)])
        cmap = {"a": (0, 2), "b": (1, 3), "left": (0, 1)}
        den = GmmDenoiser(GmmSpec(np.full(4, 0.25), means, covs, cmap))
        x = np.concatenate([means + rng.standard_normal((4, d)), rng.uniform(-1.0, 1.0, (2, d))])
        a_label, left = ConditionId(label="a"), ConditionId(label="left")
        per_row = [None, left, a_label, ConditionId(label="b"), left, None]
        for a in (rng.uniform(-5.0, 7.0, len(x)), 2.0):
            entries = [None, a_label, ConditionId(label="b"), left, per_row]
            assert_agrees_with_a_solve_per_component(den, x, a, entries, 1e-12, 1e-11)

    @pytest.mark.parametrize("scales", [(1.0, 1.0), (1e-4, 1e4)], ids=["near", "distant_logdets"])
    @pytest.mark.parametrize("d", [1, 16, 64])
    def test_two_groups_with_shared_means(self, d, scales):
        """Each label a narrow and a broad member at one mean, "a" at -2 and "b" at 2, on rows
        within 1e-2 to 10 of the corrupted means sqrt(sigma(a)) mu: near a mean the members'
        Mahalanobis terms differ little, and half log det S decides the responsibilities."""
        rng = np.random.default_rng(d)
        means = np.stack([np.full(d, -2.0), np.full(d, 2.0)] * 2)
        cmap = {"a": (0, 2), "b": (1, 3), "narrow": (0, 1)}
        den = GmmDenoiser(GmmSpec(np.full(4, 0.25), means, two_group_covariances(rng, d, scales), cmap))
        spreads = np.repeat([1e-2, 1e-1, 1.0, 10.0], 4)[:, None]  # each spread about each member's mean
        a_label, b_label, narrow = ConditionId(label="a"), ConditionId(label="b"), ConditionId(label="narrow")
        entries = [None, a_label, b_label, narrow, [None, narrow, a_label, b_label] * 4]
        for a in (-3.0, 2.0, 6.0):
            x = np.sqrt(signal_weight(a)) * np.tile(means, (4, 1)) + spreads * rng.standard_normal((16, d))
            assert_agrees_with_a_solve_per_component(den, x, a, entries, 1e-12, 1e-11)

    @pytest.mark.parametrize("n", ROWS)
    @pytest.mark.parametrize("d", [1, 2, 16, 64])
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), order=st.permutations(TWINS))
    @settings(max_examples=10, deadline=None)
    def test_twins_give_identical_bits(self, d, n, data, seed, order):
        others = data.draw(entry_lists(COMMON, n))
        x, alpha = batch(d, seed, n)
        per_row = [order[i % len(order)] for i in range(n)]
        entries = [*order, *others[:2], per_row]
        for sharing in SHARINGS:
            out = blocks(GmmDenoiser(random_spec(d, seed, sharing)).predict_eps(x, alpha, *entries), len(entries), n)
            assert out[0].tobytes() == out[1].tobytes() == out[2].tobytes() == out[-1].tobytes(), sharing


@pytest.fixture(scope="module")
def small_mlp():
    rng = np.random.default_rng(60)
    x = rng.standard_normal((64, 2))
    tokens = [("a", ()), ("b", ("c",)), ("c", ()), (None, ("a",))]
    conditions = [ConditionId(*tokens[i % len(tokens)]) for i in range(64)]
    config = MlpTrainConfig(hidden=(16, 16), n_steps=200, batch_size=32)
    return train_mlp(x, conditions, config, LogSnrSampler(), seed=61)[0]


class TestMlp:
    @given(seed=st.integers(0, 2**32 - 1), entries=entry_lists(COMMON))
    @settings(max_examples=20, deadline=None)
    def test_each_entry_equals_its_own_call_bit_for_bit(self, small_mlp, seed, entries):
        x, alpha = batch(2, seed)
        stacked = small_mlp.predict_eps(x, alpha, *entries)
        for entry, rows in zip(entries, blocks(stacked, len(entries))):
            assert rows.tobytes() == small_mlp.predict_eps(x, alpha, entry).tobytes()

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_entries_with_the_same_tokens_give_identical_bits(self, small_mlp, seed):
        x, alpha = batch(2, seed)
        same = [ConditionId(label="a", context=("c",)), None, ConditionId(label="c", context=("a",))]
        out = blocks(small_mlp.predict_eps(x, alpha, *same, same[0]), 4)
        assert out[0].tobytes() == out[2].tobytes() == out[3].tobytes()


def outcome(call):
    """The bytes ``call`` returns, or the message of the ``ValueError`` it raises."""
    try:
        return call().tobytes()
    except ValueError as err:
        return str(err)


A, B = ConditionId(label="a"), ConditionId(label="b")
# Each denoiser, and the conditions it takes: the mixture and the MLP take ConditionIds,
# the correlated Gaussian the observed y, and the zero denoiser ignores its condition.
CONTRACT = {
    "gmm": (lambda mlp: GmmDenoiser(random_spec(2, 0)), [None, A, B, COMMON[4]]),
    "mlp": (lambda mlp: mlp, [None, A, B, COMMON[4]]),
    "zero": (lambda mlp: ZeroDenoiser(dim=2), [None, A, B]),
    "correlated": (lambda mlp: CorrelatedGaussianDenoiser(0.6), [0.5, -1.0, 2.0]),
    "counting": (lambda mlp: CountingDenoiser(GmmDenoiser(random_spec(2, 1))), [None, A, B]),
}


@pytest.mark.parametrize("kind", list(CONTRACT))
def test_one_contract(kind, small_mlp):
    make, pool = CONTRACT[kind]
    den = make(small_mlp)
    x, alpha = batch(den.dim, 0)
    # No entry is the one entry None, to the bit (or to the message, where None is no condition).
    assert outcome(lambda: den.predict_eps(x, alpha)) == outcome(lambda: den.predict_eps(x, alpha, None))
    # K entries are the K one-entry calls, stacked entry by entry.
    stacked = den.predict_eps(x, alpha, *pool)
    assert stacked.shape == (len(pool) * N, den.dim)
    np.testing.assert_array_equal(stacked, np.concatenate([den.predict_eps(x, alpha, c) for c in pool]))
    # The result is a new array that the caller may overwrite; the estimators do.
    den.predict_eps(x, alpha, *pool)[...] = np.nan
    np.testing.assert_array_equal(den.predict_eps(x, alpha, *pool), stacked)
    # A per-row entry gives each row its own condition's prediction.
    per_row = [pool[i % len(pool)] for i in range(N)]
    out = den.predict_eps(x, alpha, per_row)
    for condition in pool:
        rows = [i for i, c in enumerate(per_row) if c == condition]
        np.testing.assert_array_equal(out[rows], den.predict_eps(x, alpha, condition)[rows])
    with pytest.raises(ValueError, match="1 per-row conditions for 12 rows"):
        den.predict_eps(x, alpha, pool[0], pool[:1])
    # Rows only: a single point is rejected, naming its shape.
    with pytest.raises(ValueError, match=rf"got shape \({den.dim},\)"):
        den.predict_eps(x[0], alpha[0], pool[0])
