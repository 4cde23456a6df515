"""``predict_eps(x_alpha, alpha, *entries)``: one call for several entries.

Each entry's rows must be those of its own one-entry call, and two entries
that select the same components with the same weights, or the same tokens
for the MLP, must give identical bits: the flow's exact null edits and a
conditional mutual information of exactly zero rely on it.  Every denoiser,
the toys included, keeps the one contract of the ``denoise`` module
docstring.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffinfo import denoise
from diffinfo.channel import LogSnrSampler
from diffinfo.denoise import ConditionId, GmmDenoiser, GmmSpec
from diffinfo.mlp import MlpTrainConfig, train_mlp

from toys import CorrelatedGaussianDenoiser, CountingDenoiser, ZeroDenoiser

N = 12  # rows per call

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


def entry_lists(pool):
    """Lists of 1 to 4 entries, each one condition of ``pool`` or a per-row list of them."""
    single = st.sampled_from(pool)
    return st.lists(st.one_of(single, st.lists(single, min_size=N, max_size=N)), min_size=1, max_size=4)


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


def batch(d, seed):
    rng = np.random.default_rng(seed + 1)
    return 3.0 * rng.standard_normal((N, d)), rng.uniform(-5.0, 7.0, N)


def blocks(stacked, n_entries) -> list[np.ndarray]:
    assert stacked.shape[0] == n_entries * N
    return [stacked[e * N : (e + 1) * N] for e in range(n_entries)]


class TestMixture:
    @pytest.mark.parametrize("d", [1, 2, 16, 64])
    @given(seed=st.integers(0, 2**32 - 1), entries=entry_lists(COMMON + list(TWINS[1:])))
    @settings(max_examples=15, deadline=None)
    def test_each_entry_equals_its_own_call_bit_for_bit(self, d, seed, entries):
        x, alpha = batch(d, seed)
        for sharing in SHARINGS:
            spec = random_spec(d, seed, sharing)
            stacked = GmmDenoiser(spec).predict_eps(x, alpha, *entries)
            for entry, rows in zip(entries, blocks(stacked, len(entries))):
                assert rows.tobytes() == GmmDenoiser(spec).predict_eps(x, alpha, entry).tobytes(), sharing

    @pytest.mark.parametrize("d", [1, 2, 16, 64])
    @given(seed=st.integers(0, 2**32 - 1), entries=entry_lists(COMMON))
    @settings(max_examples=10, deadline=None)
    def test_shared_bases_give_the_bits_of_a_basis_each(self, d, seed, entries):
        """One covariance for all four components; the reference takes a basis per component,
        as for covariances that all differ."""
        x, alpha = batch(d, seed)
        spec = random_spec(d, seed, SHARINGS[-1])
        with pytest.MonkeyPatch.context() as patch:  # no covariance taken as shared: a basis each
            patch.setattr(denoise, "distinct_rows", lambda values: (list(values), list(range(len(values)))))
            apart = GmmDenoiser(spec)
        for a in (alpha, float(alpha[0])):
            want = apart.predict_eps(x, a, *entries).tobytes()
            assert GmmDenoiser(spec).predict_eps(x, a, *entries).tobytes() == want

    @pytest.mark.parametrize("d", [1, 2, 16, 64])
    @given(seed=st.integers(0, 2**32 - 1), others=entry_lists(COMMON), order=st.permutations(TWINS))
    @settings(max_examples=10, deadline=None)
    def test_twins_give_identical_bits(self, d, seed, others, order):
        x, alpha = batch(d, seed)
        per_row = [order[i % len(order)] for i in range(N)]
        entries = [*order, *others[:2], per_row]
        for sharing in SHARINGS:
            out = blocks(GmmDenoiser(random_spec(d, seed, sharing)).predict_eps(x, alpha, *entries), len(entries))
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
