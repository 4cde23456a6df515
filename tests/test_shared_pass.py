"""``predict_eps(..., conditions=...)``: one pass for several entries.

Each entry's rows must be those of its own ``condition=`` call, and two
entries that select the same components with the same weights, or the same
tokens for the MLP, must give identical bits: the flow's exact null edits
and a conditional mutual information of exactly zero rely on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffinfo.channel import LogSnrSampler
from diffinfo.denoise import ConditionId, GmmDenoiser, GmmSpec
from diffinfo.mlp import MlpTrainConfig, train_mlp

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


def random_spec(d, seed) -> GmmSpec:
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
        covariances=covs,
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
        spec = random_spec(d, seed)
        den = GmmDenoiser(spec)
        x, alpha = batch(d, seed)
        for entry, rows in zip(entries, blocks(den.predict_eps(x, alpha, conditions=entries), len(entries))):
            assert rows.tobytes() == GmmDenoiser(spec).predict_eps(x, alpha, entry).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 16, 64])
    @given(seed=st.integers(0, 2**32 - 1), others=entry_lists(COMMON), order=st.permutations(TWINS))
    @settings(max_examples=10, deadline=None)
    def test_twins_give_identical_bits(self, d, seed, others, order):
        den = GmmDenoiser(random_spec(d, seed))
        x, alpha = batch(d, seed)
        per_row = [order[i % len(order)] for i in range(N)]
        entries = [*order, *others[:2], per_row]
        out = blocks(den.predict_eps(x, alpha, conditions=entries), len(entries))
        assert out[0].tobytes() == out[1].tobytes() == out[2].tobytes() == out[-1].tobytes()


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
        stacked = small_mlp.predict_eps(x, alpha, conditions=entries)
        for entry, rows in zip(entries, blocks(stacked, len(entries))):
            assert rows.tobytes() == small_mlp.predict_eps(x, alpha, entry).tobytes()

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_entries_with_the_same_tokens_give_identical_bits(self, small_mlp, seed):
        x, alpha = batch(2, seed)
        same = [ConditionId(label="a", context=("c",)), None, ConditionId(label="c", context=("a",))]
        out = blocks(small_mlp.predict_eps(x, alpha, conditions=same + same[:1]), 4)
        assert out[0].tobytes() == out[2].tobytes() == out[3].tobytes()


@pytest.mark.parametrize("kind", ["gmm", "mlp"])
def test_call_forms(kind, small_mlp):
    den = GmmDenoiser(random_spec(2, 0)) if kind == "gmm" else small_mlp
    x, alpha = batch(2, 0)
    a = ConditionId(label="a")
    assert den.predict_eps(x[0], alpha[0], a).shape == (2,)
    assert den.predict_eps(x[0], alpha[0], conditions=[None, a]).shape == (2, 2)
    np.testing.assert_array_equal(den.predict_eps(x, alpha, conditions=(a,)), den.predict_eps(x, alpha, a))
    with pytest.raises(ValueError, match="not both"):
        den.predict_eps(x, alpha, a, conditions=[a])
    with pytest.raises(ValueError, match="at least one entry"):
        den.predict_eps(x, alpha, conditions=[])
    with pytest.raises(ValueError, match="per-row conditions for 12 rows"):
        den.predict_eps(x, alpha, conditions=[None, [a]])
