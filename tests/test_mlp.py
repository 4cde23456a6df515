"""Trainable denoiser: regression quality, conditioning, failure modes."""

import math
import re

import numpy as np
import pytest

from diffinfo import mlp
from diffinfo.channel import LogSnrSampler, noise_weight, signal_weight
from diffinfo.checkpoint import save_checkpoint
from diffinfo.denoise import ConditionId, GmmSpec, gmm_mmse
from diffinfo.mlp import MlpDenoiser, MlpTrainConfig, TrainingDivergedError, train_mlp
from diffinfo.oracle import mmse_gaussian

SAMPLER = LogSnrSampler()


def mse_at(denoiser, xs, alpha, seed, condition=None):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(xs), 20_000)
    x = xs[idx]
    eps = rng.standard_normal(x.shape)
    x_a = np.sqrt(signal_weight(alpha)) * x + np.sqrt(noise_weight(alpha)) * eps
    pred = denoiser.predict_eps(x_a, alpha, condition)
    per_draw = ((eps - pred) ** 2).sum(axis=1)
    return per_draw.mean(), per_draw.std(ddof=1) / np.sqrt(per_draw.size)


@pytest.fixture(scope="module")
def gaussian_mlp():
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((2048, 1))
    denoiser, trace = train_mlp(xs, None, MlpTrainConfig(n_steps=8000), SAMPLER, seed=1)
    return denoiser, trace, xs


class TestGaussianTraining:
    def test_loss_trace_shape_and_improvement(self, gaussian_mlp):
        _, trace, _ = gaussian_mlp
        assert trace.shape == (8000,)
        assert trace[-500:].mean() < trace[:500].mean()

    @pytest.mark.parametrize("alpha", [-2.0, 0.0, 2.0])
    def test_per_alpha_mse_within_ten_percent(self, gaussian_mlp, alpha):
        denoiser, _, xs = gaussian_mlp
        mse, _ = mse_at(denoiser, xs, alpha, seed=2)
        target = mmse_gaussian(1.0, alpha).value
        assert mse == pytest.approx(target, rel=0.10)

    @pytest.mark.parametrize("alpha", [-2.0, 0.0, 2.0])
    def test_never_beats_analytic_mmse(self, gaussian_mlp, alpha):
        denoiser, _, xs = gaussian_mlp
        mse, se = mse_at(denoiser, xs, alpha, seed=3)
        assert mse >= mmse_gaussian(1.0, alpha).value - 3 * se


class TestZeroVarianceDataset:
    def test_noise_recovered_when_data_is_deterministic(self):
        xs = np.full((256, 1), 1.5)
        denoiser, _ = train_mlp(xs, None, MlpTrainConfig(n_steps=5000), SAMPLER, seed=4)
        errors = {}
        for alpha in (0.0, 2.0, 4.0):
            errors[alpha], _ = mse_at(denoiser, xs, alpha, seed=5)
            assert errors[alpha] < 0.02  # optimal error is exactly zero
        assert errors[4.0] < 0.01


class TestConditionalTraining:
    def test_conditional_mse_at_most_unconditional(self):
        spec = GmmSpec(
            weights=[0.5, 0.5],
            means=[[-2.0], [2.0]],
            covariances=[[[1.0]], [[1.0]]],
            condition_map={"neg": (0,), "pos": (1,)},
        )
        rng = np.random.default_rng(6)
        x, comps = spec.sample(4096, rng)
        labels = np.array(["neg", "pos"])[comps]
        conditions = [ConditionId(label=l) for l in labels]
        denoiser, _ = train_mlp(x, conditions, MlpTrainConfig(n_steps=10_000), SAMPLER, seed=7)
        closed = gmm_mmse(spec)
        for alpha in (-2.0, 0.0, 2.0):
            eval_rng = np.random.default_rng(int(10 * alpha) + 100)
            eps = eval_rng.standard_normal(x.shape)
            x_a = np.sqrt(signal_weight(alpha)) * x + np.sqrt(noise_weight(alpha)) * eps
            err_u = ((eps - denoiser.predict_eps(x_a, alpha)) ** 2).sum(axis=1)
            err_c = np.empty_like(err_u)
            for label in ("neg", "pos"):
                rows = labels == label
                pred = denoiser.predict_eps(x_a[rows], alpha, ConditionId(label=label))
                err_c[rows] = ((eps[rows] - pred) ** 2).sum(axis=1)
            diff = err_c - err_u
            assert diff.mean() <= 3 * diff.std(ddof=1) / np.sqrt(diff.size)
            # the closed-form mixture denoiser lower-bounds both, up to MC noise
            err_opt = ((eps - closed.predict_eps(x_a, alpha)) ** 2).sum(axis=1)
            gap = err_u - err_opt
            assert gap.mean() >= -3 * gap.std(ddof=1) / np.sqrt(gap.size)


class TestFailureModes:
    def test_non_finite_data_aborts_with_step_diagnostic(self):
        with pytest.raises(TrainingDivergedError, match="step"):
            train_mlp(np.full((32, 1), np.inf), None, MlpTrainConfig(n_steps=50), SAMPLER, seed=8)

    @pytest.mark.parametrize("learning_rate", [0.0, -1.0, float("nan")])
    def test_non_positive_learning_rate_rejected(self, learning_rate):
        with pytest.raises(ValueError, match="learning_rate must be positive"):
            MlpTrainConfig(learning_rate=learning_rate)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_mlp(np.zeros((0, 1)), None, MlpTrainConfig(n_steps=10), SAMPLER, seed=0)

    @pytest.mark.parametrize("x", [np.zeros(3), np.zeros((2, 3, 1))], ids=["vector", "three_axes"])
    def test_points_not_an_n_by_d_array_rejected(self, x):
        with pytest.raises(ValueError, match="\\(n, d\\) array"):
            train_mlp(x, None, MlpTrainConfig(n_steps=10), SAMPLER, seed=0)

    def test_wrong_number_of_conditions_rejected(self):
        with pytest.raises(ValueError, match="1 conditions for 2 points"):
            train_mlp(np.zeros((2, 1)), [None], MlpTrainConfig(n_steps=10), SAMPLER, seed=0)

    def test_unknown_condition_token_rejected_at_inference(self, gaussian_mlp):
        denoiser, _, _ = gaussian_mlp
        with pytest.raises(ValueError, match="vocabulary"):
            denoiser.predict_eps(np.zeros((1, 1)), 0.0, ConditionId(label="nope"))


class TestDeterminism:
    def test_same_seed_same_parameters(self):
        xs = np.array([[float(i % 5)] for i in range(64)])
        cfg = MlpTrainConfig(n_steps=200)
        d1, t1 = train_mlp(xs, None, cfg, SAMPLER, seed=9)
        d2, t2 = train_mlp(xs, None, cfg, SAMPLER, seed=9)
        np.testing.assert_array_equal(t1, t2)
        for (w1, b1), (w2, b2) in zip(d1.layers, d2.layers):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)

    def test_predictions_deterministic(self, gaussian_mlp):
        denoiser, _, _ = gaussian_mlp
        x_a = np.linspace(-2, 2, 7)[:, None]
        np.testing.assert_array_equal(
            denoiser.predict_eps(x_a, 0.3), denoiser.predict_eps(x_a, 0.3)
        )


def random_mlp(d, vocabulary, seed, hidden=(32, 32)):
    """An untrained net with random weights over ``vocabulary``."""
    rng = np.random.default_rng(seed)
    widths = (d + 16 + len(vocabulary), *hidden, d)
    layers = [
        (rng.standard_normal((m, k)) / np.sqrt(m), 0.1 * rng.standard_normal(k))
        for m, k in zip(widths[:-1], widths[1:])
    ]
    return MlpDenoiser(layers, dim=d, vocabulary=vocabulary)


class TestPerRowConditions:
    @pytest.mark.parametrize("d", [1, 8])
    def test_equals_one_call_per_row(self, d):
        net = random_mlp(d, ("high", "low", "plain", "split"), seed=d)
        distinct = [None, ConditionId(label="low"), ConditionId(label="high", context=("plain",))]
        rng = np.random.default_rng(30 + d)
        n = 42
        conditions = [distinct[i] for i in rng.integers(0, len(distinct), n)]
        x_a = rng.standard_normal((n, d))
        alpha = rng.uniform(-5.0, 7.0, n)
        batch = net.predict_eps(x_a, alpha, conditions)
        for i, condition in enumerate(conditions):
            np.testing.assert_allclose(
                batch[i : i + 1], net.predict_eps(x_a[i : i + 1], alpha[i], condition), rtol=1e-12, atol=1e-15
            )

    def test_equals_single_condition_batches_exactly(self):
        net = random_mlp(2, ("high", "low", "plain"), seed=9)
        # The last entry equals the second but is a separate object: both encode alike.
        distinct = [
            None,
            ConditionId(label="low"),
            ConditionId(label="high", context=("plain",)),
            ConditionId(label="low"),
        ]
        rng = np.random.default_rng(10)
        n = 60
        conditions = [distinct[i] for i in rng.integers(0, len(distinct), n)]
        x_a = rng.standard_normal((n, 2))
        alpha = rng.uniform(-5.0, 7.0, n)
        batch = net.predict_eps(x_a, alpha, conditions)
        for condition in distinct:
            rows = [i for i, c in enumerate(conditions) if c is condition]
            assert rows
            np.testing.assert_array_equal(
                batch[rows], net.predict_eps(x_a, alpha, condition)[rows]
            )

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (ConditionId(label="missing"), ValueError, "unknown condition token 'missing'"),
            (1.5, TypeError, "expected ConditionId or None, got float"),
            (["low"], TypeError, "expected ConditionId or None, got list"),
        ],
        ids=["unknown_token", "float", "unhashable"],
    )
    def test_bad_per_row_condition_raises(self, bad, error, message):
        net = random_mlp(1, ("low",), seed=0)
        with pytest.raises(error, match=message):
            net.predict_eps(np.zeros((4, 1)), 0.0, [None, ConditionId(label="low"), bad, None])

    def test_wrong_length_names_both_lengths(self):
        net = random_mlp(1, ("low",), seed=0)
        with pytest.raises(ValueError, match="3 per-row conditions for 2 rows"):
            net.predict_eps(np.zeros((2, 1)), 0.0, (None, None, ConditionId(label="low")))


def counting_multi_hot(monkeypatch):
    """Replace ``mlp._multi_hot`` with a wrapper that records each call's conditions."""
    calls, inner = [], mlp._multi_hot

    def multi_hot(conditions, vocabulary):
        calls.append(list(conditions))
        return inner(conditions, vocabulary)

    monkeypatch.setattr(mlp, "_multi_hot", multi_hot)
    return calls


class TestConditionRows:
    def test_each_condition_is_encoded_once_and_gives_the_same_bits(self, monkeypatch):
        net = random_mlp(2, ("a", "b"), seed=4)
        rng = np.random.default_rng(5)
        x_a, alpha = rng.standard_normal((50, 2)), rng.uniform(-5.0, 7.0, 50)
        per_row = [[None, ConditionId(label="a")][i % 2] for i in range(50)]
        # The third entry equals the first but is a separate object.
        calls = [(ConditionId(label="a"),), (None, ConditionId(label="b")), (ConditionId(label="a"), per_row)] * 2
        # An instance that has not seen a condition yet encodes it afresh: the reference bits.
        fresh = [
            MlpDenoiser(net.layers, dim=2, vocabulary=net.vocabulary).predict_eps(x_a, alpha, *entries)
            for entries in calls
        ]
        encoded = counting_multi_hot(monkeypatch)
        for entries, want in zip(calls, fresh):
            np.testing.assert_array_equal(net.predict_eps(x_a, alpha, *entries), want)
        singles = [c[0] for c in encoded if len(c) == 1]
        assert singles == [ConditionId(label="a"), None, ConditionId(label="b")]
        assert [c for c in encoded if len(c) > 1] == [per_row, per_row]  # a per-row list, on every call

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (ConditionId(label="missing"), ValueError, "unknown condition token 'missing'"),
            (1.5, TypeError, "expected ConditionId or None, got float"),
            (np.array(1.0), TypeError, "expected ConditionId or None, got ndarray"),
        ],
        ids=["unknown_token", "float", "unhashable"],
    )
    def test_a_bad_condition_raises_on_every_call(self, bad, error, message):
        net = random_mlp(1, ("low",), seed=0)
        for _ in range(2):
            with pytest.raises(error, match=message):
                net.predict_eps(np.zeros((4, 1)), 0.0, bad)
        assert net.predict_eps(np.zeros((4, 1)), 0.0, ConditionId(label="low")).shape == (4, 1)


def reference_forward(layers, feats, hidden=None):
    """The chain ``np.tanh(h @ w + b)`` on new arrays, which ``mlp._forward`` computes in place."""
    activations = [feats]
    h = feats
    for w, b in layers[:-1]:
        h = np.tanh(h @ w + b)
        activations.append(h)
    w, b = layers[-1]
    activations.append(h @ w + b)
    return activations


def full_feature_pass(net, x_a, alpha, condition):
    """The net's output from its whole input rows ``[x_a, sin, cos, tokens]``, as training
    forms them, through the chain of fresh arrays."""
    alpha = np.broadcast_to(alpha, len(x_a))
    rows = condition if isinstance(condition, list) else [condition] * len(x_a)
    feats = mlp._features(x_a, alpha, mlp._multi_hot(rows, net.vocabulary), net._frequencies)
    return reference_forward(net.layers, feats)[-1]


class TestInPlaceForward:
    def test_predict_eps_equals_reference_chain(self, monkeypatch):
        net = random_mlp(2, ("a", "b"), seed=5)
        rng = np.random.default_rng(6)
        x_a = rng.standard_normal((400, 2))
        alpha = rng.uniform(-5.0, 7.0, 400)
        # Same row count twice (the hidden arrays are reused), then other counts.
        calls = [
            (x_a, alpha, None),
            (x_a, alpha, [ConditionId(label="b"), None] * 200),
            (x_a[:7], alpha[:7], ConditionId(label="a")),
            (x_a[:1], alpha[0], None),
            (x_a, alpha, ConditionId(label="a")),
        ]
        got = [net.predict_eps(*call) for call in calls]
        monkeypatch.setattr(mlp, "_forward", reference_forward)
        for call, value in zip(calls, got):
            np.testing.assert_array_equal(value, net.predict_eps(*call))

    @pytest.mark.parametrize("hidden", [(32, 32), (8,), ()], ids=["two_hidden", "one_hidden", "no_hidden"])
    def test_predict_eps_equals_the_full_feature_pass(self, hidden):
        """The first layer split at the condition, with the sines and cosines once per
        run of log-SNRs, agrees with the product of the whole input rows."""
        net = random_mlp(2, ("a", "b"), seed=5, hidden=hidden)
        rng = np.random.default_rng(9)
        x_a = 2.0 * rng.standard_normal((400, 2))
        both = ConditionId(label="a", context=("b",))
        per_row = [[None, ConditionId(label="b"), both, ConditionId(label="a")][i % 4] for i in range(400)]
        entries = [None, ConditionId(label="a"), both, per_row]
        for alpha in (np.repeat(rng.uniform(-5.0, 7.0, 100), 4), rng.uniform(-5.0, 7.0, 400), 1.5):
            stacked = net.predict_eps(x_a, alpha, *entries)
            for e, entry in enumerate(entries):
                want = full_feature_pass(net, x_a, alpha, entry)
                atol = 1e-12 * np.abs(want).max()
                np.testing.assert_allclose(net.predict_eps(x_a, alpha, entry), want, rtol=1e-12, atol=atol)
                np.testing.assert_allclose(stacked[e * 400 : (e + 1) * 400], want, rtol=1e-12, atol=atol)

    def test_training_gives_reference_checkpoint_bytes(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(7)
        conds = [ConditionId(label="a"), ConditionId(label="b")]
        xs = np.stack([rng.standard_normal(2) for _ in range(64)])
        conditions = [conds[i % 2] for i in range(64)]
        cfg = MlpTrainConfig(hidden=(16, 16), n_steps=150, batch_size=32)
        trained = {}
        for name in ("in_place", "reference"):
            if name == "reference":
                monkeypatch.setattr(mlp, "_forward", reference_forward)
            net, trace = train_mlp(xs, conditions, cfg, SAMPLER, seed=8)
            save_checkpoint(net, tmp_path / f"{name}.ckpt")
            trained[name] = ((tmp_path / f"{name}.ckpt").read_bytes(), trace)
        assert trained["in_place"][0] == trained["reference"][0]
        np.testing.assert_array_equal(trained["in_place"][1], trained["reference"][1])


class TestEmptyBatch:
    @pytest.mark.parametrize("alpha", [0.0, np.zeros(0)], ids=["scalar_alpha", "per_row_alpha"])
    def test_fresh_two_layer_net_returns_no_rows(self, alpha):
        rng = np.random.default_rng(3)
        layers = [(rng.standard_normal((18, 5)), np.zeros(5)), (rng.standard_normal((5, 2)), np.zeros(2))]
        net = MlpDenoiser(layers, dim=2)
        assert net.predict_eps(np.zeros((0, 2)), alpha).shape == (0, 2)


def tiny_net(widths, seed):
    """A flat parameter buffer and its (weight, bias) views for the layer ``widths``."""
    shapes = [shape for a, b in zip(widths[:-1], widths[1:]) for shape in ((a, b), (b,))]
    flat = 0.7 * np.random.default_rng(seed).standard_normal(sum(math.prod(s) for s in shapes))
    params = mlp._views(flat, shapes)
    return flat, shapes, list(zip(params[::2], params[1::2]))


BATCH = 64
BLOCK = mlp.BLOCK_ROWS // BATCH  # steps per block at this batch size


def block_data():
    rng = np.random.default_rng(20)
    xs = rng.standard_normal((40, 1))
    conditions = [ConditionId(label=("a", "b")[i % 2]) for i in range(40)]
    return xs, conditions


class TestTrainingStep:
    @pytest.mark.parametrize("hidden", [(3,), (3, 2)])
    def test_gradients_match_finite_differences(self, hidden):
        widths = (5, *hidden, 1)  # d = 1 with two frequencies
        flat, shapes, layers = tiny_net(widths, seed=len(hidden))
        rng = np.random.default_rng(21)
        feats, eps = rng.standard_normal((4, 5)), rng.standard_normal((4, 1))

        def loss():
            return ((mlp._forward(layers, feats)[-1] - eps) ** 2).mean()

        acts = mlp._forward(layers, feats)
        flat_grads = np.zeros_like(flat)
        work = [(np.empty((4, h)), np.empty((4, h))) for h in hidden]
        mlp._gradients(layers, acts, acts[-1] - eps, mlp._views(flat_grads, shapes), work, np.ones(4))
        numeric = np.empty_like(flat)
        for i, value in enumerate(flat.copy()):
            flat[i] = value + 1e-6
            up = loss()
            flat[i] = value - 1e-6
            numeric[i] = (up - loss()) / 2e-6
            flat[i] = value
        np.testing.assert_allclose(flat_grads, numeric, rtol=1e-6, atol=1e-9)

    def test_folded_adam_equals_textbook(self):
        rng = np.random.default_rng(22)
        b1, b2 = mlp.ADAM_BETA1, mlp.ADAM_BETA2
        for _ in range(50):
            n = 200
            m, g = rng.standard_normal(n), rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 1, n)
            v = 10.0 ** rng.uniform(-20, 1, n)  # from far below ADAM_EPS**2 to large
            step, lr = int(rng.integers(1, 100_000)), 10.0 ** rng.uniform(-5, -1)
            m_t, v_t = b1 * m + (1 - b1) * g, b2 * v + (1 - b2) * g * g
            m_hat, v_hat = m_t / (1 - b1**step), v_t / (1 - b2**step)
            textbook = lr * m_hat / (np.sqrt(v_hat) + mlp.ADAM_EPS)
            params = np.zeros(n)
            mlp._adam_step(params, g, m, v, step, lr, np.empty(n))
            np.testing.assert_allclose(-params, textbook, rtol=1e-14, atol=0)
            np.testing.assert_allclose(m, m_t, rtol=1e-14, atol=0)
            np.testing.assert_allclose(v, v_t, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n_steps", [1, BLOCK, 2 * BLOCK + 5], ids=["one", "one_block", "non_multiple"])
    def test_trains_exactly_n_steps(self, monkeypatch, n_steps):
        steps = []
        adam = mlp._adam_step

        def counting(params, grads, m, v, step, *rest):
            steps.append(step)
            adam(params, grads, m, v, step, *rest)

        monkeypatch.setattr(mlp, "_adam_step", counting)
        xs, conditions = block_data()
        cfg = MlpTrainConfig(hidden=(8,), n_steps=n_steps, batch_size=BATCH)
        _, trace = train_mlp(xs, conditions, cfg, SAMPLER, seed=23)
        assert steps == list(range(1, n_steps + 1))
        assert trace.shape == (n_steps,) and np.isfinite(trace).all()

    @pytest.mark.parametrize("bad_step", [5, BLOCK + 3], ids=["first_block", "second_block"])
    def test_divergence_inside_a_block_names_its_step(self, monkeypatch, bad_step):
        calls, alphas = [], {}
        forward = mlp._forward
        xs, conditions = block_data()
        n_frequencies = 8

        def diverging(layers, feats, hidden=None):
            acts = forward(layers, feats, hidden)
            calls.append(None)
            if len(calls) == bad_step:
                # The first frequency's angle lies within (-pi, pi) over the sampler's range.
                sin, cos = feats[:, 1], feats[:, 1 + n_frequencies]
                alphas["step"] = np.arctan2(sin, cos) / mlp.FREQUENCY_BASE
                acts[-1][0, 0] = np.nan
            return acts

        monkeypatch.setattr(mlp, "_forward", diverging)
        cfg = MlpTrainConfig(hidden=(8,), n_steps=3 * BLOCK, batch_size=BATCH, n_frequencies=n_frequencies)
        with pytest.raises(TrainingDivergedError, match=rf"non-finite loss nan at step {bad_step}: ") as info:
            train_mlp(xs, conditions, cfg, SAMPLER, seed=24)
        found = re.search(r"\|x\| max (\S+), alpha range \[(\S+), (\S+)\]", str(info.value))
        assert float(found[1]) in np.abs(xs)
        np.testing.assert_allclose(
            [float(found[2]), float(found[3])], [alphas["step"].min(), alphas["step"].max()], rtol=1e-12
        )
