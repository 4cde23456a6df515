"""Trainable noise predictor: a small fully-connected network fit with Adam.

The network regresses eps from the concatenation of the corrupted point, a
fixed sinusoidal embedding of the log-SNR, and a multi-hot encoding of the
condition tokens (all zeros when unconditional).  A fraction of each batch is
trained with the condition encoding zeroed out, so a single network serves
both the conditional and the unconditional estimator terms.

Inference and training share one feature builder and one forward pass,
which keeps every activation for backpropagation.  Adam uses the fixed
constants ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS`` and updates one flat
buffer, of which the layer weights are views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LogSnrSampler, corrupt
from .denoise import ConditionId, as_batch, distinct_rows, is_per_row

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
FREQUENCY_BASE = 0.25


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass(frozen=True)
class MlpTrainConfig:
    hidden: tuple[int, ...] = (64, 64)
    n_steps: int = 20_000
    batch_size: int = 128
    learning_rate: float = 1e-3
    condition_drop: float = 0.2
    n_frequencies: int = 8

    def __post_init__(self):
        if self.n_steps < 1 or self.batch_size < 1:
            raise ValueError("n_steps and batch_size must be positive")
        if not 0.0 <= self.condition_drop <= 1.0:
            raise ValueError(f"condition_drop must lie in [0, 1], got {self.condition_drop}")


def _multi_hot(conditions, vocabulary) -> np.ndarray:
    """One row per condition, 1.0 at each of its tokens; ``None`` gives a zero row.

    Each distinct condition is encoded once and its row gathered, so a
    per-row list costs one encoding per distinct condition, not one per row.
    """
    lookup = {token: i for i, token in enumerate(vocabulary)}
    try:
        distinct, index = distinct_rows(conditions)
    except TypeError:
        # An unhashable condition is no ConditionId: encoding every row raises
        # at the first bad one.
        distinct, index = list(conditions), None
    rows = np.zeros((len(distinct), len(vocabulary)))
    for row, condition in zip(rows, distinct):
        if condition is None:
            continue
        if not isinstance(condition, ConditionId):
            raise TypeError(f"expected ConditionId or None, got {type(condition).__name__}")
        for token in condition.tokens:
            if token not in lookup:
                raise ValueError(
                    f"unknown condition token {token!r}; vocabulary is {list(vocabulary)}"
                )
            row[lookup[token]] = 1.0
    return rows[index]


def _features(x_a, alphas, cond, n_frequencies, base, out=None) -> np.ndarray:
    """Network input rows ``[x_a, sin(angles), cos(angles), cond]``, written into ``out`` if given.

    The angles are the log-SNR times the geometrically spaced frequencies
    ``base * 2**j``, j < ``n_frequencies``.
    """
    angles = np.asarray(alphas, dtype=float)[..., None] * (base * 2.0 ** np.arange(n_frequencies))
    return np.concatenate([x_a, np.sin(angles), np.cos(angles), cond], axis=1, out=out)


def _forward(layers, feats, hidden=None) -> list[np.ndarray]:
    """Activations of every layer, input first and output last (tanh hidden layers).

    ``hidden``, if given, holds one array per hidden layer to write its
    activations into; otherwise each hidden layer gets a new array.
    """
    activations = [feats]
    h = feats
    for i, (w, b) in enumerate(layers[:-1]):
        # In place: one array per layer, not three, so big batches don't churn the heap.
        h = np.matmul(h, w, out=None if hidden is None else hidden[i])
        h += b
        np.tanh(h, out=h)
        activations.append(h)
    w, b = layers[-1]
    out = h @ w
    out += b
    activations.append(out)
    return activations


class MlpDenoiser:
    """Tanh MLP noise predictor (see module docstring for the input layout).

    ``predict_eps`` writes the input and hidden layers into arrays the
    instance keeps, so one instance must not serve two threads at once.
    """

    def __init__(self, layers, dim, vocabulary=(), n_frequencies=8, frequency_base=FREQUENCY_BASE):
        # Copies: training passes views of its flat parameter buffer.
        self.layers = [(np.array(w, dtype=float), np.array(b, dtype=float)) for w, b in layers]
        self._dim = int(dim)
        self.vocabulary = tuple(vocabulary)
        self.n_frequencies = int(n_frequencies)
        self.frequency_base = float(frequency_base)
        self._layer_inputs = (0, [])  # (rows, arrays) reused by predict_eps, see _input_arrays
        expected = self._dim + 2 * self.n_frequencies + len(self.vocabulary)
        if self.layers[0][0].shape[0] != expected:
            raise ValueError(
                f"first layer expects {self.layers[0][0].shape[0]} inputs "
                f"but the feature layout has {expected}"
            )
        if self.layers[-1][0].shape[1] != self._dim:
            raise ValueError("output layer width must match the data dimension")

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def layer_widths(self) -> tuple[int, ...]:
        return tuple(w.shape[0] for w, _ in self.layers) + (self.layers[-1][0].shape[1],)

    def check_condition(self, condition) -> None:
        """Raise ``ValueError`` unless every token of ``condition`` is in the vocabulary."""
        _multi_hot([condition], self.vocabulary)

    def predict_eps(self, x_alpha, alpha, condition=None) -> np.ndarray:
        x2, a, single = as_batch(x_alpha, alpha, self._dim)
        if is_per_row(condition, a.size):
            cond = _multi_hot(condition, self.vocabulary)
        else:
            one = _multi_hot([condition], self.vocabulary)
            cond = np.broadcast_to(one, (a.size, len(self.vocabulary)))
        feats, *hidden = self._input_arrays(a.size)
        _features(x2, a, cond, self.n_frequencies, self.frequency_base, out=feats)
        out = _forward(self.layers, feats, hidden)[-1]
        return out[0] if single else out

    def _input_arrays(self, n_rows) -> list[np.ndarray]:
        """The input array of every layer for ``n_rows`` rows, kept while the batch size repeats.

        A batch of a few hundred to a few thousand rows makes layer inputs of
        a few hundred KB.  Allocated afresh on every call, they can make glibc
        trim the heap when they are freed and grow it again on the next call,
        at the cost of a page fault per page.
        """
        if self._layer_inputs[0] != n_rows:
            self._layer_inputs = (n_rows, [np.empty((n_rows, w.shape[0])) for w, _ in self.layers])
        return self._layer_inputs[1]


def _views(buffer, shapes) -> list[np.ndarray]:
    """Consecutive slices of the flat ``buffer``, reshaped to ``shapes``."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(buffer, ends[:-1]), shapes)]


def train_mlp(
    x,
    conditions=None,
    config: MlpTrainConfig = MlpTrainConfig(),
    sampler: LogSnrSampler = LogSnrSampler(),
    seed: int = 0,
) -> tuple[MlpDenoiser, np.ndarray]:
    """Fit an :class:`MlpDenoiser` by stochastic noise-prediction regression.

    ``x`` is an (n, d) array of training points and ``conditions`` holds one
    :class:`ConditionId` or ``None`` per point (``None`` for all: an
    unconditional denoiser).  Each step draws a batch of points, log-SNRs
    from ``sampler`` (each draw weighted equally in the loss) and fresh noise,
    and minimizes the mean squared error of the noise prediction with Adam.

    Returns the trained denoiser and the per-step loss trace.
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise ValueError(f"the dataset must be a non-empty (n, d) array, got shape {xs.shape}")
    n, d = xs.shape
    conditions = [None] * n if conditions is None else list(conditions)
    if len(conditions) != n:
        raise ValueError(f"got {len(conditions)} conditions for {n} points")
    vocab = sorted({t for c in conditions if c is not None for t in c.tokens})
    cond_rows = _multi_hot(conditions, vocab)

    rng = np.random.default_rng(seed)
    widths = (d + 2 * config.n_frequencies + len(vocab),) + tuple(config.hidden) + (d,)
    shapes = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        shapes += [(fan_in, fan_out), (fan_out,)]
    flat_params, flat_grads, m, v = np.zeros((4, sum(math.prod(s) for s in shapes)))
    params, grads = _views(flat_params, shapes), _views(flat_grads, shapes)
    for w in params[::2]:
        w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[0])
    layers = list(zip(params[::2], params[1::2]))
    n_hidden = len(config.hidden)
    trace = np.empty(config.n_steps)
    batch_sampler = LogSnrSampler(sampler.loc, sampler.scale, sampler.clip, config.batch_size)

    for step in range(1, config.n_steps + 1):
        idx = rng.integers(0, n, config.batch_size)
        x = xs[idx]
        cond = cond_rows[idx].copy()
        if vocab and config.condition_drop > 0:
            drop = rng.random(config.batch_size) < config.condition_drop
            cond[drop] = 0.0
        alphas = batch_sampler.sample(rng)[0]
        eps = rng.standard_normal((config.batch_size, d))
        x_a = corrupt(x, alphas, eps)
        acts = _forward(layers, _features(x_a, alphas, cond, config.n_frequencies, FREQUENCY_BASE))
        err = acts[-1] - eps
        loss = float((err**2).mean())
        trace[step - 1] = loss
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"non-finite loss {loss!r} at step {step}: "
                f"batch |x| max {np.abs(x).max()!r}, alpha range "
                f"[{alphas.min()!r}, {alphas.max()!r}]"
            )

        g = 2.0 * err / err.size
        grads[2 * n_hidden][...] = acts[-2].T @ g
        grads[2 * n_hidden + 1][...] = g.sum(axis=0)
        for i in range(n_hidden - 1, -1, -1):
            g = (g @ params[2 * (i + 1)].T) * (1.0 - acts[i + 1] ** 2)
            grads[2 * i][...] = acts[i].T @ g
            grads[2 * i + 1][...] = g.sum(axis=0)

        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * flat_grads
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * flat_grads * flat_grads
        m_hat = m / (1 - ADAM_BETA1**step)
        v_hat = v / (1 - ADAM_BETA2**step)
        flat_params -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    denoiser = MlpDenoiser(layers, dim=d, vocabulary=vocab, n_frequencies=config.n_frequencies)
    return denoiser, trace
