"""Trainable noise predictor: a small fully-connected network fit with Adam.

The network regresses eps from the concatenation of the corrupted point, a
fixed sinusoidal embedding of the log-SNR, and a multi-hot encoding of the
condition tokens (all zeros when unconditional).  A fraction of each batch is
trained with the condition encoding zeroed out, so a single network serves
both the conditional and the unconditional estimator terms.

Training and ``predict_eps`` build their inputs with ``_features``, which
takes the sines and cosines once per run of equal log-SNRs.  Training runs
them through ``_forward``, which keeps every activation for backpropagation.
``predict_eps`` splits the first layer at the condition: the product of
``[x_a, sin, cos]`` with that layer's rows for them is formed once a call;
each entry adds its tokens' rows and the bias, kept per single condition,
and the later layers run through ``_forward``.  Adam uses the fixed
constants ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS`` and updates one flat
buffer, of which the layer weights are views.

Training runs in blocks of steps.  A block draws the batch indices, the
condition-drop mask, the log-SNRs and the noise of all its steps at once,
corrupts them with one ``corrupt`` call and builds their network inputs into
one reused array; each step then runs only the forward pass, a backward pass
into kept work arrays and the Adam update.  A block holds ``BLOCK_ROWS``
training rows, which is 32 steps of the default batch of 128.  It is a fixed
row budget, not an option, because the block arrays are what blocks cost in
memory: at 22 inputs a row, the benchmark's shape, they and their
temporaries take about 2 MB, and a 250-step block took about 16 MB.

Adam is applied in the efficient form of Kingma & Ba (arXiv 1412.6980, §2):
both bias corrections fold into the scalar step size
``alpha_t = alpha * sqrt(1 - beta2**t) / (1 - beta1**t)`` and the scaled
``eps_t = eps * sqrt(1 - beta2**t)``, so the update
``alpha_t * m / (sqrt(v) + eps_t)`` is the textbook
``alpha * m_hat / (sqrt(v_hat) + eps)`` without the two corrected buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import LogSnrSampler, corrupt
from .denoise import ConditionId, as_batch, distinct_rows, is_per_row

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
FREQUENCY_BASE = 0.25
# Training rows drawn and featurized at once: 32 steps of a batch of 128.
BLOCK_ROWS = 4096


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
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.condition_drop <= 1.0:
            raise ValueError(f"condition_drop must lie in [0, 1], got {self.condition_drop}")


def _multi_hot(conditions, vocabulary) -> np.ndarray:
    """One row per condition, 1.0 at each of its tokens; ``None`` gives a zero row.

    Each distinct condition is encoded once and its row gathered, so a
    per-row list costs one encoding per distinct condition, not one per row.
    """
    for condition in conditions:  # before hashing: an unhashable condition is no ConditionId
        if condition is not None and not isinstance(condition, ConditionId):
            raise TypeError(f"expected ConditionId or None, got {type(condition).__name__}")
    lookup = {token: i for i, token in enumerate(vocabulary)}
    distinct, index = distinct_rows(conditions)
    rows = np.zeros((len(distinct), len(vocabulary)))
    for row, condition in zip(rows, distinct):
        if condition is None:
            continue
        for token in condition.tokens:
            if token not in lookup:
                raise ValueError(
                    f"unknown condition token {token!r}; vocabulary is {list(vocabulary)}"
                )
            row[lookup[token]] = 1.0
    return rows[index]


def _frequencies(n_frequencies, base) -> np.ndarray:
    """The geometrically spaced embedding frequencies ``base * 2**j``, j < ``n_frequencies``."""
    return base * 2.0 ** np.arange(n_frequencies)


def _features(x_a, alphas, cond, frequencies, out=None) -> np.ndarray:
    """Network input rows ``[x_a, sin(angles), cos(angles), cond]`` on the last axis,
    written into ``out`` if given; without the ``cond`` columns when it is ``None``.

    The angles are the log-SNR times each of ``frequencies``.  The leading
    axes are the rows': (n,) for a batch, (steps, batch) for a training block.
    The sines and cosines are taken once per run of bit-equal log-SNRs in
    row order: the estimators repeat each log-SNR over its noise draws.
    """
    flat = np.ravel(alphas)
    starts = np.flatnonzero(np.diff(flat.view(np.int64), prepend=~flat[:1].view(np.int64)))
    angles = flat[starts, None] * frequencies
    waves = [np.sin(angles), np.cos(angles)]
    # Training's log-SNRs all differ: spreading them anyway cost 0.4 ms a block (2-vCPU x86).
    if starts.size < flat.size:
        runs = np.diff(starts, append=flat.size)
        waves = [np.repeat(w, runs, axis=0) for w in waves]
    shape = (*x_a.shape[:-1], frequencies.size)  # not -1: an empty batch has no rows to infer it from
    columns = [x_a, *(w.reshape(shape) for w in waves)]
    return np.concatenate(columns if cond is None else [*columns, cond], axis=-1, out=out)


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
        self._layer_inputs = (-1, [])  # (rows, arrays) reused by predict_eps, see _input_arrays
        self._token_rows = {}  # condition -> its token rows of the first layer plus the bias
        expected = self._dim + 2 * self.n_frequencies + len(self.vocabulary)
        if self.layers[0][0].shape[0] != expected:
            raise ValueError(
                f"first layer expects {self.layers[0][0].shape[0]} inputs "
                f"but the feature layout has {expected}"
            )
        if self.layers[-1][0].shape[1] != self._dim:
            raise ValueError("output layer width must match the data dimension")
        self._frequencies = _frequencies(self.n_frequencies, self.frequency_base)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def layer_widths(self) -> tuple[int, ...]:
        return tuple(w.shape[0] for w, _ in self.layers) + (self.layers[-1][0].shape[1],)

    def check_condition(self, condition) -> None:
        """Raise ``ValueError`` unless every token of ``condition`` is in the vocabulary."""
        _multi_hot([condition], self.vocabulary)

    def predict_eps(self, x_alpha, alpha, *entries) -> np.ndarray:
        x2, a = as_batch(x_alpha, alpha, self._dim)
        entries, n = entries or (None,), a.size
        data, product, *hidden = self._input_arrays(n)
        (w, b), n_data = self.layers[0], data.shape[1]
        np.matmul(_features(x2, a, None, self._frequencies, out=data), w[:n_data], out=product)
        eps = np.empty((len(entries) * n, self._dim))
        for e, entry in enumerate(entries):
            tokens = self._token_rows.get(entry) if entry is None or isinstance(entry, ConditionId) else None
            if tokens is None:  # a per-row list, or a condition stored once it validates
                per_row = is_per_row(entry, n)
                tokens = _multi_hot(entry if per_row else [entry], self.vocabulary) @ w[n_data:] + b
                if not per_row:
                    self._token_rows[entry] = tokens
            # The first layer: the shared product, plus the entry's token rows and the bias.
            h = np.add(product, tokens, out=hidden[0] if hidden else None)
            if hidden:
                np.tanh(h, out=h)
                h = _forward(self.layers[1:], h, hidden[1:])[-1]
            eps[e * n : (e + 1) * n] = h
        return eps

    def _input_arrays(self, n_rows) -> list[np.ndarray]:
        """Arrays for ``n_rows`` rows, kept while the batch size repeats: the data and
        log-SNR features, their product with the first layer, and one per hidden layer.

        A batch of a few hundred to a few thousand rows makes layer inputs of
        a few hundred KB.  Allocated afresh on every call, they can make glibc
        trim the heap when they are freed and grow it again on the next call,
        at the cost of a page fault per page.
        """
        if self._layer_inputs[0] != n_rows:
            n_data = self._dim + 2 * self.n_frequencies
            widths = [n_data] + [w.shape[1] for w, _ in self.layers[:1] + self.layers[:-1]]
            self._layer_inputs = (n_rows, [np.empty((n_rows, width)) for width in widths])
        return self._layer_inputs[1]


def _views(buffer, shapes) -> list[np.ndarray]:
    """Consecutive slices of the flat ``buffer``, reshaped to ``shapes``."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(buffer, ends[:-1]), shapes)]


def _gradients(layers, acts, err, grads, work, ones) -> None:
    """Backpropagate the loss ``mean(err**2)`` into ``grads``, one array per weight and bias.

    ``acts`` are the activations :func:`_forward` returned and ``err`` the
    output minus its target, which is overwritten.  ``work`` holds two arrays
    per hidden layer, shaped like its activations: the error signal and the
    tanh slope.  ``ones`` holds one 1.0 per row: the bias gradients, sums
    over the rows, are taken as products with it, one BLAS call each, which
    costs less than ``np.sum(axis=0)``.
    """
    g = err
    g *= 2.0 / g.size
    for i in range(len(layers) - 1, -1, -1):
        np.matmul(acts[i].T, g, out=grads[2 * i])
        np.matmul(ones, g, out=grads[2 * i + 1])
        if i:
            signal, slope = work[i - 1]
            np.matmul(g, layers[i][0].T, out=signal)
            np.multiply(acts[i], acts[i], out=slope)
            np.subtract(1.0, slope, out=slope)
            signal *= slope
            g = signal


def _adam_step(params, grads, m, v, step, learning_rate, work) -> None:
    """Adam's update number ``step`` (from 1) of the flat ``params``, in place, in the
    folded form of the module docstring; ``work`` is an array shaped like ``params``."""
    np.multiply(grads, 1.0 - ADAM_BETA1, out=work)
    m *= ADAM_BETA1
    m += work
    np.multiply(grads, grads, out=work)
    work *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += work
    root = math.sqrt(1.0 - ADAM_BETA2**step)
    np.sqrt(v, out=work)
    work += ADAM_EPS * root
    np.divide(m, work, out=work)
    work *= learning_rate * root / (1.0 - ADAM_BETA1**step)
    params -= work


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
    unconditional denoiser).  Each step takes a batch of points, log-SNRs
    from ``sampler`` (each draw weighted equally in the loss) and fresh noise,
    and minimizes the mean squared error of the noise prediction with Adam.

    The draws come a block of steps at a time (see the module docstring):
    for each block, in this order, the batch indices, the condition-drop mask
    (when there are conditions to drop), the log-SNRs from one ``sampler``
    call and the noise.  A given seed gives the same result on every run.

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
    flat_params, flat_grads, m, v, adam_work = np.zeros((5, sum(math.prod(s) for s in shapes)))
    params, grads = _views(flat_params, shapes), _views(flat_grads, shapes)
    for w in params[::2]:
        w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[0])
    layers = list(zip(params[::2], params[1::2]))

    batch, n_steps = config.batch_size, config.n_steps
    block = max(1, BLOCK_ROWS // batch)
    frequencies = _frequencies(config.n_frequencies, FREQUENCY_BASE)
    feats = np.empty((min(block, n_steps), batch, widths[0]))
    hidden = [np.empty((batch, width)) for width in config.hidden]
    work = [(np.empty_like(h), np.empty_like(h)) for h in hidden]
    ones = np.ones(batch)
    drop = bool(vocab) and config.condition_drop > 0
    trace = np.empty(n_steps)

    # A diverging run fails the finiteness check on its loss, which raises
    # TrainingDivergedError; numpy's warnings on the way there would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, block):
            nb = min(block, n_steps - start)
            idx = rng.integers(0, n, (nb, batch))
            cond = cond_rows[idx]
            if drop:
                cond[rng.random((nb, batch)) < config.condition_drop] = 0.0
            alphas = replace(sampler, n_draws=nb * batch).sample(rng)[0].reshape(nb, batch)
            eps = rng.standard_normal((nb, batch, d))
            x = xs[idx]
            _features(corrupt(x, alphas, eps), alphas, cond, frequencies, out=feats[:nb])
            for j in range(nb):
                step = start + j + 1
                acts = _forward(layers, feats[j], hidden)
                err = acts[-1]
                err -= eps[j]
                flat_err = err.ravel()
                loss = float(flat_err @ flat_err) / flat_err.size
                trace[step - 1] = loss
                if not math.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite loss {loss!r} at step {step}: "
                        f"batch |x| max {float(np.abs(x[j]).max())!r}, alpha range "
                        f"[{float(alphas[j].min())!r}, {float(alphas[j].max())!r}]"
                    )
                _gradients(layers, acts, err, grads, work, ones)
                _adam_step(flat_params, flat_grads, m, v, step, config.learning_rate, adam_work)

    denoiser = MlpDenoiser(layers, dim=d, vocabulary=vocab, n_frequencies=config.n_frequencies)
    return denoiser, trace
