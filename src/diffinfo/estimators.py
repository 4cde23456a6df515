"""Monte-Carlo information estimates from denoising-error integrals.

Every estimate is a one-dimensional integral over log-SNR of an expected
squared denoising error, evaluated by importance sampling from a
:class:`~diffinfo.channel.LogSnrSampler` (writing I[g] for the integral of g
over the sampler's interval, and eps_hat for the denoiser output):

    -log p(x)  =  d/2 log(2 pi e) - 1/2 I[ d sigma(a) - E|eps - eps_hat(x_a)|^2 ]
    i_s(x; y)  =  1/2 I[ E|eps - eps_hat(x_a)|^2 - E|eps - eps_hat(x_a|y)|^2 ]
    i_o(x; y)  =  1/2 I[ E|eps_hat(x_a) - eps_hat(x_a|y)|^2 ]

The first line is the Gaussian-channel density identity written in log-SNR
form: substituting gamma = exp(a) turns the usual d/(1+gamma) dgamma term
into d sigma(a) da, and the signal-estimation error into the noise-estimation
error (the two differ by the factor gamma, which the change of measure
absorbs).  i_s is the pointwise log-likelihood ratio
log p(x|y) - log p(x); i_o averages to the same mutual information because
the conditional estimator's error is orthogonal to any function of (x_a, y),
is non-negative term by term, and has lower variance.  Both decompose
coordinate-wise, which is what the ``per_dim`` field reports.

The conditional and unconditional denoisers always see the same (a, eps)
draws (common random numbers): this lets i_o be evaluated as a single squared
difference and removes shared noise from i_s.  Several conditions for one
point share those draws too, and with them the unconditional prediction: a
list or tuple of K candidates gives one estimate per candidate, from one
denoiser call that carries the unconditional entry and every candidate.
Each report carries the truncation interval the integral was taken over;
contributions outside it are defined to be zero.

Every kind takes a vector or an (n, d) dataset through one pass and returns
one :class:`InfoReport` whose arrays run over the estimates: ``total``
and ``std_error`` have shape () for a vector, (K,) for a vector with a list
or tuple of K candidates, (n,) for a dataset and (n, K) for a dataset whose
points each carry K candidates; ``per_dim`` adds a trailing d.
``std_error`` is NaN where it cannot be estimated, from a single log-SNR
draw, and an estimate that overflows reads +inf in all three.  A vector
draws from ``seed`` as it is; point i of a dataset from child i of
``seed_sequence(seed).spawn(n)``.  For a dataset, ``condition`` and
``uncond_condition`` are one entry for every point or a list or tuple of one
entry per point (a list is always per point there, so candidates shared by
all points are ``[tuple(candidates)] * n``, and every point's candidate list
must have the same length); an entry is what a vector takes.  The points are
grouped by their (unconditional, conditional) entry pair, and each group goes
through in chunks of at most ``CHUNK_ELEMENTS`` denoiser-input elements,
counting every pass a point makes: rows times d times 1 for nll, 1 + K for K
candidates.  Only the draws run per point: its generator, one
``LogSnrSampler.sample`` and its noise.  A chunk makes one ``corrupt`` call
and one call ``predict_eps(rows, alphas, unconditional entry, *candidates)``
(the candidates alone for nll, one call a side for two denoisers), so a
denoiser can do the work that does not depend on the condition once a chunk,
and forms the squared errors in place in its output.  A point over the budget
gets a chunk to itself, whose calls carry as many entries as fit, at least two.

A point's result is the one-point call's on the same seed, up to how the
denoiser's output for a row depends on the rest of its batch.  For
:class:`~diffinfo.denoise.GmmDenoiser` at hundreds of rows a point it does
not, and the two agree bit for bit.  An MLP agrees to the last bits: a
(64, 64) MLP at d = 2 gives a row the same output in batches of 400 to
6,400 rows but not from 8,000 rows on, an nll chunk there.  At one or two
rows a point, numpy and BLAS may evaluate a one-point call's small products
another way for either denoiser.

A dataset-level mutual information is the average of pointwise estimates:
``aggregate_reports(pointwise_dataset(...), "mi")``, and with the contexts on
the unconditional side, ``"cmi"``.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import LogSnrSampler, corrupt, signal_weight
from .denoise import distinct_rows, is_per_row

ESTIMATOR_KINDS = ("nll", "pointwise_s", "pointwise_o", "mi", "cmi")

LOG_2PI_E = math.log(2.0 * math.pi * math.e)

# Denoiser-input elements (rows x d x passes) per chunk of points.  On the
# nll-wide benchmark's estimate (3072 points at d = 2, 800 rows a point; one
# core of a 2-vCPU x86 host, sizes taken in turn, median of 11 in each of two
# runs), a chunk of 3,200 rows took 0.60-0.87 s, 6,400 rows 0.56-0.75 s,
# 8,192 rows (this budget) 0.53-0.65 s, 12,800 rows 0.50-0.59 s and 25,600
# rows 0.49-0.63 s: a larger chunk gains a few percent at most, and changes
# the output bits of an MLP, whose rows depend on the batch from 8,000 rows on.
CHUNK_ELEMENTS = 2**14


@dataclass(frozen=True, eq=False)
class InfoReport:
    """Monte-Carlo information estimates with their per-dimension breakdown.

    ``per_dim`` holds the estimates' per-dimension terms on a trailing axis
    of length d, and ``total`` is their sum over it.  ``total`` and
    ``std_error`` have the shape given in the module docstring, that of
    ``per_dim`` less its last axis.  ``std_error`` is the sample standard
    deviation of the per-draw (or per-sample, for averaged estimators)
    contributions divided by the square root of their count, and NaN where
    it cannot be estimated because there is only one.  ``n_samples`` is the number of data samples
    each estimate averages.  All values are in nats; use :meth:`to_bits` for
    bits.
    """

    per_dim: np.ndarray
    std_error: np.ndarray
    n_snr_draws: int
    n_eps_draws: int
    estimator_kind: str
    alpha_interval: tuple[float, float]
    n_samples: int = 1

    def __post_init__(self):
        if self.estimator_kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.estimator_kind!r}")
        for name in ("per_dim", "std_error"):
            value = np.asarray(getattr(self, name), dtype=float)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if self.std_error.shape != self.per_dim.shape[:-1]:
            raise ValueError(f"std_error {self.std_error.shape} must be per_dim {self.per_dim.shape} less its last axis")

    @property
    def total(self) -> np.ndarray:
        """The estimates: ``per_dim`` summed over its last axis."""
        return self.per_dim.sum(axis=-1)

    def to_bits(self) -> "InfoReport":
        """The same report with per_dim and std_error, and so total, converted to bits."""
        ln2 = math.log(2.0)
        return replace(self, per_dim=self.per_dim / ln2, std_error=self.std_error / ln2)


def seed_sequence(seed) -> np.random.SeedSequence:
    """Coerce an int, or copy a SeedSequence, for deterministic spawning: the copy spawns
    what ``seed.spawn`` would without advancing ``seed``, so a call repeats."""
    if isinstance(seed, np.random.SeedSequence):
        return copy.copy(seed)
    if isinstance(seed, np.random.Generator):
        raise TypeError("need a reusable seed (int or SeedSequence), not a Generator")
    return np.random.SeedSequence(seed)


def _check_points(denoiser, x):
    """``x`` as rows of shape (n, d), checked, and whether it was a single vector."""
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    rows = np.atleast_2d(x) if single else x
    if rows.ndim != 2:
        raise ValueError(f"x must be a vector or an (n, d) array, got shape {x.shape}")
    if rows.shape[0] == 0:
        raise ValueError(f"x holds no points, got shape {x.shape}")
    if rows.shape[1] != denoiser.dim:
        raise ValueError(
            f"dimension mismatch: denoiser has dimension {denoiser.dim} "
            f"but x has dimension {rows.shape[1]}"
        )
    if not np.isfinite(rows).all():
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))[0]
        raise ValueError(f"x must be finite, but point {bad} is {rows[bad]!r}")
    return rows, single


def nll(
    denoiser,
    x,
    sampler: LogSnrSampler = LogSnrSampler(),
    n_eps: int = 4,
    seed=0,
    condition=None,
) -> InfoReport:
    """Estimate -log p(x) in nats (conditional when ``condition`` is given).

    ``x`` is one point, a vector, or a dataset of shape (n, d), which gives
    n estimates; the module docstring gives the result shapes, the seed rule,
    the forms of ``condition`` and the chunking.  A list or tuple of
    conditions for a vector gives one estimate per condition, all on the
    same draws.

    The per-dimension vector splits both the d/2 log(2 pi e) constant and the
    integrand coordinate-wise, so it sums to the total.  A source with
    (near-)zero variance makes the integral diverge; an overflowing estimate
    is reported as +inf rather than NaN, without touching the other points.
    """
    return _estimate("nll", denoiser, denoiser, x, condition, sampler, n_eps, seed, None)


def _estimate(kind, uncond, cond, x, condition, sampler, n_eps, seed, uncond_condition):
    """The report of ``kind`` for a vector or an (n, d) dataset ``x``; see the module docstring."""
    xs, single = _check_points(uncond, x)
    n, d = xs.shape
    if cond.dim != uncond.dim:
        raise ValueError(
            f"dimension mismatch: unconditional denoiser has dimension {uncond.dim} "
            f"but conditional has dimension {cond.dim}"
        )
    seeds = [seed] if single else seed_sequence(seed).spawn(n)
    conditions, uncond_conditions = (
        list(c) if not single and is_per_row(c, n) else [c] * n for c in (condition, uncond_condition)
    )
    lengths = {len(c) if isinstance(c, (list, tuple)) else None for c in conditions}
    if len(lengths) > 1:
        raise ValueError("every point needs a list of candidates of one common length, or none a list")
    (k,) = lengths
    if k == 0:
        raise ValueError("need at least one condition")
    if n_eps < 1:
        raise ValueError(f"n_eps must be at least 1, got {n_eps}")
    per_dim, std_error = np.empty((n, k or 1, d)), np.empty((n, k or 1))
    for group in _groups(uncond_conditions, conditions):
        entry, uncond_entry = conditions[group[0]], uncond_conditions[group[0]]
        candidates = [entry] if k is None else list(entry)
        passes = len(candidates) + (kind != "nll")
        step = max(1, CHUNK_ELEMENTS // (sampler.n_draws * n_eps * d * passes))
        for start in range(0, group.size, step):
            chunk = group[start : start + step]
            per_dim[chunk], std_error[chunk] = _chunk(
                kind, uncond, cond, xs[chunk], [seeds[i] for i in chunk], sampler, n_eps, uncond_entry, candidates
            )
    shape = (() if single else (n,)) + (() if k is None else (k,))
    return InfoReport(
        per_dim=per_dim.reshape(*shape, d),
        std_error=std_error.reshape(shape),
        n_snr_draws=sampler.n_draws,
        n_eps_draws=n_eps,
        estimator_kind=kind,
        alpha_interval=sampler.support,
    )


def _groups(uncond_conditions, conditions):
    """Indices of the points with each distinct (unconditional, conditional) entry pair.

    The groups come in order of first appearance.  A list of candidates is
    compared as a tuple, and an entry by its hash and equality, so a float
    payload groups by value; an unhashable entry raises ``TypeError``.
    """
    keys = [(u, tuple(c) if isinstance(c, list) else c) for u, c in zip(uncond_conditions, conditions)]
    _, index = distinct_rows(keys)
    order = np.argsort(index, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(np.sort(index))) + 1)


def _chunk(kind, uncond, cond, xs, seeds, sampler, n_eps, uncond_condition, candidates):
    """Per-dimension estimates (p, K, d) and standard errors (p, K) for the points of
    ``xs`` (p, d), one seed each, under each of the K candidates."""
    (p, d), n_snr = xs.shape, sampler.n_draws
    (alphas, weights), eps = np.empty((2, p, n_snr)), np.empty((p, n_snr, n_eps, d))
    for i, seed in enumerate(seeds):  # the draw order never depends on the condition
        rng = np.random.default_rng(seed)
        alphas[i], weights[i] = sampler.sample(rng)
        rng.standard_normal(out=eps[i])
    x_a = corrupt(xs[:, None, None, :], alphas[..., None], eps)
    entries = candidates if kind == "nll" else [uncond_condition, *candidates]
    calls = [(cond, entries)] if kind == "nll" or uncond is cond else [(uncond, entries[:1]), (cond, entries[1:])]
    rows, row_alphas = x_a.reshape(-1, d), np.repeat(alphas.ravel(), n_eps)
    size = max(2, CHUNK_ELEMENTS // rows.size)  # entries a call: all, but for a point over the budget
    passes = (  # (entries, p, draws, n_eps, d) each
        den.predict_eps(rows, row_alphas, *entries[i : i + size]).reshape(-1, *x_a.shape)
        for den, entries in calls
        for i in range(0, len(entries), size)
    )
    if kind != "nll":
        first = next(passes)
        eps_u, passes = first[0], itertools.chain([first[1:]], passes)
        if kind == "pointwise_s":  # shared by every candidate
            err_u = np.square(np.subtract(eps, eps_u, out=eps_u), out=eps_u)
    parts = []
    for out in passes:  # the squared errors, formed in place in the denoiser's output
        np.square(np.subtract(eps_u if kind == "pointwise_o" else eps, out, out=out), out=out)
        if kind == "pointwise_s":
            np.subtract(err_u, out, out=out)
        # numpy's mean over this short axis adds its slices in draw order, but slowly; at d = 1
        # the axis is contiguous and numpy sums it pairwise from 8 draws on, so its mean stays.
        noise = [out[:, :, :, j] for j in range(n_eps)]
        parts.append(out.mean(axis=3) if d == 1 else sum(noise[1:], noise[0]) / n_eps)
    integrand = np.concatenate(parts)  # (candidates, p, draws, d)
    if kind == "nll":
        np.subtract(signal_weight(alphas)[..., None], integrand, out=integrand)
    integrand *= weights[..., None] * 0.5
    # (points x candidates, draws, d); an overflowed estimate reads +inf, its error too.
    contrib = integrand.swapaxes(0, 1).reshape(-1, n_snr, d)
    per_dim = contrib.mean(axis=1)
    if kind == "nll":
        per_dim = 0.5 * LOG_2PI_E - per_dim
    finite = np.isfinite(per_dim).all(axis=1)
    std_error = np.full(per_dim.shape[0], math.nan)
    if contrib.shape[1] > 1:
        per_alpha = contrib.sum(axis=2)
        per_alpha[~finite] = 0.0
        std_error = per_alpha.std(axis=1, ddof=1) / math.sqrt(contrib.shape[1])
    per_dim[~finite] = std_error[~finite] = math.inf
    return per_dim.reshape(len(xs), len(candidates), -1), std_error.reshape(len(xs), -1)


def pointwise_s(
    uncond,
    cond,
    x,
    condition,
    sampler: LogSnrSampler = LogSnrSampler(),
    n_eps: int = 4,
    seed=0,
    uncond_condition=None,
) -> InfoReport:
    """Pointwise information of (x, condition): the log-likelihood-ratio form.

    Estimates log p(x|y) - log p(x) as the integrated reduction in squared
    denoising error from conditioning.  Can be negative: a condition that
    makes x less likely is misinformative.

    A list or tuple of K conditions for a vector gives K estimates, all on
    the same draws and one shared unconditional prediction; an empty one
    raises ``ValueError``.  A dataset ``x`` of shape (n, d) gives n such
    results; the module docstring gives the result shapes and the forms
    ``condition`` and ``uncond_condition`` then take.
    """
    return _estimate("pointwise_s", uncond, cond, x, condition, sampler, n_eps, seed, uncond_condition)


def pointwise_o(
    uncond,
    cond,
    x,
    condition,
    sampler: LogSnrSampler = LogSnrSampler(),
    n_eps: int = 4,
    seed=0,
    uncond_condition=None,
) -> InfoReport:
    """Pointwise information of (x, condition): the orthogonality form.

    Integrates the squared difference between the conditional and
    unconditional predictions.  Non-negative by construction, equal to
    :func:`pointwise_s` in expectation over the joint distribution, and lower
    variance on the same draws.  Takes a vector or a dataset, and a list or
    tuple of candidates, as :func:`pointwise_s` does.
    """
    return _estimate("pointwise_o", uncond, cond, x, condition, sampler, n_eps, seed, uncond_condition)


def aggregate_reports(report, kind) -> InfoReport:
    """Average a dataset's pointwise report over its first axis, the samples, into a
    dataset-level estimate of ``kind`` (``"mi"`` or ``"cmi"``).

    The standard error is the spread of the per-sample totals, which covers
    both the between-sample variance and each sample's Monte-Carlo noise;
    with one sample it is that sample's own.
    """
    n = report.total.shape[0]
    per_dim = report.per_dim.mean(axis=0)
    std_error = report.total.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else report.std_error[0]
    return InfoReport(
        per_dim=per_dim,
        std_error=std_error,
        n_snr_draws=report.n_snr_draws,
        n_eps_draws=report.n_eps_draws,
        estimator_kind=kind,
        alpha_interval=report.alpha_interval,
        n_samples=n,
    )


def pointwise_dataset(
    uncond,
    cond,
    x,
    conditions,
    sampler: LogSnrSampler = LogSnrSampler(),
    estimator_kind: str = "pointwise_o",
    n_eps: int = 4,
    seed=0,
    contexts=None,
) -> InfoReport:
    """Pointwise estimates for every point of the (n, d) dataset ``x``, in one report of shape (n,).

    ``conditions`` holds each point's condition for the conditional side.
    ``contexts``, if given, holds each point's payload for the unconditional
    side, which turns the pointwise quantity into its context-conditional
    variant.  Point i draws from child i of ``seed_sequence(seed).spawn(n)``.
    """
    if np.ndim(x) != 2 or len(x) == 0:
        raise ValueError(f"the dataset must be a non-empty (n, d) array, got shape {np.shape(x)}")
    if any(c is None for c in conditions):
        raise ValueError("every sample must carry a condition")
    if estimator_kind not in ("pointwise_s", "pointwise_o"):
        raise ValueError(f"estimator_kind must be pointwise_s or pointwise_o, got {estimator_kind!r}")
    estimate = {"pointwise_s": pointwise_s, "pointwise_o": pointwise_o}[estimator_kind]
    return estimate(uncond, cond, x, list(conditions), sampler, n_eps, seed, contexts)
