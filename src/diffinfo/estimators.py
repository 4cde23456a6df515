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
list of K conditions costs one unconditional pass and K conditional ones,
and each report equals, bit for bit, the one a single-condition call on the
same seed gives.  Each report carries the truncation interval the integral
was taken over; contributions outside it are defined to be zero.

:func:`nll` also takes a whole dataset, an (n, d) array, and returns one
report per point.  Point i draws from child i of one
``seed_sequence(seed).spawn(n)``, so its report is the one a one-point call
on that child gives, bit for bit, whenever the denoiser's output for a row
does not depend on the rest of its batch.  Both denoisers here have that
property at the usual hundreds of rows a point.  With only one or two rows a
point, numpy and BLAS may evaluate the small products of a one-point call
another way, and the two reports can then differ in the last bits.  The
points go through in chunks of at most ``NLL_CHUNK_ELEMENTS`` denoiser-input
elements (rows times d), or of one point when its rows alone exceed that,
each chunk with one ``corrupt`` and one denoiser call; that removes most of
the per-point overhead.  A chunk only holds points with the same condition,
so the denoiser is always called with one condition, never a per-row list,
and a mixture evaluates only the components that condition selects.  Chunks
stay small because past about ten thousand rows the arrays a chunk makes no
longer fit in the processor's cache, and a pass slows again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import LogSnrSampler, corrupt, signal_weight
from .denoise import distinct_rows, is_per_row

ESTIMATOR_KINDS = ("nll", "pointwise_s", "pointwise_o", "mi", "cmi")

LOG_2PI_E = math.log(2.0 * math.pi * math.e)

# Denoiser-input elements (rows x d) per chunk of points in nll.  On the
# nll-wide benchmark's estimate (3072 points at d = 2, 800 rows a point; one
# core of a 2-vCPU x86 host, median of 5), a chunk of 800 rows took 1.75 s,
# 3,200 rows 1.21 s, 6,400 rows 1.06 s, 8,000 rows (this budget) 0.95 s,
# 12,800 rows 0.97 s and 25,600 rows 1.19 s: past about ten thousand rows the
# arrays of a chunk no longer fit in cache.
NLL_CHUNK_ELEMENTS = 2**14


@dataclass(frozen=True, eq=False)
class InfoReport:
    """A Monte-Carlo information estimate with its per-dimension breakdown.

    ``per_dim`` always sums to ``total`` (to 1e-9 relative tolerance, checked
    at construction).  ``std_error`` is the sample standard deviation of the
    per-draw (or per-sample, for averaged estimators) contributions divided
    by the square root of their count, and ``None`` when it cannot be
    estimated because there is only one.  All values are in nats; use
    :meth:`to_bits` for bits.
    """

    total: float
    per_dim: np.ndarray
    std_error: float | None
    n_snr_draws: int
    n_eps_draws: int
    estimator_kind: str
    alpha_interval: tuple[float, float]
    n_samples: int = 1

    def __post_init__(self):
        if self.estimator_kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.estimator_kind!r}")
        per_dim = np.asarray(self.per_dim, dtype=float)
        per_dim.flags.writeable = False
        object.__setattr__(self, "per_dim", per_dim)
        object.__setattr__(self, "total", float(self.total))
        if math.isfinite(self.total):
            gap = abs(per_dim.sum() - self.total)
            if gap > 1e-9 * max(1.0, abs(self.total)):
                raise ValueError(
                    f"per_dim sums to {per_dim.sum()!r} but total is {self.total!r}"
                )

    def to_bits(self) -> "InfoReport":
        """The same report with total, per_dim and std_error converted to bits."""
        ln2 = math.log(2.0)
        return replace(
            self,
            total=self.total / ln2,
            per_dim=self.per_dim / ln2,
            std_error=None if self.std_error is None else self.std_error / ln2,
        )


def seed_sequence(seed) -> np.random.SeedSequence:
    """Coerce an int (or pass through a SeedSequence) for deterministic spawning."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        raise TypeError("need a reusable seed (int or SeedSequence), not a Generator")
    return np.random.SeedSequence(seed)


def _draws(sampler: LogSnrSampler, n_eps: int, dim: int, seed):
    """Shared draw routine; the draw order never depends on the condition."""
    if n_eps < 1:
        raise ValueError(f"n_eps must be at least 1, got {n_eps}")
    rng = np.random.default_rng(seed)
    alphas, weights = sampler.sample(rng)
    eps = rng.standard_normal((alphas.size, n_eps, dim))
    return alphas, weights, eps


def _predict(denoiser, x_a, alphas, condition):
    """Predictions for ``x_a`` of shape (..., n_eps, d), one log-SNR per entry of ``alphas`` (...)."""
    n_eps, d = x_a.shape[-2:]
    flat = denoiser.predict_eps(x_a.reshape(-1, d), np.repeat(alphas.ravel(), n_eps), condition)
    return np.asarray(flat).reshape(x_a.shape)


def _finalize(contrib, kind, sampler, n_eps):
    """One report per point from contributions of shape (points, draws, d); overflow reads +inf."""
    n_points, n, d = contrib.shape
    per_dim = contrib.mean(axis=1)
    if kind == "nll":
        per_dim = 0.5 * LOG_2PI_E - per_dim
    finite = np.isfinite(per_dim).all(axis=1)
    std_error = [None] * n_points
    if n > 1:
        per_alpha = contrib.sum(axis=2)
        per_alpha[~finite] = 0.0  # an overflowed point's error is +inf, set below
        std_error = (per_alpha.std(axis=1, ddof=1) / math.sqrt(n)).tolist()
    reports = []
    for row, total, se, ok in zip(per_dim, per_dim.sum(axis=1).tolist(), std_error, finite.tolist()):
        if not ok:
            row, total, se = np.full(d, math.inf), math.inf, math.inf
        reports.append(
            InfoReport(
                total=total,
                per_dim=row,
                std_error=se,
                n_snr_draws=sampler.n_draws,
                n_eps_draws=n_eps,
                estimator_kind=kind,
                alpha_interval=sampler.support,
            )
        )
    return reports


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


def _check_point(denoiser, x):
    rows, single = _check_points(denoiser, x)
    if not single:
        raise ValueError(f"x must be a vector, got shape {rows.shape}")
    return rows[0]


def nll(
    denoiser,
    x,
    sampler: LogSnrSampler = LogSnrSampler(),
    n_eps: int = 4,
    seed=0,
    condition=None,
) -> InfoReport | list[InfoReport]:
    """Estimate -log p(x) in nats (conditional when ``condition`` is given).

    ``x`` is one point, a vector, or a dataset of shape (n, d), which gives a
    list of n reports.  A vector draws from ``seed`` as it is; row i of a
    dataset draws from ``seed_sequence(seed).spawn(n)[i]``, so its report
    equals a one-point call on that child (bit for bit, with the exception the
    module docstring gives).  ``condition`` is one condition for every point,
    or a list or tuple with one per point; any payload the denoiser accepts
    will do.

    The points are grouped by condition (equal conditions together; in a list
    holding an unhashable payload, such as an array, by identity), and each
    group is evaluated in chunks of at most ``NLL_CHUNK_ELEMENTS``
    denoiser-input elements, each with one ``corrupt`` and one denoiser call
    under that single condition; a point whose own rows exceed the budget gets
    a chunk to itself.  The reports come back in the order of ``x``.

    The per-dimension vector splits both the d/2 log(2 pi e) constant and the
    integrand coordinate-wise, so it sums to the total.  A source with
    (near-)zero variance makes the integral diverge; an overflowing estimate
    is reported as +inf rather than NaN, without touching the other points.
    """
    xs, single = _check_points(denoiser, x)
    n, d = xs.shape
    conditions = list(condition) if is_per_row(condition, n) else [condition] * n
    if n_eps < 1:
        raise ValueError(f"n_eps must be at least 1, got {n_eps}")
    seeds = [seed] if single else seed_sequence(seed).spawn(n)
    step = max(1, NLL_CHUNK_ELEMENTS // (sampler.n_draws * n_eps * d))
    reports = [None] * n
    for group in _condition_groups(conditions):
        for start in range(0, group.size, step):
            chunk = group[start : start + step]
            found = _nll_chunk(
                denoiser, xs[chunk], sampler, n_eps, [seeds[i] for i in chunk], conditions[chunk[0]]
            )
            for i, report in zip(chunk.tolist(), found):
                reports[i] = report
    return reports[0] if single else reports


def _condition_groups(conditions):
    """Indices of the points with each distinct condition, in order of first appearance.

    A list holding an unhashable payload, such as an array, is grouped by
    identity instead.
    """
    try:
        _, index = distinct_rows(conditions)
    except TypeError:
        _, index = distinct_rows([id(c) for c in conditions])
    order = np.argsort(index, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(np.sort(index))) + 1)


def _nll_chunk(denoiser, xs, sampler, n_eps, seeds, condition):
    """Reports for the points ``xs`` (p, d), one seed each, all under ``condition``."""
    draws = [_draws(sampler, n_eps, xs.shape[1], s) for s in seeds]
    alphas, weights, eps = (np.stack(arrays) for arrays in zip(*draws))
    x_a = corrupt(xs[:, None, None, :], alphas[..., None], eps)
    eps_hat = _predict(denoiser, x_a, alphas, condition)
    mse = ((eps - eps_hat) ** 2).mean(axis=2)
    contrib = weights[..., None] * 0.5 * (signal_weight(alphas)[..., None] - mse)
    return _finalize(contrib, "nll", sampler, n_eps)


def _pointwise(uncond, cond, x, condition, sampler, n_eps, seed, kind, uncond_condition):
    """One report per condition on shared draws; a list or tuple gives a list."""
    many = isinstance(condition, (list, tuple))
    conditions = condition if many else [condition]
    if not conditions:
        raise ValueError("need at least one condition")
    x = _check_point(uncond, x)
    if cond.dim != uncond.dim:
        raise ValueError(
            f"dimension mismatch: unconditional denoiser has dimension {uncond.dim} "
            f"but conditional has dimension {cond.dim}"
        )
    alphas, weights, eps = _draws(sampler, n_eps, x.shape[0], seed)
    x_a = corrupt(x, alphas[:, None], eps)
    eps_u = _predict(uncond, x_a, alphas, uncond_condition)
    contribs = []
    for c in conditions:
        eps_c = _predict(cond, x_a, alphas, c)
        if kind == "pointwise_o":
            integrand = (eps_u - eps_c) ** 2
        else:
            integrand = (eps - eps_u) ** 2 - (eps - eps_c) ** 2
        contribs.append(weights[:, None] * 0.5 * integrand.mean(axis=1))
    reports = _finalize(np.stack(contribs), kind, sampler, n_eps)
    return reports if many else reports[0]


def pointwise_s(
    uncond,
    cond,
    x,
    condition,
    sampler: LogSnrSampler = LogSnrSampler(),
    n_eps: int = 4,
    seed=0,
    uncond_condition=None,
) -> InfoReport | list[InfoReport]:
    """Pointwise information of (x, condition): the log-likelihood-ratio form.

    Estimates log p(x|y) - log p(x) as the integrated reduction in squared
    denoising error from conditioning.  Can be negative: a condition that
    makes x less likely is misinformative.

    A list or tuple of conditions gives a list of reports, one per condition,
    all on the same draws and one shared unconditional prediction; an empty
    one raises ``ValueError``.
    """
    return _pointwise(
        uncond, cond, x, condition, sampler, n_eps, seed, "pointwise_s", uncond_condition
    )


def pointwise_o(
    uncond,
    cond,
    x,
    condition,
    sampler: LogSnrSampler = LogSnrSampler(),
    n_eps: int = 4,
    seed=0,
    uncond_condition=None,
) -> InfoReport | list[InfoReport]:
    """Pointwise information of (x, condition): the orthogonality form.

    Integrates the squared difference between the conditional and
    unconditional predictions.  Non-negative by construction, equal to
    :func:`pointwise_s` in expectation over the joint distribution, and lower
    variance on the same draws.  A list or tuple of conditions gives a list
    of reports, as for :func:`pointwise_s`.
    """
    return _pointwise(
        uncond, cond, x, condition, sampler, n_eps, seed, "pointwise_o", uncond_condition
    )


def aggregate_reports(reports, kind, sampler, n_eps) -> InfoReport:
    """Average per-sample pointwise reports into a dataset-level estimate.

    The standard error is the spread of the per-sample totals, which covers
    both the between-sample variance and each sample's Monte-Carlo noise.
    """
    totals = np.array([r.total for r in reports])
    per_dim = np.mean([r.per_dim for r in reports], axis=0)
    if len(reports) > 1:
        std_error = float(totals.std(ddof=1) / math.sqrt(len(reports)))
    else:
        std_error = reports[0].std_error
    return InfoReport(
        total=float(per_dim.sum()),
        per_dim=per_dim,
        std_error=std_error,
        n_snr_draws=sampler.n_draws,
        n_eps_draws=n_eps,
        estimator_kind=kind,
        alpha_interval=sampler.support,
        n_samples=len(reports),
    )


def pointwise_dataset(
    uncond,
    cond,
    dataset,
    sampler: LogSnrSampler = LogSnrSampler(),
    estimator_kind: str = "pointwise_o",
    n_eps: int = 4,
    seed=0,
    condition_on_context: bool = False,
) -> list[InfoReport]:
    """Per-sample pointwise reports with an independent draw stream per sample.

    With ``condition_on_context`` the unconditional side sees each sample's
    ``context`` payload, turning the pointwise quantity into its
    context-conditional variant.
    """
    if not dataset:
        raise ValueError("dataset is empty")
    if any(s.condition is None for s in dataset):
        raise ValueError("every sample must carry a condition")
    if estimator_kind not in ("pointwise_s", "pointwise_o"):
        raise ValueError(f"estimator_kind must be pointwise_s or pointwise_o, got {estimator_kind!r}")
    estimate = {"pointwise_s": pointwise_s, "pointwise_o": pointwise_o}[estimator_kind]
    children = seed_sequence(seed).spawn(len(dataset))
    return [
        estimate(
            uncond,
            cond,
            s.x,
            s.condition,
            sampler,
            n_eps,
            child,
            s.context if condition_on_context else None,
        )
        for s, child in zip(dataset, children)
    ]


def mi(
    uncond,
    cond,
    dataset,
    sampler: LogSnrSampler = LogSnrSampler(),
    estimator_kind: str = "pointwise_o",
    n_eps: int = 4,
    seed=0,
) -> InfoReport:
    """Mutual information: the dataset average of pointwise estimates.

    Every sample must carry a condition; each gets an independent draw stream
    spawned from ``seed``.
    """
    reports = pointwise_dataset(uncond, cond, dataset, sampler, estimator_kind, n_eps, seed)
    return aggregate_reports(reports, "mi", sampler, n_eps)


def cmi(
    denoiser_full,
    denoiser_ctx,
    dataset,
    sampler: LogSnrSampler = LogSnrSampler(),
    estimator_kind: str = "pointwise_o",
    n_eps: int = 4,
    seed=0,
) -> InfoReport:
    """Conditional mutual information: both denoisers conditioned on the context.

    ``denoiser_full`` sees each sample's ``condition`` (the label together
    with its context) and ``denoiser_ctx`` sees the sample's ``context``
    alone; otherwise identical to :func:`mi`.
    """
    reports = pointwise_dataset(
        denoiser_ctx,
        denoiser_full,
        dataset,
        sampler,
        estimator_kind,
        n_eps,
        seed,
        condition_on_context=True,
    )
    return aggregate_reports(reports, "cmi", sampler, n_eps)
