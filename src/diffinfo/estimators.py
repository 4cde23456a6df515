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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import LogSnrSampler, corrupt, signal_weight

ESTIMATOR_KINDS = ("nll", "pointwise_s", "pointwise_o", "mi", "cmi")

LOG_2PI_E = math.log(2.0 * math.pi * math.e)


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
    n, n_eps, d = x_a.shape
    flat = denoiser.predict_eps(x_a.reshape(n * n_eps, d), np.repeat(alphas, n_eps), condition)
    return np.asarray(flat).reshape(n, n_eps, d)


def _finalize(contrib, constant_per_dim, kind, sampler, n_eps, n_samples=1):
    """Turn per-(alpha, dim) contributions into a report, flagging overflow as +inf."""
    per_dim = constant_per_dim - contrib.mean(axis=0) if kind == "nll" else contrib.mean(axis=0)
    per_alpha = contrib.sum(axis=1)
    if not np.all(np.isfinite(per_dim)):
        per_dim = np.full(contrib.shape[1], math.inf)
        std_error = math.inf
    else:
        n = per_alpha.shape[0]
        std_error = float(per_alpha.std(ddof=1) / math.sqrt(n)) if n > 1 else None
    return InfoReport(
        total=float(per_dim.sum()),
        per_dim=per_dim,
        std_error=std_error,
        n_snr_draws=sampler.n_draws,
        n_eps_draws=n_eps,
        estimator_kind=kind,
        alpha_interval=sampler.support,
        n_samples=n_samples,
    )


def _check_point(denoiser, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1:
        raise ValueError(f"x must be a vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x must be finite, got {x!r}")
    if x.shape[0] != denoiser.dim:
        raise ValueError(
            f"dimension mismatch: denoiser has dimension {denoiser.dim} "
            f"but x has dimension {x.shape[0]}"
        )
    return x


def nll(
    denoiser,
    x,
    sampler: LogSnrSampler = LogSnrSampler(),
    n_eps: int = 4,
    seed=0,
    condition=None,
) -> InfoReport:
    """Estimate -log p(x) in nats (conditional when ``condition`` is given).

    The per-dimension vector splits both the d/2 log(2 pi e) constant and the
    integrand coordinate-wise, so it sums to the total.  A source with
    (near-)zero variance makes the integral diverge; overflowing estimates
    are reported as +inf rather than NaN.
    """
    x = _check_point(denoiser, x)
    alphas, weights, eps = _draws(sampler, n_eps, x.shape[0], seed)
    x_a = corrupt(x, alphas[:, None], eps)
    eps_hat = _predict(denoiser, x_a, alphas, condition)
    mse = ((eps - eps_hat) ** 2).mean(axis=1)
    contrib = weights[:, None] * 0.5 * (signal_weight(alphas)[:, None] - mse)
    return _finalize(contrib, 0.5 * LOG_2PI_E, "nll", sampler, n_eps)


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
    reports = []
    for c in conditions:
        eps_c = _predict(cond, x_a, alphas, c)
        if kind == "pointwise_o":
            integrand = (eps_u - eps_c) ** 2
        else:
            integrand = (eps - eps_u) ** 2 - (eps - eps_c) ** 2
        contrib = weights[:, None] * 0.5 * integrand.mean(axis=1)
        reports.append(_finalize(contrib, 0.0, kind, sampler, n_eps))
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
