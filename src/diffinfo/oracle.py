"""Closed-form and brute-force ground truth used to validate the estimators.

Everything here is computed independently of the denoiser and estimator code
paths: densities come from explicit formulas or ``scipy.stats``, integrals
from step-halving trapezoid quadrature or plain Monte Carlo.  Quadrature
domains span the component means plus/minus ten maximal standard deviations
per dimension, where Gaussian tails are below 1e-22.

``scipy.stats`` and ``scipy.special`` are imported inside the functions
that use them, not with this module: importing them takes about a second,
and the package imports this module, so an eager import would make every
command pay for it.  The command-line path stays numpy-only, and scipy is
loaded only by the ``oracle`` command and by callers of these functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


class QuadratureError(RuntimeError):
    """Raised when step-halving fails to converge; carries the last two iterates."""

    def __init__(self, message, iterates):
        super().__init__(message)
        self.iterates = tuple(iterates)


@dataclass(frozen=True)
class OracleResult:
    value: float
    method: str
    abs_error_bound: float

    def __post_init__(self):
        if self.method not in ("closed_form", "quadrature", "monte_carlo"):
            raise ValueError(f"unknown oracle method {self.method!r}")
        if self.abs_error_bound < 0:
            raise ValueError("abs_error_bound must be non-negative")


def gaussian_mi(correlation: float) -> OracleResult:
    """Mutual information of a bivariate Gaussian with the given correlation."""
    rho = float(correlation)
    if not abs(rho) < 1:
        raise ValueError(f"|correlation| must be < 1, got {rho}")
    return OracleResult(value=-0.5 * math.log1p(-rho * rho), method="closed_form", abs_error_bound=0.0)


def mmse_gaussian(variance: float, alpha) -> OracleResult:
    """Per-dimension noise-prediction MMSE for N(mu, variance * I) data.

    The posterior-mean predictor leaves error sigma(a) s^2 / (sigma(a) s^2 +
    sigma(-a)) per dimension, which is sigma(a) for unit variance, 0 when the
    source is deterministic, and tends to 1 as a -> +inf (the observation
    becomes pure signal, so the noise is unrecoverable) and to 0 as
    a -> -inf (the observation is the noise itself).
    """
    s2 = float(variance)
    if s2 < 0:
        raise ValueError(f"variance must be non-negative, got {s2}")
    a = float(alpha)
    e = math.exp(-abs(a))  # never overflows, however far out a is
    sa = 1.0 / (1.0 + e) if a >= 0 else e / (1.0 + e)
    sna = 1.0 - sa
    value = sa * s2 / (sa * s2 + sna) if (sa * s2 + sna) > 0 else 0.0
    return OracleResult(value=value, method="closed_form", abs_error_bound=0.0)


def gaussian_pointwise(x, y, joint_covariance) -> OracleResult:
    """Exact log p(x|y) - log p(x) for a zero-mean jointly Gaussian (x, y)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    cov = np.asarray(joint_covariance, dtype=float)
    p = x.shape[0]
    if cov.shape != (p + y.shape[0], p + y.shape[0]):
        raise ValueError(
            f"joint covariance shape {cov.shape} does not match dim(x)+dim(y)={p + y.shape[0]}"
        )
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("joint covariance is singular or not positive definite") from None
    from scipy.stats import multivariate_normal

    joint = multivariate_normal(mean=np.zeros(cov.shape[0]), cov=cov).logpdf(np.concatenate([x, y]))
    marg_x = multivariate_normal(mean=np.zeros(p), cov=cov[:p, :p]).logpdf(x)
    marg_y = multivariate_normal(mean=np.zeros(y.shape[0]), cov=cov[p:, p:]).logpdf(y)
    return OracleResult(value=float(joint - marg_x - marg_y), method="closed_form", abs_error_bound=0.0)


def _label_log_densities(spec, labels, points):
    """Log densities of each label-conditional mixture and the label priors."""
    from scipy.special import logsumexp
    from scipy.stats import multivariate_normal

    comp_logpdf = np.stack(
        [
            multivariate_normal(mean=spec.means[k], cov=spec.covariances[k]).logpdf(points)
            for k in range(spec.n_components)
        ]
    )
    comp_logpdf = np.atleast_2d(comp_logpdf.reshape(spec.n_components, -1))
    log_cond = []
    priors = []
    for token in labels:
        idx = list(spec.condition_map[token])
        w = spec.weights[idx]
        priors.append(w.sum())
        log_cond.append(logsumexp(np.log(w / w.sum())[:, None] + comp_logpdf[idx], axis=0))
    return np.array(priors), np.stack(log_cond)


def gmm_mi_numeric(
    spec,
    labels=None,
    *,
    tol: float = 1e-6,
    initial_nodes: int = 513,
    max_refinements: int = 10,
    mc_samples: int = 200_000,
    seed=0,
) -> OracleResult:
    """I(X; label) for a mixture by brute force.

    Uses step-halving trapezoid quadrature in one or two dimensions,
    refining until successive estimates differ by less than ``tol``;
    higher-dimensional mixtures fall back to Monte Carlo with a reported
    3-standard-error bound.  The label tokens must partition the components.
    """
    labels = sorted(spec.condition_map) if labels is None else list(labels)
    spec.partition(labels)
    if spec.dim > 2:
        return _gmm_mi_monte_carlo(spec, labels, mc_samples, seed)
    from scipy.special import logsumexp

    stds = np.sqrt(np.max([np.diag(c) for c in spec.covariances], axis=0))
    lo = spec.means.min(axis=0) - 10.0 * stds.max()
    hi = spec.means.max(axis=0) + 10.0 * stds.max()

    def integral(nodes: int) -> float:
        axes = [np.linspace(lo[j], hi[j], nodes) for j in range(spec.dim)]
        if spec.dim == 1:
            points = axes[0][:, None]
        else:
            gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
            points = np.column_stack([gx.ravel(), gy.ravel()])
        priors, log_cond = _label_log_densities(spec, labels, points)
        log_marg = logsumexp(np.log(priors)[:, None] + log_cond, axis=0)
        total = 0.0
        for prior, lc in zip(priors, log_cond):
            f = np.exp(lc) * (lc - log_marg)
            f = np.where(np.isfinite(f), f, 0.0)
            if spec.dim == 1:
                total += prior * _trapezoid(f, axes[0])
            else:
                grid = f.reshape(len(axes[0]), len(axes[1]))
                total += prior * _trapezoid(_trapezoid(grid, axes[1], axis=1), axes[0])
        return float(total)

    nodes = initial_nodes
    estimates = [integral(nodes)]
    for _ in range(max_refinements):
        nodes = 2 * nodes - 1
        estimates.append(integral(nodes))
        if abs(estimates[-1] - estimates[-2]) < tol:
            return OracleResult(
                value=estimates[-1],
                method="quadrature",
                abs_error_bound=abs(estimates[-1] - estimates[-2]),
            )
    raise QuadratureError(
        f"quadrature did not converge to {tol} after {max_refinements} refinements; "
        f"last two iterates {tuple(estimates[-2:])!r}",
        iterates=estimates[-2:],
    )


def _gmm_mi_monte_carlo(spec, labels, n_samples, seed):
    from scipy.special import logsumexp

    rng = np.random.default_rng(seed)
    priors = np.array([spec.weights[list(spec.condition_map[t])].sum() for t in labels])
    which = rng.choice(len(labels), size=n_samples, p=priors)
    chols = np.linalg.cholesky(spec.covariances)
    points = np.empty((n_samples, spec.dim))
    for j, token in enumerate(labels):
        rows = np.flatnonzero(which == j)
        if rows.size == 0:
            continue
        idx = list(spec.condition_map[token])
        w = spec.weights[idx] / spec.weights[idx].sum()
        comps = np.asarray(idx)[rng.choice(len(idx), size=rows.size, p=w)]
        z = rng.standard_normal((rows.size, spec.dim))
        points[rows] = spec.means[comps] + np.einsum("nij,nj->ni", chols[comps], z)
    prior_vec, log_cond = _label_log_densities(spec, labels, points)
    log_marg = logsumexp(np.log(prior_vec)[:, None] + log_cond, axis=0)
    ratios = log_cond[which, np.arange(n_samples)] - log_marg
    value = float(ratios.mean())
    bound = float(3.0 * ratios.std(ddof=1) / math.sqrt(n_samples))
    return OracleResult(value=value, method="monte_carlo", abs_error_bound=bound)


def component_responsibilities(spec, x) -> np.ndarray:
    """Posterior component probabilities (n, k) of the clean rows ``x`` (n, d) under the mixture.

    Computed from scipy log-densities only (no denoiser code); used to build
    Bayes-classifier baselines and to check where edited points land.
    """
    if np.ndim(x) != 2 or np.shape(x)[1] != spec.dim:
        raise ValueError(f"x must be rows of shape (n, {spec.dim}), the mixture's dimension, got shape {np.shape(x)}")
    from scipy.special import logsumexp
    from scipy.stats import multivariate_normal

    log_joint = np.stack(
        [
            np.log(spec.weights[k])
            + np.atleast_1d(
                multivariate_normal(mean=spec.means[k], cov=spec.covariances[k]).logpdf(x)
            )
            for k in range(spec.n_components)
        ],
        axis=1,
    )
    return np.exp(log_joint - logsumexp(log_joint, axis=1, keepdims=True))
