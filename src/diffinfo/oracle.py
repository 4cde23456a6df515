"""Closed-form and brute-force ground truth used to validate the estimators.

Everything here is computed independently of the denoiser and estimator code
paths: densities come from explicit formulas or ``scipy.stats``, integrals
from step-halving trapezoid quadrature or plain Monte Carlo.  Quadrature
domains span the component means plus/minus ten maximal standard deviations
per dimension, where Gaussian tails are below 1e-22.  Monte-Carlo points are
drawn by ``GmmSpec.sample``, which a test of its own pins; their densities,
like every other here, stay independent of the denoiser and estimator code.

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


def _log_joint(spec, points) -> np.ndarray:
    """log w_k + log N(x; mu_k, C_k) of each row x of ``points`` (n, d) and component k: (n, k)."""
    from scipy.stats import multivariate_normal

    log_pdfs = [multivariate_normal(mean=m, cov=c).logpdf(points) for m, c in zip(spec.means, spec.covariances)]
    return np.log(spec.weights) + np.column_stack([np.atleast_1d(v) for v in log_pdfs])


def _label_log_densities(spec, owner, points):
    """The label priors, log p(x | label) (labels, n) and log p(x) (n,) of the rows ``points``.

    ``owner`` gives each component's label, as ``spec.partition`` returns it.
    """
    from scipy.special import logsumexp

    log_joint = _log_joint(spec, points)
    priors = np.bincount(owner, weights=spec.weights)
    log_cond = [logsumexp(log_joint[:, owner == j], axis=1) - math.log(p) for j, p in enumerate(priors)]
    return priors, np.stack(log_cond), logsumexp(log_joint, axis=1)


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
    higher-dimensional mixtures fall back to Monte Carlo over
    ``GmmSpec.sample`` with a reported 3-standard-error bound.  The label
    tokens must partition the components.
    """
    labels = sorted(spec.condition_map) if labels is None else list(labels)
    owner = spec.partition(labels)
    if spec.dim > 2:
        points, comps = spec.sample(mc_samples, seed)
        _, log_cond, log_marg = _label_log_densities(spec, owner, points)
        ratios = log_cond[owner[comps], np.arange(mc_samples)] - log_marg
        bound = 3.0 * ratios.std(ddof=1) / math.sqrt(mc_samples)
        return OracleResult(value=float(ratios.mean()), method="monte_carlo", abs_error_bound=float(bound))

    spread = 10.0 * math.sqrt(np.diagonal(spec.covariances, axis1=1, axis2=2).max())
    lo, hi = spec.means.min(axis=0) - spread, spec.means.max(axis=0) + spread

    def integral(nodes: int) -> float:
        axes = [np.linspace(lo[j], hi[j], nodes) for j in range(spec.dim)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        priors, log_cond, log_marg = _label_log_densities(spec, owner, grid.reshape(-1, spec.dim))
        f = np.exp(log_cond) * (log_cond - log_marg)
        f = np.where(np.isfinite(f), f, 0.0).reshape(len(labels), *grid.shape[:-1])
        for nodes_j in reversed(axes):  # the last grid axis first
            f = _trapezoid(f, nodes_j)
        return float(sum(priors * f))

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

