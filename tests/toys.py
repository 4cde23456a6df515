"""Canonical toy generative setups shared by the tests."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from diffinfo import oracle
from diffinfo.channel import noise_weight, signal_weight
from diffinfo.denoise import ConditionId, GmmDenoiser, GmmSpec, as_batch, gmm_mmse, is_per_row


class PerEntry:
    """The ``predict_eps(x_alpha, alpha, *entries)`` contract for a denoiser that shares
    no work between entries: ``predict_one(rows, alphas, entry)`` for each entry, with
    one log-SNR per row, and the rows stacked entry by entry."""

    def predict_eps(self, x_alpha, alpha, *entries) -> np.ndarray:
        x2, a = as_batch(x_alpha, alpha, self.dim)
        entries = entries or (None,)
        for entry in entries:
            is_per_row(entry, len(x2))  # raises for a per-row list of the wrong length
        return np.concatenate([self.predict_one(x2, a, c) for c in entries])


def restrict(spec: GmmSpec, condition) -> GmmSpec:
    """The conditional mixture of ``spec`` given ``condition`` as a standalone spec."""
    idx = spec.components_for(condition)
    pos = {int(k): j for j, k in enumerate(idx)}
    cmap = {}
    for token, comps in spec.condition_map.items():
        kept = tuple(pos[c] for c in comps if c in pos)
        if kept:
            cmap[token] = kept
    return GmmSpec(
        weights=spec.conditional_weights(idx),
        means=spec.means[idx],
        covariances=spec.covariances[idx],
        condition_map=cmap,
    )


@dataclass(frozen=True)
class ZeroDenoiser(PerEntry):
    """Predicts zero noise everywhere: the flow is then linear, with a closed-form map."""

    dim: int

    def predict_one(self, x_alpha, alpha, condition) -> np.ndarray:
        return np.zeros_like(x_alpha)


class CountingDenoiser:
    """Wraps a denoiser and records the row count and the entries of every ``predict_eps`` call."""

    def __init__(self, inner):
        self.inner = inner
        self.rows: list[int] = []
        self.entries: list[tuple] = []

    @property
    def dim(self) -> int:
        return self.inner.dim

    def predict_eps(self, x_alpha, alpha, *entries) -> np.ndarray:
        self.rows.append(len(x_alpha))
        self.entries.append(entries or (None,))
        return self.inner.predict_eps(x_alpha, alpha, *entries)


class CorrelatedGaussianDenoiser(PerEntry):
    """Conditional closed-form denoiser for x | y with (x, y) bivariate normal.

    The condition payload is the observed y itself (a float), or a list of
    one y per row: given y the source is N(rho * y, 1 - rho^2), and the
    posterior-mean noise predictor follows from the joint-Gaussian
    conditional-mean formula.
    """

    def __init__(self, rho: float):
        if not abs(rho) < 1:
            raise ValueError(f"|rho| must be < 1, got {rho}")
        self.rho = float(rho)

    @property
    def dim(self) -> int:
        return 1

    def predict_one(self, x_alpha, alpha, condition) -> np.ndarray:
        if condition is None:
            raise ValueError("this denoiser requires the observed y as the condition")
        y = np.asarray(condition if is_per_row(condition, len(x_alpha)) else [condition], dtype=float)
        sa, sna = signal_weight(alpha), noise_weight(alpha)
        mean = self.rho * y[:, None]
        var = 1.0 - self.rho**2
        return np.sqrt(sna)[:, None] * (x_alpha - np.sqrt(sa)[:, None] * mean) / (sa * var + sna)[:, None]


@dataclass(frozen=True, eq=False)
class CorrelatedGaussian:
    """A bivariate-normal (x, y) pair with its two closed-form denoisers."""

    rho: float
    uncond: GmmDenoiser
    cond: CorrelatedGaussianDenoiser

    def dataset(self, n: int, seed) -> tuple[np.ndarray, list[float]]:
        """Points x (n, 1) and each point's observed y, its condition."""
        rng = np.random.default_rng(seed)
        cov = np.array([[1.0, self.rho], [self.rho, 1.0]])
        xy = rng.multivariate_normal([0.0, 0.0], cov, size=n)
        return xy[:, :1], xy[:, 1].tolist()


def correlated_gaussian(rho: float) -> CorrelatedGaussian:
    return CorrelatedGaussian(
        rho=float(rho),
        uncond=gmm_mmse(GmmSpec.single([0.0], [[1.0]])),
        cond=CorrelatedGaussianDenoiser(rho),
    )


def symmetric_pair_spec(offset: float = 4.0, variance: float = 1.0, labels=("neg", "pos")) -> GmmSpec:
    """Two equal-weight components at -offset and +offset with one label each."""
    return GmmSpec(
        weights=[0.5, 0.5],
        means=[[-offset], [offset]],
        covariances=[[[variance]], [[variance]]],
        condition_map={labels[0]: (0,), labels[1]: (1,)},
    )


def labeled_dataset(spec: GmmSpec, labels, n: int, seed) -> tuple[np.ndarray, list[ConditionId]]:
    """Points (n, d) of a spec whose listed labels partition its components one-to-one,
    and each point's label."""
    label_of = {}
    for token in labels:
        for k in spec.condition_map[token]:
            label_of[k] = token
    x, comps = spec.sample(n, seed)
    return x, [ConditionId(label=label_of[int(k)]) for k in comps]


def coordinate_localized_spec(dim: int = 8, informative: int = 2, offset: float = 3.0) -> GmmSpec:
    """Two components whose means differ only in the first ``informative`` coordinates."""
    mean_hi = np.zeros(dim)
    mean_hi[:informative] = offset
    eye = np.eye(dim)
    return GmmSpec(
        weights=[0.5, 0.5],
        means=[np.zeros(dim), mean_hi],
        covariances=[eye, eye],
        condition_map={"lo": (0,), "hi": (1,)},
    )


def redundant_editing_spec() -> GmmSpec:
    """Four components where labels are redundant in one context, informative in the other.

    Under context "plain" both labels select the same two-component mixture
    (conditional mutual information is exactly zero and a label swap is a
    null intervention); under context "split" each label selects its own
    well-separated component.
    """
    return GmmSpec(
        weights=[0.25, 0.25, 0.25, 0.25],
        means=[[-6.0], [-2.0], [3.0], [7.0]],
        covariances=[[[1.0]]] * 4,
        condition_map={
            "plain": (0, 1),
            "split": (2, 3),
            "low": (0, 1, 2),
            "high": (0, 1, 3),
        },
    )


def editing_dataset(spec: GmmSpec, n: int, seed) -> tuple[np.ndarray, list, list]:
    """Points of :func:`redundant_editing_spec`, with each point's (label, context)
    condition and its context alone."""
    rng = np.random.default_rng(seed)
    x, comps = spec.sample(n, rng)
    conditions, contexts = [], []
    for k in comps:
        if k in (0, 1):
            context, label = "plain", ("low", "high")[rng.integers(0, 2)]
        else:
            context, label = "split", ("low" if k == 2 else "high")
        conditions.append(ConditionId(label=label, context=(context,)))
        contexts.append(ConditionId(context=(context,)))
    return x, conditions, contexts


def hierarchy_spec(branching: int = 4, spread: float = 8.0) -> GmmSpec:
    """Two context groups of ``branching`` well-separated components each.

    Labels refine a context to a single component, so the conditional mutual
    information approaches log(branching).
    """
    means, cmap = [], {}
    for g, ctx in enumerate(("c0", "c1")):
        base = 4.0 * branching * spread * g
        idx = []
        for j in range(branching):
            idx.append(len(means))
            means.append([base + spread * (j - (branching - 1) / 2.0)])
            cmap.setdefault(f"L{j}", []).append(len(means) - 1)
        cmap[ctx] = tuple(idx)
    k = len(means)
    return GmmSpec(
        weights=[1.0 / k] * k,
        means=means,
        covariances=[[[1.0]]] * k,
        condition_map={t: tuple(v) for t, v in cmap.items()},
    )


def hierarchy_dataset(spec: GmmSpec, n: int, seed) -> tuple[np.ndarray, list, list]:
    """Points of :func:`hierarchy_spec`, with each point's (label, context) condition
    and its context alone."""
    branching = len([t for t in spec.condition_map if t.startswith("L")])
    x, comps = spec.sample(n, seed)
    contexts = [("c0",) if k < branching else ("c1",) for k in comps]
    conditions = [ConditionId(label=f"L{int(k) % branching}", context=c) for k, c in zip(comps, contexts)]
    return x, conditions, [ConditionId(context=c) for c in contexts]


def component_responsibilities(spec, x) -> np.ndarray:
    """Posterior component probabilities (n, k) of the clean rows ``x`` (n, d) under the mixture.

    Computed from scipy log-densities only (no denoiser code); used to build
    Bayes-classifier baselines and to check where edited points land.
    """
    if np.ndim(x) != 2 or np.shape(x)[1] != spec.dim:
        raise ValueError(f"x must be rows of shape (n, {spec.dim}), the mixture's dimension, got shape {np.shape(x)}")
    log_joint = oracle._log_joint(spec, x)
    return np.exp(log_joint - logsumexp(log_joint, axis=1, keepdims=True))


def direct_solve_terms(spec, x_a, alpha, condition=None):
    """Reference posterior: a per-row d x d solve and slogdet of S = sigma(a) C + sigma(-a) I.

    Returns the responsibilities (n, k), the prediction (n, d) and each row's scale, the
    responsibility-weighted norm of the components' predictions: the size of the terms that
    the prediction sums, and so of its rounding."""
    idx = spec.components_for(condition)
    w = spec.conditional_weights(idx)
    a = np.broadcast_to(np.asarray(alpha, dtype=float), (x_a.shape[0],))
    sa, sna = signal_weight(a), noise_weight(a)
    n, d = x_a.shape
    log_joint = np.empty((n, idx.size))
    eps_k = np.empty((n, idx.size, d))
    for j, k in enumerate(idx):
        cov = sa[:, None, None] * spec.covariances[k] + sna[:, None, None] * np.eye(d)
        diff = x_a - np.sqrt(sa)[:, None] * spec.means[k]
        sol = np.linalg.solve(cov, diff[..., None])[..., 0]
        _, logdet = np.linalg.slogdet(cov)
        maha = np.einsum("ni,ni->n", diff, sol)
        log_joint[:, j] = np.log(w[j]) - 0.5 * (d * np.log(2 * np.pi) + logdet + maha)
        eps_k[:, j] = np.sqrt(sna)[:, None] * sol
    resp = np.exp(log_joint - logsumexp(log_joint, axis=1, keepdims=True))
    return resp, np.einsum("nk,nkd->nd", resp, eps_k), np.einsum("nk,nk->n", resp, np.linalg.norm(eps_k, axis=2))


def iou(mask, truth) -> float:
    """Intersection over union; an empty union counts as a perfect match."""
    mask = np.asarray(mask, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    union = np.logical_or(mask, truth).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(mask, truth).sum() / union)



def gaussian_error_curve(mean, cov, x, alphas) -> np.ndarray:
    """The expected squared noise-prediction error m(a; x) of the Gaussian N(mean, cov)
    at the clean point ``x``, one value a log-SNR of ``alphas``, from an eigendecomposition:

        m(a; x) = tr((I - sigma(-a) S^-1)^2) + sigma(a) sigma(-a) |S^-1 (x - mean)|^2,

    with S = sigma(a) cov + sigma(-a) I, whose eigenvalues are sigma(a) lam + sigma(-a)."""
    lam, vecs = np.linalg.eigh(np.atleast_2d(cov))
    z = vecs.T @ (np.atleast_1d(np.asarray(x, dtype=float)) - mean)
    sa, sna = signal_weight(alphas)[:, None], noise_weight(alphas)[:, None]
    s = sa * lam + sna
    return ((1.0 - sna / s) ** 2).sum(axis=1) + (sa * sna * (z / s) ** 2).sum(axis=1)


def truncated_integral(curve, sampler, nodes: int = 400) -> float:
    """The integral of ``curve(alphas)`` over the sampler's interval, by a fixed Gauss-Legendre rule."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    lo, hi = sampler.support
    half = 0.5 * (hi - lo)
    return float(half * (w * curve(lo + half * (t + 1.0))).sum())


def truncated_gaussian_nll(mean, cov, x, sampler) -> float:
    """What ``nll`` estimates at ``x`` for the Gaussian source N(mean, cov) over the sampler's
    interval: d/2 log(2 pi e) - 1/2 int (d sigma(a) - m(a; x)) da."""
    d = len(mean)

    def integrand(alphas):
        return d * signal_weight(alphas) - gaussian_error_curve(mean, cov, x, alphas)

    return 0.5 * d * math.log(2 * math.pi * math.e) - 0.5 * truncated_integral(integrand, sampler)


def truncated_correlated_pointwise_s(rho: float, x: float, y: float, sampler) -> float:
    """What ``pointwise_s`` estimates at (x, y) for :func:`correlated_gaussian` over the
    sampler's interval: 1/2 int (m_u - m_c) da, for N(0, 1) against N(rho y, 1 - rho^2)."""

    def integrand(alphas):
        uncond = gaussian_error_curve(np.zeros(1), [[1.0]], [x], alphas)
        return uncond - gaussian_error_curve(np.array([rho * y]), [[1.0 - rho**2]], [x], alphas)

    return 0.5 * truncated_integral(integrand, sampler)
