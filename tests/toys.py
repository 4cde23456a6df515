"""Canonical toy generative setups shared by the tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from diffinfo.channel import noise_weight, signal_weight
from diffinfo.denoise import ConditionId, GmmDenoiser, GmmSpec, Sample, as_batch, gmm_mmse


@dataclass(frozen=True)
class ZeroDenoiser:
    """Predicts zero noise everywhere: the flow is then linear, with a closed-form map."""

    dim: int

    def predict_eps(self, x_alpha, alpha, condition=None) -> np.ndarray:
        return np.zeros_like(np.asarray(x_alpha, dtype=float))


class CountingDenoiser:
    """Wraps a denoiser and records the row count and condition of every ``predict_eps`` call."""

    def __init__(self, inner):
        self.inner = inner
        self.rows: list[int] = []
        self.conditions: list = []

    @property
    def dim(self) -> int:
        return self.inner.dim

    def predict_eps(self, x_alpha, alpha, condition=None) -> np.ndarray:
        self.rows.append(np.atleast_2d(x_alpha).shape[0])
        self.conditions.append(condition)
        return self.inner.predict_eps(x_alpha, alpha, condition)


class CorrelatedGaussianDenoiser:
    """Conditional closed-form denoiser for x | y with (x, y) bivariate normal.

    The condition payload is the observed y itself (a float): given y the
    source is N(rho * y, 1 - rho^2), and the posterior-mean noise predictor
    follows from the joint-Gaussian conditional-mean formula.
    """

    def __init__(self, rho: float):
        if not abs(rho) < 1:
            raise ValueError(f"|rho| must be < 1, got {rho}")
        self.rho = float(rho)

    @property
    def dim(self) -> int:
        return 1

    def predict_eps(self, x_alpha, alpha, condition=None) -> np.ndarray:
        if condition is None:
            raise ValueError("this denoiser requires the observed y as the condition")
        x2, a, single = as_batch(x_alpha, alpha, self.dim)
        sa, sna = signal_weight(a), noise_weight(a)
        mean = self.rho * float(condition)
        var = 1.0 - self.rho**2
        out = np.sqrt(sna)[:, None] * (x2 - np.sqrt(sa)[:, None] * mean) / (sa * var + sna)[:, None]
        return out[0] if single else out


@dataclass(frozen=True, eq=False)
class CorrelatedGaussian:
    """A bivariate-normal (x, y) pair with its two closed-form denoisers."""

    rho: float
    uncond: GmmDenoiser
    cond: CorrelatedGaussianDenoiser

    def dataset(self, n: int, seed) -> list[Sample]:
        rng = np.random.default_rng(seed)
        cov = np.array([[1.0, self.rho], [self.rho, 1.0]])
        xy = rng.multivariate_normal([0.0, 0.0], cov, size=n)
        return [Sample(x=np.array([x]), condition=float(y)) for x, y in xy]


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


def labeled_dataset(spec: GmmSpec, labels, n: int, seed) -> list[Sample]:
    """Sample a spec whose listed labels partition its components one-to-one."""
    label_of = {}
    for token in labels:
        for k in spec.condition_map[token]:
            label_of[k] = token
    x, comps = spec.sample(n, seed)
    return [Sample(x=xi, condition=ConditionId(label=label_of[int(k)])) for xi, k in zip(x, comps)]


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


def editing_dataset(spec: GmmSpec, n: int, seed) -> list[Sample]:
    """Samples from :func:`redundant_editing_spec` with (label, context) conditions."""
    rng = np.random.default_rng(seed)
    x, comps = spec.sample(n, rng)
    samples = []
    for xi, k in zip(x, comps):
        if k in (0, 1):
            context, label = "plain", ("low", "high")[rng.integers(0, 2)]
        else:
            context, label = "split", ("low" if k == 2 else "high")
        samples.append(
            Sample(
                x=xi,
                condition=ConditionId(label=label, context=(context,)),
                context=ConditionId(context=(context,)),
            )
        )
    return samples


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


def hierarchy_dataset(spec: GmmSpec, n: int, seed) -> list[Sample]:
    branching = len([t for t in spec.condition_map if t.startswith("L")])
    x, comps = spec.sample(n, seed)
    samples = []
    for xi, k in zip(x, comps):
        ctx = "c0" if k < branching else "c1"
        label = f"L{int(k) % branching}"
        samples.append(
            Sample(
                x=xi,
                condition=ConditionId(label=label, context=(ctx,)),
                context=ConditionId(context=(ctx,)),
            )
        )
    return samples
