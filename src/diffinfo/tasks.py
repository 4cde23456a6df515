"""Toy evaluation tasks: condition ranking, heatmap segmentation, and
intervention-effect correlation.

Ranking is a score matrix: :func:`rank_conditions` scores the candidates of
a vector or of every point of an (n, d) dataset in one estimator pass,
:func:`evaluate_ranking` gives one row per point and one column per
candidate, in the order the candidates are listed, and :func:`select` picks
each row's best candidate.  Which candidate is the truth is the caller's
business, so a tie resolves to the first listed candidate whatever the
truth is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LogSnrSampler
from .estimators import pointwise_o, pointwise_s

# Scores within this many nats of the best count as tied.  It sits far above
# float rounding at score magnitudes of about 1e2 (about 1e-14) and far below
# the score differences a Monte-Carlo estimate can resolve.
TIE_ATOL = 1e-9


def select(scores) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``scores``, the first index within ``TIE_ATOL`` of the row's
    max, and whether that set holds more than one.  A constant shift of a row
    changes neither, unless a gap lies within float rounding of ``TIE_ATOL``.
    A vector counts as one row and gives scalars."""
    scores = np.asarray(scores, dtype=float)
    near = scores >= scores.max(axis=-1, keepdims=True) - TIE_ATOL
    return near.argmax(axis=-1), near.sum(axis=-1) > 1


def rank_conditions(
    x,
    candidates,
    uncond,
    cond,
    sampler: LogSnrSampler = LogSnrSampler(),
    n_eps: int = 4,
    seed=0,
    estimator_kind: str = "pointwise_s",
) -> np.ndarray:
    """Score every candidate condition of a point, or of each point of a dataset.

    For a vector ``x`` the K scores come back as a vector.  For an (n, d)
    dataset, ``candidates`` holds one list or tuple of K candidates per point
    and the scores come back as an (n, K) array; point i draws from child i
    of ``seed_sequence(seed).spawn(n)``, as in the estimators.

    All candidates of a point share the same (alpha, eps) draws, so score
    differences are free of common Monte-Carlo noise, and they share the
    unconditional prediction on those draws: one denoiser call per chunk
    carries the unconditional entry and all K candidates.  The default score is
    the log-likelihood-ratio estimate, whose argmax matches the Bayes rule
    for equal-prior candidate sets that cover the generating mixture; the
    squared-difference score (``pointwise_o``) orders such candidate sets
    inversely, since it measures how far conditioning moves the denoiser,
    and is intended for approximate denoiser families instead.
    """
    dataset = np.ndim(x) > 1
    per_point = list(candidates) if dataset else [list(candidates)]
    for entry in per_point:
        if len(entry) < 2:
            raise ValueError(f"need at least 2 candidates, got {len(entry)}")
    estimate = {"pointwise_s": pointwise_s, "pointwise_o": pointwise_o}[estimator_kind]
    report = estimate(uncond, cond, x, per_point if dataset else per_point[0], sampler, n_eps=n_eps, seed=seed)
    return report.total


def evaluate_ranking(
    xs,
    candidates,
    uncond,
    cond,
    sampler: LogSnrSampler = LogSnrSampler(),
    n_eps: int = 4,
    seed=0,
    estimator_kind: str = "pointwise_s",
) -> np.ndarray:
    """The (n, K) scores of K candidates for n points, one spawned seed per point."""
    if len(xs) == 0:
        raise ValueError("no points to rank")
    per_point = [tuple(candidates)] * len(xs)
    return rank_conditions(xs, per_point, uncond, cond, sampler, n_eps, seed, estimator_kind)


def rescale_unit(values) -> np.ndarray:
    """Min-max rescale to [0, 1]; a constant input maps to all zeros."""
    values = np.asarray(values, dtype=float)
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def iou(mask, truth) -> float:
    """Intersection over union; an empty union counts as a perfect match."""
    mask = np.asarray(mask, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    union = np.logical_or(mask, truth).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(mask, truth).sum() / union)


@dataclass(frozen=True, eq=False)
class SweepResult:
    threshold: float
    iou: float
    mask: np.ndarray


def sweep_threshold(heatmap, truth_mask) -> SweepResult:
    """Best fixed threshold on a 0.01 grid over [0, 1] of the rescaled heatmap.

    All 101 thresholds are scored at once, each as :func:`iou` scores its
    mask; of equal scores the lowest threshold wins.
    """
    heatmap = np.asarray(heatmap, dtype=float)
    truth = np.asarray(truth_mask, dtype=bool)
    if heatmap.ndim != 1 or truth.shape != heatmap.shape:
        raise ValueError(
            f"heatmap and truth_mask must be vectors of the same length, "
            f"got shapes {heatmap.shape} and {truth.shape}"
        )
    if np.any(heatmap < 0):
        raise ValueError("heatmap values must be non-negative")
    grid = np.round(np.arange(0, 101) / 100.0, 2)
    masks = rescale_unit(heatmap) >= grid[:, None]  # one row per threshold
    union = (masks | truth).sum(axis=1)
    scores = np.where(union == 0, 1.0, (masks & truth).sum(axis=1) / np.maximum(union, 1))
    best = int(scores.argmax())  # the first of equal scores, the lowest threshold
    return SweepResult(threshold=float(grid[best]), iou=float(scores[best]), mask=masks[best].copy())


def intervention_correlation(scores, deltas) -> float:
    """Pearson correlation between per-sample scores and intervention effects."""
    scores = np.asarray(scores, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    if scores.shape != deltas.shape or scores.ndim != 1:
        raise ValueError("scores and deltas must be vectors of the same length")
    if scores.size < 3:
        raise ValueError(f"need at least 3 pairs, got {scores.size}")
    if np.all(scores == scores[0]):
        raise ValueError("scores have zero variance")
    if np.all(deltas == deltas[0]):
        raise ValueError("deltas have zero variance")
    s = scores - scores.mean()
    d = deltas - deltas.mean()
    return float((s * d).sum() / math.sqrt((s * s).sum() * (d * d).sum()))


def pearson_confidence(r: float, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Fisher-z 95% interval for a Pearson correlation from n pairs."""
    if n < 4:
        raise ValueError(f"need at least 4 pairs for an interval, got {n}")
    zr = math.atanh(max(min(r, 1 - 1e-15), -1 + 1e-15))
    half = z / math.sqrt(n - 3)
    return (math.tanh(zr - half), math.tanh(zr + half))
