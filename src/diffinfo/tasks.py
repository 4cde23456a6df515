"""Toy evaluation tasks: condition ranking, heatmap segmentation, and
intervention-effect correlation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .channel import LogSnrSampler
from .estimators import pointwise_o, pointwise_s, seed_sequence


@dataclass(frozen=True, eq=False)
class RankingSample:
    x: np.ndarray
    true_condition: Any
    distractors: tuple

    def __post_init__(self):
        object.__setattr__(self, "distractors", tuple(self.distractors))
        if len(self.distractors) < 1:
            raise ValueError("a ranking sample needs at least one distractor")
        if self.true_condition in self.distractors:
            raise ValueError("the true condition must not appear among the distractors")


@dataclass(frozen=True, eq=False)
class RankingTask:
    samples: tuple

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if not self.samples:
            raise ValueError("ranking task has no samples")


@dataclass(frozen=True, eq=False)
class RankResult:
    chosen: Any
    scores: np.ndarray
    tie: bool


# Scores within this many nats of the best count as tied.  It sits far above
# float rounding at score magnitudes of about 1e2 (about 1e-14) and far below
# the score differences a Monte-Carlo estimate can resolve.
TIE_ATOL = 1e-9


def _select(scores) -> tuple[int, bool]:
    """First index among the scores within ``TIE_ATOL`` of the max, and whether
    that set holds more than one; a constant shift of the scores changes neither."""
    scores = np.asarray(scores, dtype=float)
    tied = np.flatnonzero(scores >= scores.max() - TIE_ATOL)
    return int(tied[0]), bool(tied.size > 1)


def rank_conditions(
    x,
    candidates,
    uncond,
    cond,
    sampler: LogSnrSampler = LogSnrSampler(),
    n_eps: int = 4,
    seed=0,
    estimator_kind: str = "pointwise_s",
) -> RankResult:
    """Score every candidate condition on the same draws and pick the argmax.

    All candidates share the same (alpha, eps) draws, so score differences
    are free of common Monte-Carlo noise.  The default score is the
    log-likelihood-ratio estimate, whose argmax matches the Bayes rule for
    equal-prior candidate sets that cover the generating mixture; the
    squared-difference score (``pointwise_o``) orders such candidate sets
    inversely, since it measures how far conditioning moves the denoiser,
    and is intended for approximate denoiser families instead.
    """
    candidates = list(candidates)
    if len(candidates) < 2:
        raise ValueError(f"need at least 2 candidates, got {len(candidates)}")
    estimate = {"pointwise_s": pointwise_s, "pointwise_o": pointwise_o}[estimator_kind]
    shared = seed_sequence(seed)
    scores = np.array(
        [estimate(uncond, cond, x, c, sampler, n_eps=n_eps, seed=shared).total for c in candidates]
    )
    best, tie = _select(scores)
    return RankResult(chosen=candidates[best], scores=scores, tie=tie)


@dataclass(frozen=True, eq=False)
class RankingReport:
    accuracy: float
    n_ties: int
    per_condition: dict
    outcomes: tuple


def evaluate_ranking(
    task: RankingTask,
    uncond,
    cond,
    sampler: LogSnrSampler = LogSnrSampler(),
    n_eps: int = 4,
    seed=0,
    estimator_kind: str = "pointwise_s",
) -> RankingReport:
    """Ranking accuracy over a task, with a per-true-condition breakdown."""
    children = seed_sequence(seed).spawn(len(task.samples))
    outcomes = []
    for sample, child in zip(task.samples, children):
        result = rank_conditions(
            sample.x,
            [sample.true_condition, *sample.distractors],
            uncond,
            cond,
            sampler,
            n_eps=n_eps,
            seed=child,
            estimator_kind=estimator_kind,
        )
        outcomes.append((sample, result))
    hits: dict[Any, list[bool]] = {}
    for sample, result in outcomes:
        hits.setdefault(sample.true_condition, []).append(result.chosen == sample.true_condition)
    per_condition = {k: float(np.mean(v)) for k, v in hits.items()}
    correct = [result.chosen == sample.true_condition for sample, result in outcomes]
    return RankingReport(
        accuracy=float(np.mean(correct)),
        n_ties=sum(result.tie for _, result in outcomes),
        per_condition=per_condition,
        outcomes=tuple(outcomes),
    )


@dataclass(frozen=True, eq=False)
class HeatmapEval:
    """A non-negative heatmap, a binary ground-truth mask, and a threshold."""

    heatmap: np.ndarray
    truth_mask: np.ndarray
    threshold: float

    def __post_init__(self):
        heatmap = np.asarray(self.heatmap, dtype=float)
        truth = np.asarray(self.truth_mask, dtype=bool)
        if heatmap.ndim != 1 or truth.shape != heatmap.shape:
            raise ValueError("heatmap and truth_mask must be vectors of the same length")
        if np.any(heatmap < 0):
            raise ValueError("heatmap values must be non-negative")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {self.threshold}")
        object.__setattr__(self, "heatmap", heatmap)
        object.__setattr__(self, "truth_mask", truth)


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


def segment_from_heatmap(ev: HeatmapEval) -> tuple[np.ndarray, float]:
    """Threshold the rescaled heatmap and score the mask against the truth."""
    mask = rescale_unit(ev.heatmap) >= ev.threshold
    return mask, iou(mask, ev.truth_mask)


@dataclass(frozen=True, eq=False)
class SweepResult:
    threshold: float
    iou: float
    mask: np.ndarray


def sweep_threshold(heatmap, truth_mask) -> SweepResult:
    """Best fixed threshold on a 0.01 grid over [0, 1]."""
    scaled = rescale_unit(heatmap)
    truth = np.asarray(truth_mask, dtype=bool)
    best = SweepResult(threshold=0.0, iou=-1.0, mask=np.zeros_like(truth))
    for t in np.round(np.arange(0, 101) / 100.0, 2):
        mask = scaled >= t
        score = iou(mask, truth)
        if score > best.iou:
            best = SweepResult(threshold=float(t), iou=score, mask=mask)
    return best


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


def pixelwise_intervention_correlation(score_rows, delta_rows) -> float:
    """Per-sample correlation of per-dimension vectors, averaged over samples."""
    if len(score_rows) != len(delta_rows) or not score_rows:
        raise ValueError("need matching, non-empty lists of per-sample vectors")
    return float(
        np.mean([intervention_correlation(s, d) for s, d in zip(score_rows, delta_rows)])
    )


def pearson_confidence(r: float, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Fisher-z 95% interval for a Pearson correlation from n pairs."""
    if n < 4:
        raise ValueError(f"need at least 4 pairs for an interval, got {n}")
    zr = math.atanh(max(min(r, 1 - 1e-15), -1 + 1e-15))
    half = z / math.sqrt(n - 3)
    return (math.tanh(zr - half), math.tanh(zr + half))
