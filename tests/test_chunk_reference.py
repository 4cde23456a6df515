"""The estimators' chunk pass against a reference copy of its earlier formula, bit for bit.

``reference_chunk`` is the chunk pass as it was before the draws were written
into chunk arrays: per-point draws stacked with ``np.stack``, one sigma(a)
per candidate pass, new arrays for the squared errors and ``.mean(axis=3)``
over the noise draws.  The estimators must give exactly its ``per_dim`` and
``std_error``.  Where numpy sums the noise axis pairwise (d = 1 with 8 or
more noise draws), a plain sum in draw order differs in the last bits, which
the d = 1, n_eps = 9 cases catch.
"""

import itertools
import math

import numpy as np
import pytest

from diffinfo import estimators
from diffinfo.channel import LogSnrSampler, corrupt, signal_weight
from diffinfo.denoise import ConditionId, GmmSpec, gmm_mmse
from diffinfo.estimators import CHUNK_ELEMENTS, LOG_2PI_E


def reference_draws(sampler, n_eps, dim, seed):
    rng = np.random.default_rng(seed)
    alphas, weights = sampler.sample(rng)
    eps = rng.standard_normal((alphas.size, n_eps, dim))
    return alphas, weights, eps


def reference_chunk(kind, uncond, cond, xs, seeds, sampler, n_eps, uncond_condition, candidates):
    draws = [reference_draws(sampler, n_eps, xs.shape[1], s) for s in seeds]
    alphas, weights, eps = (np.stack(arrays) for arrays in zip(*draws))
    x_a = corrupt(xs[:, None, None, :], alphas[..., None], eps)
    entries = candidates if kind == "nll" else [uncond_condition, *candidates]
    calls = [(cond, entries)] if kind == "nll" or uncond is cond else [(uncond, entries[:1]), (cond, entries[1:])]
    rows, row_alphas = x_a.reshape(-1, xs.shape[1]), np.repeat(alphas.ravel(), n_eps)
    size = max(1, CHUNK_ELEMENTS // rows.size)
    passes = (
        den.predict_eps(rows, row_alphas, *entries[i : i + size]).reshape(-1, *x_a.shape)
        for den, entries in calls
        for i in range(0, len(entries), size)
    )
    if kind != "nll":
        first = next(passes)
        eps_u, passes = first[0], itertools.chain([first[1:]], passes)
        err_u = (eps - eps_u) ** 2 if kind == "pointwise_s" else None
    parts = []
    for eps_c in passes:
        if kind == "nll":
            parts.append(signal_weight(alphas)[..., None] - ((eps - eps_c) ** 2).mean(axis=3))
        elif kind == "pointwise_o":
            parts.append(((eps_u - eps_c) ** 2).mean(axis=3))
        else:
            parts.append((err_u - (eps - eps_c) ** 2).mean(axis=3))
    integrand = np.concatenate(parts)
    contrib = (weights[..., None] * 0.5 * integrand).swapaxes(0, 1).reshape(-1, *integrand.shape[2:])
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


LABELS = ("a", "b", "c")


def labelled_mixture(d):
    """Three components, one label each, with unequal spreads."""
    rng = np.random.default_rng(d)
    return GmmSpec(
        weights=[0.5, 0.3, 0.2],
        means=rng.normal(0.0, 2.0, (3, d)),
        covariances=[s * np.eye(d) for s in (0.5, 1.0, 2.0)],
        condition_map={label: (k,) for k, label in enumerate(LABELS)},
    )


def run(kind, uncond, cond, x, conditions, sampler, n_eps):
    if kind == "nll":
        return estimators.nll(cond, x, sampler, n_eps, 11, conditions)
    return getattr(estimators, kind)(uncond, cond, x, conditions, sampler, n_eps, 11)


# 30 log-SNR draws: at d = 64 and 9 noise draws a point's pass is over the
# budget, so each call carries one entry; at 4 noise draws, two.
SAMPLER = LogSnrSampler(n_draws=30)


@pytest.mark.parametrize("n_eps", [1, 4, 9])
@pytest.mark.parametrize("d", [1, 2, 9, 64])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("kind", ["nll", "pointwise_s", "pointwise_o"])
def test_chunk_equals_the_reference_bit_for_bit(monkeypatch, kind, k, d, n_eps):
    spec = labelled_mixture(d)
    x, _ = spec.sample(7, d + n_eps)
    if k == 1:  # one condition a point, in two groups
        conditions = [ConditionId(label=LABELS[i % 2]) for i in range(len(x))]
    else:
        conditions = [tuple(ConditionId(label=label) for label in LABELS)] * len(x)
    # Two denoisers on the pointwise sides for d > 2, so each side gets its own call.
    uncond, cond = gmm_mmse(spec), gmm_mmse(spec)
    if d <= 2:
        uncond = cond
    report = run(kind, uncond, cond, x, conditions, SAMPLER, n_eps)
    monkeypatch.setattr(estimators, "_chunk", reference_chunk)
    expected = run(kind, uncond, cond, x, conditions, SAMPLER, n_eps)
    assert report.per_dim.shape == (len(x), *(() if k == 1 else (k,)), d)
    for name in ("per_dim", "std_error"):
        got, want = getattr(report, name), getattr(expected, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
