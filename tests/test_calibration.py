"""Calibrated standard errors: z = (estimate - exact) / SE over many independent estimates.

Each case gives a few points many copies in one dataset call.  Point i draws
from child i of the seed, so the copies are independent estimates of the
same truncated integral.  The exact values integrate ``toys.gaussian_error_curve``
over the sampler's interval by a 400-node Gauss-Legendre rule, without the
mixture denoiser.  Where the standard error is right, z has a mean near 0
and a standard deviation near 1.
"""

import numpy as np
import pytest

from diffinfo.channel import LogSnrSampler
from diffinfo.denoise import GmmSpec, gmm_mmse
from diffinfo.estimators import nll, pointwise_s

from toys import correlated_gaussian, truncated_correlated_pointwise_s, truncated_gaussian_nll

SEED = 11
COPIES = 200
SAMPLER = LogSnrSampler()  # 100 log-SNRs, 4 noise draws at each


def assert_calibrated(report, exact):
    z = (report.total - np.repeat(exact, COPIES)) / report.std_error
    mean, sd = z.mean(), z.std(ddof=1)
    assert 0.85 <= sd <= 1.2 and abs(mean) < 0.2, f"mean z {mean:.3f}, SD z {sd:.3f}"


@pytest.mark.parametrize("d", [1, 16, 64])
def test_nll_standard_error_is_calibrated(d):
    rng = np.random.default_rng(SEED)
    factor = rng.standard_normal((d, d))
    spec = GmmSpec.single(rng.standard_normal(d), factor @ factor.T / d + np.eye(d))
    points, _ = spec.sample(3, rng)
    report = nll(gmm_mmse(spec), np.repeat(points, COPIES, axis=0), SAMPLER, seed=SEED)
    assert_calibrated(report, [truncated_gaussian_nll(spec.means[0], spec.covariances[0], x, SAMPLER) for x in points])


def test_pointwise_s_standard_error_is_calibrated():
    bench = correlated_gaussian(0.8)
    x, ys = bench.dataset(3, SEED)
    copies = [y for y in ys for _ in range(COPIES)]
    report = pointwise_s(bench.uncond, bench.cond, np.repeat(x, COPIES, axis=0), copies, SAMPLER, seed=SEED)
    assert_calibrated(report, [truncated_correlated_pointwise_s(bench.rho, xi, y, SAMPLER) for (xi,), y in zip(x, ys)])
