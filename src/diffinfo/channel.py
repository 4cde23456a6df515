"""Variance-preserving Gaussian noise channel parametrized by log SNR.

The channel corrupts a data vector x into

    x_a = sqrt(sigma(a)) * x + sqrt(sigma(-a)) * eps,    eps ~ N(0, I),

where a is the log signal-to-noise ratio and sigma the standard logistic
sigmoid, so the signal weight sigma(a) and the noise weight sigma(-a) sum to
one at every noise level.  :func:`corrupt` is the only code that applies the
channel; it is batched, with one log-SNR per noise draw, so the estimators'
(log-SNR, draw, dimension) grid and a training batch go through the same
arithmetic.

Information integrals over a are estimated by importance sampling from a
truncated logistic distribution; contributions outside the truncation
interval are defined to be zero, which makes every estimate a deterministic
function of its seed and its interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit


def signal_weight(alpha):
    """Signal weight sigma(a) of the channel at log-SNR ``alpha``."""
    return expit(alpha)


def noise_weight(alpha):
    """Noise weight sigma(-a); complements :func:`signal_weight` to one."""
    return expit(-alpha)


def corrupt(x, alpha, eps) -> np.ndarray:
    """Push ``x`` through the channel: ``sqrt(sigma(a)) x + sqrt(sigma(-a)) eps``.

    Parameters
    ----------
    x : array_like, shape (..., d)
        Clean data; broadcasts against ``eps``.
    alpha : float or array_like
        Log-SNR, one per noise draw: broadcasts against ``eps.shape[:-1]``.
    eps : array_like, shape (..., d)
        Standard-normal draws.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    if x.shape[-1] != eps.shape[-1]:
        raise ValueError(
            f"dimension mismatch: x has dimension {x.shape[-1]} "
            f"but eps has dimension {eps.shape[-1]}"
        )
    a = np.asarray(alpha, dtype=float)[..., None]
    return np.sqrt(signal_weight(a)) * x + np.sqrt(noise_weight(a)) * eps


@dataclass(frozen=True)
class LogSnrSampler:
    """Truncated-logistic importance distribution over log-SNR values.

    Draws lie in ``[loc - clip*scale, loc + clip*scale]`` and each comes with
    the weight ``1/pdf(a)``, so that ``mean(weight * g(a))`` over the draws is
    an unbiased estimate of the integral of ``g`` over the interval.  The pdf
    is the logistic density renormalized over the interval.
    """

    loc: float = 1.0
    scale: float = 2.0
    clip: float = 3.0
    n_draws: int = 100

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.clip <= 0:
            raise ValueError(f"clip must be positive, got {self.clip}")
        if self.n_draws < 1:
            raise ValueError(f"n_draws must be at least 1, got {self.n_draws}")

    @property
    def support(self) -> tuple[float, float]:
        half = self.clip * self.scale
        return (self.loc - half, self.loc + half)

    @property
    def _truncated_mass(self) -> float:
        # CDF mass of the untruncated logistic inside the interval.
        return float(expit(self.clip) - expit(-self.clip))

    def pdf(self, alpha):
        """Renormalized density; zero outside the truncation interval."""
        alpha = np.asarray(alpha, dtype=float)
        z = (alpha - self.loc) / self.scale
        dens = expit(z) * expit(-z) / (self.scale * self._truncated_mass)
        lo, hi = self.support
        return np.where((alpha >= lo) & (alpha <= hi), dens, 0.0)

    def sample(self, rng) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n_draws`` (alpha, weight) pairs, deterministic given the seed.

        ``rng`` may be an int seed, a ``SeedSequence`` or a ``Generator``.
        """
        rng = np.random.default_rng(rng)
        u = rng.uniform(expit(-self.clip), expit(self.clip), size=self.n_draws)
        z = np.log(u) - np.log1p(-u)
        alphas = self.loc + self.scale * z
        weights = self.scale * self._truncated_mass / (expit(z) * expit(-z))
        return alphas, weights
