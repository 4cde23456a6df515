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

The sigmoid is :func:`sigmoid` here rather than ``scipy.special.expit``, so
that the estimator path imports numpy alone; importing scipy costs about a
second, several times the work of a typical command.  It computes the same
``1/(1+exp(-a))`` as ``expit``.  A scalar goes through ``math.exp``, the C
library's exponential that ``expit`` also calls, and so matches ``expit``
bit for bit; an array goes through ``np.exp`` in place, which may differ from
it in the last bits.  The exponent is clamped at 709 so that it cannot
overflow, which keeps the result finite without the cost of ``np.errstate``;
below a = -709, where the sigmoid is subnormal, the result stays near
sigma(-709) instead of falling to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EXP_MAX = 709.0  # exp(709) is finite; exp(710) overflows


def sigmoid(a):
    """Logistic sigmoid ``1/(1+exp(-a))``: a float for a scalar, else a new array."""
    if isinstance(a, float):  # numpy's float64 scalars too
        return 1.0 / (1.0 + math.exp(_EXP_MAX if a < -_EXP_MAX else -a))
    t = np.negative(a, dtype=float)
    if t.ndim == 0:
        return sigmoid(float(a))
    np.minimum(t, _EXP_MAX, out=t)
    np.exp(t, out=t)
    t += 1.0
    return np.reciprocal(t, out=t)


def signal_weight(alpha):
    """Signal weight sigma(a) of the channel at log-SNR ``alpha``."""
    return sigmoid(alpha)


def noise_weight(alpha):
    """Noise weight sigma(-a); complements :func:`signal_weight` to one."""
    return sigmoid(-alpha)


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
    """The draw design of an estimate: a truncated-logistic importance distribution
    over log-SNR values, and the noise draws taken at each.

    Draws lie in ``[loc - clip*scale, loc + clip*scale]``, an interval that
    must be finite and wider than a billion ulps of its ends, so that its floats
    resolve it; each draw comes with the weight ``1/p(a)``, where ``p`` is
    the logistic density renormalized over the interval; so
    ``mean(weight * g(a))`` over the draws is an unbiased estimate of the
    integral of ``g`` over the interval.  An estimate takes ``n_draws``
    log-SNRs and ``n_eps`` noise draws at each; training draws log-SNRs only.
    """

    loc: float = 1.0
    scale: float = 2.0
    clip: float = 3.0
    n_draws: int = 100
    n_eps: int = 4

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.clip <= 0:
            raise ValueError(f"clip must be positive, got {self.clip}")
        if self.n_draws < 1:
            raise ValueError(f"n_draws must be at least 1, got {self.n_draws}")
        if self.n_eps < 1:
            raise ValueError(f"n_eps must be at least 1, got {self.n_eps}")
        if not all(map(math.isfinite, self.support)):
            raise ValueError(f"the interval loc +- clip*scale must be finite, got {list(self.support)}")
        lo, hi = self.support
        if math.ulp(max(abs(lo), abs(hi))) > 1e-9 * (hi - lo):
            raise ValueError(f"the interval loc +- clip*scale is too narrow for its floats, got {[lo, hi]}")
        # Constants of the sampler, computed once: the untruncated logistic's
        # CDF at the ends of the interval, and its mass inside the interval.
        lo, hi = sigmoid(-self.clip), sigmoid(self.clip)
        object.__setattr__(self, "_cdf_bounds", (lo, hi))
        object.__setattr__(self, "_truncated_mass", hi - lo)

    @property
    def support(self) -> tuple[float, float]:
        half = self.clip * self.scale
        return (self.loc - half, self.loc + half)

    def sample(self, rng) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n_draws`` (alpha, weight) pairs, deterministic given the seed.

        ``rng`` may be an int seed, a ``SeedSequence`` or a ``Generator``.
        """
        rng = np.random.default_rng(rng)
        u = rng.uniform(*self._cdf_bounds, size=self.n_draws)
        z = np.log(u) - np.log1p(-u)
        alphas = self.loc + self.scale * z
        # z is the logit of u, so the density factor sigma(z) sigma(-z) is u (1 - u).
        weights = self.scale * self._truncated_mass / (u * (1.0 - u))
        return alphas, weights
