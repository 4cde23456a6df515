"""Deterministic probability-flow transport along the noise channel.

The denoiser defines a score through

    score(z, a) = -eps_hat(z, a) / sqrt(sigma(-a)),

and the flow that preserves the channel marginals while moving along log-SNR
is

    dz/da = 1/2 sigma(-a) (z + score(z, a))
          = 1/2 sigma(-a) z - 1/2 sqrt(sigma(-a)) eps_hat(z, a).

Coefficient algebra: along the channel z_a = s(a) x + n(a) eps with
s = sqrt(sigma(a)), n = sqrt(sigma(-a)), the velocity for fixed (x, eps) is
s'(a) x + n'(a) eps with s' = s sigma(-a)/2 and n' = -n sigma(a)/2; the
marginal flow field is its posterior mean s' E[x|z] + n' E[eps|z], and
substituting E[x|z] = (z - n eps_hat)/s collapses it to the form above.
With eps_hat = 0 the flow is linear and the exact map from a0 to a1 is
multiplication by sqrt(sigma(a1)/sigma(a0)); a unit test pins the solver
against this closed form.

Integration uses Heun's second-order predictor-corrector on a uniform
log-SNR grid.  Both grid endpoints are regular evaluation points in this
parametrization, so every step, including the final one, uses the full
corrector update; an Euler fallback at the terminal node would contribute a
local error around h^2/2 * |z''| by itself, which at 100 steps is larger
than the round-trip budget.  Encoding integrates from alpha_max down to
alpha_min (data to latent); decoding reverses the grid.  Both return only
the end state, in the shape of their input: no path is stored.  The
denoiser takes rows, so ``_integrate`` turns a single point into one row.

Conditions pass through to the denoiser, so a batch may carry one condition
per row.  ``intervene`` uses this: it encodes every point once under its own
condition, then decodes the round trip and the edit together, as one batch
of twice the rows under the input conditions followed by the output ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import noise_weight
from .denoise import is_per_row


class SolverError(RuntimeError):
    """Raised when the flow state stops being finite; carries the step index."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class SolverConfig:
    n_steps: int = 100
    alpha_min: float = -5.0
    alpha_max: float = 7.0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")
        if not self.alpha_min < self.alpha_max:
            raise ValueError(
                f"alpha_min must be below alpha_max, got [{self.alpha_min}, {self.alpha_max}]"
            )


def _velocity(denoiser, state, alpha, condition) -> np.ndarray:
    """dz/da of the probability flow at ``state`` and log-SNR ``alpha``."""
    sna = noise_weight(float(alpha))
    return 0.5 * sna * state - 0.5 * np.sqrt(sna) * denoiser.predict_eps(state, float(alpha), condition)


def _integrate(denoiser, z0, grid, condition) -> np.ndarray:
    z = np.array(z0, dtype=float, ndmin=2)  # the denoiser takes rows
    # A state that overflows fails the finiteness check below, which raises
    # SolverError; numpy's warnings on the way there would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.size - 1):
            h = grid[i + 1] - grid[i]
            v0 = _velocity(denoiser, z, grid[i], condition)
            z_pred = z + h * v0
            v1 = _velocity(denoiser, z_pred, grid[i + 1], condition)
            z = z + 0.5 * h * (v0 + v1)
            if not np.all(np.isfinite(z)):
                alpha = float(grid[i + 1])
                raise SolverError(f"non-finite state at step {i + 1} (alpha={alpha!r})", step=i + 1)
    return z.reshape(np.shape(z0))


def encode(x, denoiser, condition=None, config: SolverConfig = SolverConfig()) -> np.ndarray:
    """The latent that ``x`` flows to at the noise end (alpha_max -> alpha_min).

    ``x`` may be a single point of shape (d,) or a batch of shape (m, d);
    ``condition`` may be one condition or a list with one per row.  The
    result has the shape of ``x``.
    """
    grid = np.linspace(config.alpha_max, config.alpha_min, config.n_steps + 1)
    return _integrate(denoiser, x, grid, condition)


def decode(latent, denoiser, condition=None, config: SolverConfig = SolverConfig()) -> np.ndarray:
    """The data point that ``latent`` flows back to (alpha_min -> alpha_max)."""
    grid = np.linspace(config.alpha_min, config.alpha_max, config.n_steps + 1)
    return _integrate(denoiser, latent, grid, condition)


@dataclass(frozen=True, eq=False)
class InterventionResult:
    """Edited points, their per-dimension squared change and L2 change, and
    the L2 error of the round trip under the input condition.

    For a single input point the L2 fields are floats; for rows of shape
    (n, d) every field has one entry per row.
    """

    x_edited: np.ndarray
    delta_per_dim: np.ndarray
    delta_l2: float | np.ndarray
    roundtrip_l2: float | np.ndarray


def intervene(
    x,
    denoiser,
    cond_in,
    cond_out,
    config: SolverConfig = SolverConfig(),
) -> InterventionResult:
    """Encode under ``cond_in``, decode under ``cond_out``, measure the change.

    ``x`` is one point of shape (d,) or rows of shape (n, d); ``cond_in`` and
    ``cond_out`` are single conditions or lists with one per row.  The points
    are encoded once, and the round trip and the edit are decoded in one
    batch, so a row whose output condition equals its input condition has
    ``delta_l2 == roundtrip_l2`` exactly.
    """
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    n = rows.shape[0]
    cond_in, cond_out = (list(c) if is_per_row(c, n) else [c] * n for c in (cond_in, cond_out))
    latent = encode(rows, denoiser, cond_in, config)
    decoded = decode(np.concatenate([latent, latent]), denoiser, cond_in + cond_out, config)
    delta = (rows - decoded[n:]) ** 2
    delta_l2 = np.sqrt(delta.sum(axis=1))
    roundtrip_l2 = np.sqrt(((rows - decoded[:n]) ** 2).sum(axis=1))
    if x.ndim == 1:
        return InterventionResult(decoded[n], delta[0], float(delta_l2[0]), float(roundtrip_l2[0]))
    return InterventionResult(decoded[n:], delta, delta_l2, roundtrip_l2)
