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
alpha_min (data to latent); decoding reverses the grid.  Both take rows of
shape (n, d), as the denoiser does, and return only the end state of each
row: no path is stored.  A single point is the row ``x[None]``.

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
    z = np.asarray(z0, dtype=float)
    if z.ndim != 2:
        raise ValueError(f"the flow takes rows of shape (n, d), got shape {z.shape}")
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
    return z


def encode(x, denoiser, condition=None, config: SolverConfig = SolverConfig()) -> np.ndarray:
    """The latents that the rows ``x`` (n, d) flow to at the noise end (alpha_max -> alpha_min).

    ``condition`` may be one condition or a list with one per row.  The
    result has the shape of ``x``.
    """
    grid = np.linspace(config.alpha_max, config.alpha_min, config.n_steps + 1)
    return _integrate(denoiser, x, grid, condition)


def decode(latent, denoiser, condition=None, config: SolverConfig = SolverConfig()) -> np.ndarray:
    """The data rows that the rows ``latent`` (n, d) flow back to (alpha_min -> alpha_max)."""
    grid = np.linspace(config.alpha_min, config.alpha_max, config.n_steps + 1)
    return _integrate(denoiser, latent, grid, condition)


@dataclass(frozen=True, eq=False)
class InterventionResult:
    """Edited rows (n, d), their per-dimension squared change (n, d) and L2
    change (n,), and the L2 error (n,) of the round trip under the input
    condition.
    """

    x_edited: np.ndarray
    delta_per_dim: np.ndarray
    roundtrip_l2: np.ndarray

    @property
    def delta_l2(self) -> np.ndarray:
        """The L2 change of each row: the root of its summed ``delta_per_dim``."""
        return np.sqrt(self.delta_per_dim.sum(axis=1))


def intervene(
    x,
    denoiser,
    cond_in,
    cond_out,
    config: SolverConfig = SolverConfig(),
) -> InterventionResult:
    """Encode under ``cond_in``, decode under ``cond_out``, measure the change.

    ``x`` is rows of shape (n, d); ``cond_in`` and ``cond_out`` are single
    conditions or lists with one per row.  The rows are encoded once, and the
    round trip and the edit are decoded in one batch, so a row whose output
    condition equals its input condition has ``delta_l2 == roundtrip_l2``
    exactly.
    """
    latent = encode(x, denoiser, cond_in, config)  # checks that x is rows
    n = len(latent)
    cond_in, cond_out = (list(c) if is_per_row(c, n) else [c] * n for c in (cond_in, cond_out))
    decoded = decode(np.concatenate([latent, latent]), denoiser, cond_in + cond_out, config)
    roundtrip_l2 = np.sqrt(((x - decoded[:n]) ** 2).sum(axis=1))
    return InterventionResult(decoded[n:], (x - decoded[n:]) ** 2, roundtrip_l2)
