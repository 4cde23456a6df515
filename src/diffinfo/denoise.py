"""Minimum-mean-square-error denoisers for Gaussian and mixture data.

Every denoiser in the package, here and in :mod:`diffinfo.mlp`, is a noise
predictor with a ``dim`` and a ``predict_eps(x_alpha, alpha, *entries)``.
``x_alpha`` is rows of shape (n, d), and ``alpha`` a scalar log-SNR or one
per row; any other shape raises ``ValueError`` naming it.  Each entry is one
hashable condition for every row, or a list or tuple with one condition per
row; a per-row list of the wrong length raises ``ValueError``.  No entry
means the one entry ``None``.  The result, a new array that the caller may
overwrite, is every row under each entry, stacked entry by entry: (K·n, d)
for K entries.  A denoiser may share work between the entries of one call, but
each entry's rows are those of its own call.  Predictions are
deterministic: identical inputs yield identical outputs.  A condition is any
payload the denoiser understands: a :class:`ConditionId` for the mixture and
the MLP, each of which has a ``check_condition`` that raises ``ValueError``
for one it cannot take.  A dataset is an (n, d) array with a list of one
condition per point.

The optimal noise predictor for the channel in :mod:`diffinfo.channel` is the
posterior mean E[eps | x_a].  For a Gaussian source N(mu, C) the corrupted
marginal at log-SNR a is N(sqrt(sigma(a)) mu, S) with
S = sigma(a) C + sigma(-a) I, and

    eps_hat(x_a) = sqrt(sigma(-a)) * S^{-1} (x_a - sqrt(sigma(a)) mu).

The denoiser works in the eigenbasis of each covariance.  With C = U Lam U^T
computed once, S = U (sigma(a) Lam + sigma(-a) I) U^T shares the eigenvectors
of C, so in the rotated frame S is the diagonal s = sigma(a) lam + sigma(-a).
The rotated residual z = U^T x_a - sqrt(sigma(a)) U^T mu then gives

    log det S = sum log s,    Mahalanobis term = sum z^2 / s,
    eps_hat(x_a) = sqrt(sigma(-a)) * U (z / s),

at O(d^2) per row instead of a d x d solve.  No clamp on s is needed:
:class:`GmmSpec` rejects covariances that are not positive definite, so
lam > 0, and sigma(-a) > 0 for every finite a.

The per-component terms are laid out (k, d, n), with the n rows on the last,
contiguous axis.  Every elementwise step (s, the shift by sqrt(sigma(a)) U^T mu,
z / s) and every sum over the d eigen-directions (log det S, the Mahalanobis
term) is then one loop over rows, instead of a loop of length d per row; at
small d, where the estimators call the denoiser with hundreds of rows, that
loop overhead is most of the cost.  The two products with the eigenvectors,
x_a U and (z / s)^T U^T, stay GEMMs with the rows as the matrices' rows, so
each row's output is computed the same way wherever it sits in the batch:
duplicate rows give identical bits, which the flow's exact null edits rely
on.  Computing the second as a (d, d) @ (d, n) product, U (z / s), gave
duplicate rows different last bits at d = 64.

For a mixture, eps_hat is the responsibility-weighted combination of the
per-component predictors, with responsibilities taken under the corrupted
marginals.  Responsibilities are computed from log densities shifted by their
per-row maximum, so that far-separated components underflow to zero weight
instead of NaN.

Conditioning is by token: a :class:`ConditionId` carries a label and/or
context tokens, and selects the mixture components consistent with every one
of its tokens (intersection of the ``condition_map`` entries), with weights
renormalized.  Conditioning on context alone therefore marginalizes over all
labels consistent with that context.  A :class:`GmmDenoiser` resolves each
condition once, into its components and their log conditional weights, and
keeps the result; a condition that fails to resolve raises on every call.

A batch may carry one condition per row.  The mixture denoiser then
evaluates the union of the components that any row selects, and gives each
row the log-weights of its own conditional mixture, with -inf on the
components its condition excludes; those get zero responsibility.  A single
condition selects the same subset for every row, which keeps the arithmetic
of a batch under one condition unchanged.

A mixture call takes the terms no condition changes (x_a U, z, s, z / s, log
det S and the Mahalanobis term) in one pass over the union of its entries'
components.  When every covariance is bit-equal, as for classes that differ
only in their mean, the components share one eigenbasis and x_a U, s and log
det S are taken once; else once a component.  Each entry then works over its
own components only, by a one-entry call's arithmetic, so its rows are bit for
bit those of its own call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any

import numpy as np

from .channel import noise_weight, signal_weight


@dataclass(frozen=True)
class ConditionId:
    """A conditioning event: a label token, context tokens, or both."""

    label: str | None = None
    context: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "context", tuple(self.context))
        if self.label is None and not self.context:
            raise ValueError("a condition must carry a label or at least one context token")

    @property
    def tokens(self) -> tuple[str, ...]:
        if self.label is None:
            return self.context
        return (self.label,) + self.context


def as_batch(x_alpha, alpha, dim: int):
    """The rows (n, dim) of ``x_alpha`` and one log-SNR per row."""
    x = np.asarray(x_alpha, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"x_alpha must be rows of shape (n, {dim}), got shape {x.shape}")
    if x.shape[1] != dim:
        raise ValueError(
            f"dimension mismatch: denoiser has dimension {dim} "
            f"but x_alpha has dimension {x.shape[1]}"
        )
    a = np.asarray(alpha, dtype=float)
    if a.ndim == 0:  # a read-only zero-stride row of one value, built at a fifth of np.broadcast_to's cost
        return x, np.ndarray((x.shape[0],), float, a.tobytes(), 0, (0,))
    return x, np.broadcast_to(a, (x.shape[0],))


def is_per_row(condition, n_rows: int) -> bool:
    """Whether ``condition`` is a list or tuple of per-row conditions, checked for length."""
    if not isinstance(condition, (list, tuple)):
        return False
    if len(condition) != n_rows:
        raise ValueError(f"got {len(condition)} per-row conditions for {n_rows} rows")
    return True


def distinct_rows(conditions):
    """The distinct values of a list, such as per-row conditions, and each one's index into them.

    The values come in order of first appearance; equal conditions are one
    entry, so a per-row list costs one entry per distinct condition.
    """
    slot: dict = {}
    index = [slot.setdefault(c, len(slot)) for c in conditions]
    return list(slot), index


@dataclass(frozen=True, eq=False)
class GmmSpec:
    """A Gaussian mixture with token-addressable component subsets.

    ``condition_map`` maps each vocabulary token to the components consistent
    with it; a :class:`ConditionId` selects the intersection of its tokens'
    entries.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    condition_map: Any = field(default_factory=dict)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.atleast_2d(np.asarray(self.means, dtype=float))
        cov = np.asarray(self.covariances, dtype=float)
        if cov.ndim == 2:
            cov = cov[None, :, :]
        k, d = mu.shape
        if w.shape != (k,):
            raise ValueError(f"expected {k} weights, got shape {w.shape}")
        if cov.shape != (k, d, d):
            raise ValueError(f"expected covariances of shape {(k, d, d)}, got {cov.shape}")
        for noun, values in (("weight", w), ("mean", mu), ("covariance", cov)):
            if not np.isfinite(values).all():
                raise ValueError(f"component {np.argwhere(~np.isfinite(values))[0][0]} has a non-finite {noun}")
        if np.any(w <= 0):
            raise ValueError("component weights must be positive")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"component weights must sum to 1, got {w.sum()!r}")
        for i in range(k):
            if not np.allclose(cov[i], cov[i].T, rtol=0, atol=1e-12):
                raise ValueError(f"component {i} covariance is not symmetric")
            try:
                np.linalg.cholesky(cov[i])
            except np.linalg.LinAlgError:
                raise ValueError(f"component {i} covariance is not positive definite") from None
        cmap = {}
        for token, idx in dict(self.condition_map).items():
            idx = tuple(int(i) for i in idx)
            if not idx:
                raise ValueError(f"condition token {token!r} maps to no components")
            if any(i < 0 or i >= k for i in idx):
                raise ValueError(f"condition token {token!r} has component index out of range")
            cmap[str(token)] = idx
        for arr in (w, mu, cov):
            arr.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)
        object.__setattr__(self, "condition_map", MappingProxyType(cmap))

    @classmethod
    def single(cls, mean, covariance) -> "GmmSpec":
        return cls(weights=[1.0], means=[np.atleast_1d(mean)], covariances=[np.atleast_2d(covariance)])

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def components_for(self, condition) -> np.ndarray:
        """Component indices consistent with ``condition`` (all, if None)."""
        if condition is None:
            return np.arange(self.n_components)
        if not isinstance(condition, ConditionId):
            raise TypeError(f"expected ConditionId or None, got {type(condition).__name__}")
        selected = set(range(self.n_components))
        for token in condition.tokens:
            if token not in self.condition_map:
                raise ValueError(
                    f"unknown condition token {token!r}; vocabulary is {sorted(self.condition_map)}"
                )
            selected &= set(self.condition_map[token])
        if not selected:
            raise ValueError(f"condition {condition} selects no components")
        return np.array(sorted(selected))

    def partition(self, tokens) -> np.ndarray:
        """For each component, the index in ``tokens`` of the one token that selects it.

        Raises ``ValueError`` unless the tokens partition the components:
        every token is known and every component sits under exactly one.
        """
        owner = np.full(self.n_components, -1)
        for j, token in enumerate(tokens):
            if token not in self.condition_map:
                raise ValueError(f"unknown label token {token!r}")
            for k in self.condition_map[token]:
                if owner[k] >= 0:
                    raise ValueError(
                        f"labels do not partition the components: {k} appears under "
                        f"{tokens[owner[k]]!r} and {token!r}"
                    )
                owner[k] = j
        missing = np.flatnonzero(owner < 0)
        if missing.size:
            raise ValueError(f"labels do not cover components {missing.tolist()}")
        return owner

    def conditional_weights(self, indices) -> np.ndarray:
        w = self.weights[np.asarray(indices)]
        return w / w.sum()

    def sample(self, n, rng) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` points and their component indices."""
        rng = np.random.default_rng(rng)
        comps = rng.choice(self.n_components, size=n, p=self.weights)
        chols = np.linalg.cholesky(self.covariances)
        z = rng.standard_normal((n, self.dim))
        x = self.means[comps] + np.einsum("nij,nj->ni", chols[comps], z)
        return x, comps


class GmmDenoiser:
    """Exact posterior-mean noise predictor for a :class:`GmmSpec` source.

    When every covariance is bit-equal the components share one eigenbasis,
    and a call takes x_a U, s and log det S once, not once a component.
    ``predict_eps`` and ``responsibilities`` write their per-component terms
    into arrays the instance keeps, so one instance must not serve two
    threads at once.
    """

    def __init__(self, spec: GmmSpec):
        self.spec = spec
        # GmmSpec is frozen with read-only arrays, so these caches cannot go stale.
        # One eigh when every covariance is bit-equal, else one a component; each component
        # keeps its basis's eigenvectors for the back product.
        self._one_basis = len(distinct_rows([c.tobytes() for c in spec.covariances])[0]) == 1
        n_bases = 1 if self._one_basis else spec.n_components
        self._eigvals, vecs = np.linalg.eigh(spec.covariances[:n_bases])
        self._eigvecs = np.repeat(vecs, spec.n_components // n_bases, axis=0)
        self._rot_means = np.einsum("kij,ki->kj", self._eigvecs, spec.means)
        self._log_2pi_d = spec.dim * np.log(2 * np.pi)
        self._resolved: dict = {}  # condition -> (components, log conditional weights)
        self._per_row = (None, None)  # (per-row conditions, their _log_weights result)
        self._work = (-1, ())  # (rows, arrays) reused by every call, see _work_arrays

    @property
    def dim(self) -> int:
        return self.spec.dim

    def predict_eps(self, x_alpha, alpha, *entries) -> np.ndarray:
        x2, a = as_batch(x_alpha, alpha, self.dim)
        n = x2.shape[0]
        selections, idx, u, zs, neg_loglik, root_sna, free = self._shared_pass(x2, a, entries or (None,))
        eps_hat, last = np.empty((len(selections) * n, x2.shape[1])), len(selections) - 1
        for e, (sel, log_w) in enumerate(selections):  # each entry over its own components only
            pos = None if sel.size == idx.size else np.searchsorted(idx, sel)
            prod, weighted, log_joint = free if pos is None else [w[: sel.size] for w in free]
            # mode="clip" lets np.take write into the work array; its default buffers a copy.
            neg_ll = neg_loglik if pos is None else np.take(neg_loglik, pos, axis=0, out=log_joint, mode="clip")
            resp = _responsibilities(log_w, neg_ll, log_joint)
            wzs = zs if pos is None else np.take(zs, pos, axis=0, out=weighted, mode="clip")
            # The last entry may weigh z / s in place: no later entry reads it.
            wzs = np.multiply(wzs, np.multiply(root_sna, resp, out=resp)[:, None, :], out=weighted if e < last else wzs)
            # (zs r)^T U^T per component, rows as the GEMM's rows, summed over k.
            u_e = (u if pos is None else self._eigvecs[sel]).transpose(0, 2, 1)
            np.add.reduce(np.matmul(wzs.transpose(0, 2, 1), u_e, out=prod), axis=0, out=eps_hat[e * n : (e + 1) * n])
        return eps_hat

    def responsibilities(self, x_alpha, alpha, condition=None) -> np.ndarray:
        """Posterior component probabilities under the corrupted marginal.

        One column per component the condition selects, in index order; for
        per-row conditions, per component any row selects.
        """
        x2, a = as_batch(x_alpha, alpha, self.dim)
        [(_, log_w)], _, _, _, neg_loglik, _, (_, _, log_joint) = self._shared_pass(x2, a, [condition])
        return _responsibilities(log_w, neg_loglik, log_joint).T.copy()

    def check_condition(self, condition) -> None:
        """Raise ``ValueError`` unless ``condition`` selects components of the mixture."""
        self._resolve(condition)

    def _resolve(self, condition):
        """Components ``condition`` selects and their log conditional weights.

        Each condition is resolved once per denoiser; a condition that raises
        is not stored, so it raises again on every call.
        """
        entry = self._resolved.get(condition)
        if entry is None:
            idx = self.spec.components_for(condition)
            entry = idx, np.log(self.spec.conditional_weights(idx))
            self._resolved[condition] = entry
        return entry

    def _log_weights(self, condition, n_rows):
        """Components to evaluate and their log-weights, (k, 1) or per row (k, n).

        Per-row conditions get the union of their components, with -inf where
        a row's condition excludes a component.  The last per-row result is
        kept: the flow passes the same conditions to every step of a solve.
        """
        if not is_per_row(condition, n_rows):
            idx, log_w = self._resolve(condition)
            return idx, log_w[:, None]
        key = tuple(condition)
        if key != self._per_row[0]:
            distinct, columns = distinct_rows(condition)
            entries = [self._resolve(c) for c in distinct]
            idx = _union(sel for sel, _ in entries)
            log_w = np.full((idx.size, len(entries)), -np.inf)
            for j, (sel, sel_log_w) in enumerate(entries):
                log_w[np.searchsorted(idx, sel), j] = sel_log_w
            self._per_row = key, (idx, log_w[:, columns])
        return self._per_row[1]

    def _work_arrays(self, n_rows):
        """Work arrays for ``n_rows`` rows and every component, kept while the batch size repeats.

        (k, n, d) for x_a U, then each entry's back product; (k, d, n) for z,
        then each entry's weighted z / s, for s and for z / s; (k, n) for the
        negative log-likelihoods and for log det S, then each entry's
        responsibilities.  An estimator chunk of 8,000 rows at d = 2 and k = 3
        keeps 1.9 MB of them.  Allocated afresh on every call, they made glibc
        trim the heap when freed and fault it back in, a fault per page.
        """
        if self._work[0] != n_rows:
            k, d = self.spec.n_components, self.dim
            self._work = n_rows, (
                np.empty((k, n_rows, d)),
                *(np.empty((k, d, n_rows)) for _ in range(3)),
                *(np.empty((k, n_rows)) for _ in range(2)),
            )
        return self._work[1]

    def _shared_pass(self, x2, a, conditions):
        """The terms of a batch that no condition changes, over the union of the components
        that ``conditions`` select: each condition's (components, log-weights), the union and
        its eigenvectors (k, d, d), z / s, each component's negative log-likelihood (k, n),
        sqrt(sigma(-a)) and three free work arrays.  The arrays hold until the next call."""
        selections = [self._log_weights(c, x2.shape[0]) for c in conditions]
        idx = selections[0][0] if len(selections) == 1 else _union(sel for sel, _ in selections)
        k = idx.size
        xu, z, s, zs, neg_loglik, spare = self._work_arrays(x2.shape[0])
        xu, z, zs, neg_loglik, spare = xu[:k], z[:k], zs[:k], neg_loglik[:k], spare[:k]
        # A batch at one log-SNR (each flow step) is a zero-stride broadcast:
        # weigh it once, on the sigmoid's scalar path.  s and the mean shift
        # are then (g, d, 1) and (k, d, 1), small enough to take no work array.
        a = float(a[0]) if a.size and a.strides == (0,) else a
        sa, sna = signal_weight(a), noise_weight(a)
        scalar = isinstance(a, float)
        comps = slice(None) if k == len(self._eigvecs) else idx  # every component: views, not copies
        u = self._eigvecs[comps]
        # g = 1 basis broadcast to the k components when they all share it, else g = k, one each.
        bases, g = (slice(1), 1) if self._one_basis else (comps, k)
        # z = (x_a U)^T - sqrt(sigma(a)) U^T mu, with (x_a U)^T made contiguous first: in z to be
        # shifted in place when g = k, else in s; read from the transpose, it would cross strides.
        xut = z if g == k else s[:g]
        np.copyto(xut, np.matmul(x2, self._eigvecs[bases], out=xu[:g]).transpose(0, 2, 1))
        np.subtract(xut, np.multiply(np.sqrt(sa), self._rot_means[comps, :, None], out=None if scalar else zs), out=z)
        s = np.multiply(sa, self._eigvals[bases, :, None], out=None if scalar else s[:g])
        s += sna
        np.divide(z, s, out=zs)
        z *= zs  # z^2 / s, the Mahalanobis terms
        logdet = np.add.reduce(np.log(s, out=s), axis=1, out=None if scalar else spare[:g])
        # (d log(2 pi) + log det S + Mahalanobis) / 2, in place
        logdet += self._log_2pi_d
        np.add.reduce(z, axis=1, out=neg_loglik)
        neg_loglik += logdet
        neg_loglik *= 0.5
        return selections, idx, u, zs, neg_loglik, np.sqrt(sna), (xu, z, spare)


def _responsibilities(log_w, neg_loglik, out):
    """Responsibilities (k, n) from log-weights and the negative log-likelihoods, in ``out``."""
    np.subtract(log_w, neg_loglik, out=out)
    out -= np.maximum.reduce(out, axis=0)
    resp = np.exp(out, out=out)
    return np.divide(resp, np.add.reduce(resp, axis=0), out=resp)


def _union(selections) -> np.ndarray:
    """The sorted union of index arrays: a sorted set, not np.unique, which imports numpy.ma."""
    return np.array(sorted({int(k) for sel in selections for k in sel}))


def gmm_mmse(spec: GmmSpec) -> GmmDenoiser:
    """Closed-form denoiser for Gaussian-mixture data."""
    return GmmDenoiser(spec)
