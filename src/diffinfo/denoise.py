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
marginals.  Components with bit-equal covariances, such as classes that differ
only in their mean, form a group with one U and one s.  Each component keeps
its own residual z, so its log-likelihood is as exact as a direct solve's (a
linear discriminant against one member of the group, which would spare those
terms, lost 6e-8 of a responsibility between members 800 apart at s = 1e-4),
and a group's weighted z / s is summed before its one back product:

    eps_hat = sqrt(sigma(-a)) * sum over groups of (sum_k r_k z_k / s)^T U^T.

The responsibilities are one softmax of log w_k - sum z_k^2 / 2s - log det S / 2,
shifted by the per-row maximum so that far-separated components underflow to
zero weight instead of NaN.  The mixture, not the call, decides the log det S
term: with one covariance group it cancels and is never taken, with more it is
always taken, even for an entry within one group.  So every call on a mixture
forms a row's logits by the same steps, whatever the call's other entries.

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
components its condition excludes; those get zero responsibility and add
exact zeros to the softmax's sum, so a row keeps its own condition's bits.
A single condition selects the same subset for every row, which keeps the
arithmetic of a batch under one condition unchanged.

A mixture call takes the terms no condition changes (x_a U and s once a
group, z, z / s and the Mahalanobis term once a component, and log det S
unless the mixture has one group) in one pass over the union of its entries'
components, in work arrays it keeps between calls.  Each entry then works over
its own components only, by a one-entry call's arithmetic, so its rows are bit
for bit those of its own call.  That is why its back product is an (n, d) GEMM
a group and not one (K n)-row GEMM for K entries: numpy takes a matrix-vector
path for a one-row operand, which gives other bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, NamedTuple

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


class _Selection(NamedTuple):
    """Components at the sorted ``ranks``, their log-weights (k, 1) or per row (k, n), and their
    ``runs`` of one covariance group each, as (start, end): the run of each component
    (``places``), the runs' bases U (g, d, d) and eigenvalues (g, d, 1), and each component's
    rotated mean U^T mu (k, d, 1)."""

    ranks: np.ndarray
    log_w: np.ndarray | None
    runs: list
    places: np.ndarray
    bases: np.ndarray
    eigvals: np.ndarray
    means: np.ndarray

    def spread(self, terms):
        """Terms (g, ...) a run as terms (k, ...) a component: a view unless runs differ in size."""
        return terms if len(terms) in (1, len(self.ranks)) else terms[self.places]


class _Shared(NamedTuple):
    """The terms of a call that no entry changes: z / s (k, d, n) and half the Mahalanobis
    terms (k, n) over the ``union`` of the entries' components, and half of each one's log
    det S, (1, n) for one group and (k, n) for more, or None if the mixture has one group.
    That rule is the mixture's, so an entry's logits take the same steps in every call."""

    selections: list
    union: _Selection
    q: np.ndarray
    neg_loglik: np.ndarray
    half_logdet: np.ndarray | None
    root_sna: Any


class _Work(NamedTuple):
    """Work arrays for one batch size, kept between calls.  Allocated afresh on every call,
    they made glibc trim the heap when freed and fault it back in, a fault per page; an
    estimator chunk of 8,000 rows at d = 2 and k = 3 keeps 2.5 MB of them.  Every array is
    written before it is read in each call, so no entry sees another's or a past call's bits;
    half log det S is written only for a mixture of more than one group, in every call."""

    xu: np.ndarray  # (g, n, d): x_a U, then each entry's back products
    s: np.ndarray  # (g, d, n): s, then log s
    z: np.ndarray  # (k, d, n): the mean shift, then z, then each entry's sums over a group
    q: np.ndarray  # (k, d, n): (x_a U)^T, then z / s
    taken: np.ndarray  # (k, d, n): the z / s of an entry's components
    neg_loglik: np.ndarray  # (k, n)
    resp: np.ndarray  # (k, n): each entry's responsibilities
    half_logdet: np.ndarray  # (g, n)


class GmmDenoiser:
    """Exact posterior-mean noise predictor for a :class:`GmmSpec` source.

    Components with bit-equal covariances form a group with one eigenbasis:
    a call takes x_a U and s once a group, and each entry's back product once
    a group.  ``predict_eps`` and ``responsibilities`` write their
    per-component terms into arrays the instance keeps, so one instance must
    not serve two threads at once.
    """

    def __init__(self, spec: GmmSpec):
        self.spec = spec
        # GmmSpec is frozen with read-only arrays, so these caches cannot go stale.
        # Components are ranked group by group, so that the sorted ranks of any
        # selection come in one run a group; one eigh a group.
        _, group = distinct_rows([c.tobytes() for c in spec.covariances])
        self._order = np.argsort(group, kind="stable")  # the component at each rank
        self._rank = np.argsort(self._order)  # the rank of each component
        self._group = np.array(group)[self._order]  # the group at each rank, nondecreasing
        firsts = self._order[np.flatnonzero(np.diff(self._group, prepend=-1))]
        self._eigvals, self._eigvecs = np.linalg.eigh(spec.covariances[firsts])
        self._rot_means = np.einsum("kij,ki->kj", self._eigvecs[self._group], spec.means[self._order])
        self._resolved: dict = {}  # condition -> its _Selection
        self._per_row = (None, None)  # (per-row conditions, their _Selection)
        self._work = (-1, ())  # (rows, arrays) reused by every call, see _work_arrays

    @property
    def dim(self) -> int:
        return self.spec.dim

    def predict_eps(self, x_alpha, alpha, *entries) -> np.ndarray:
        x2, a = as_batch(x_alpha, alpha, self.dim)
        n = x2.shape[0]
        shared = self._shared_pass(x2, a, entries or (None,))
        work = self._work[1]
        eps_hat, last = np.empty((len(shared.selections) * n, x2.shape[1])), len(shared.selections) - 1
        for e, selection in enumerate(shared.selections):  # each over its own components only
            k, g = len(selection.ranks), len(selection.runs)
            pos = None if k == len(shared.union.ranks) else np.searchsorted(shared.union.ranks, selection.ranks)
            rs = np.multiply(shared.root_sna, self._entry_responsibilities(selection, pos, shared), out=work.resp[:k])
            # mode="clip" lets np.take write into the work array; its default buffers a copy.
            q = shared.q if pos is None else np.take(shared.q, pos, axis=0, out=work.taken[:k], mode="clip")
            # w = sqrt(sigma(-a)) sum_k r_k z_k / s over each group's members, then w^T U^T a
            # group, rows as the GEMM's rows, summed over groups.
            if g == k:  # one member a group; the last entry may weigh z / s in place
                w = np.multiply(q, rs[:, None, :], out=work.z[:k] if e < last else q)
            else:
                w = work.z[:g]
                for i, (lo, hi) in enumerate(selection.runs):
                    np.einsum("kn,kdn->dn", rs[lo:hi], q[lo:hi], out=w[i])
            rows = eps_hat[e * n : (e + 1) * n]
            out = rows[None] if g == 1 else work.xu[:g]
            products = np.matmul(w.transpose(0, 2, 1), selection.bases.transpose(0, 2, 1), out=out)
            if g > 1:
                np.add.reduce(products, axis=0, out=rows)
        return eps_hat

    def responsibilities(self, x_alpha, alpha, condition=None) -> np.ndarray:
        """Posterior component probabilities under the corrupted marginal.

        One column per component the condition selects, in index order; for
        per-row conditions, per component any row selects.
        """
        x2, a = as_batch(x_alpha, alpha, self.dim)
        shared = self._shared_pass(x2, a, [condition])
        [selection] = shared.selections
        return self._entry_responsibilities(selection, None, shared).T[:, np.argsort(self._order[selection.ranks])]

    def check_condition(self, condition) -> None:
        """Raise ``ValueError`` unless ``condition`` selects components of the mixture."""
        self._resolve(condition)

    def _resolve(self, condition):
        """The :class:`_Selection` of ``condition``'s components, with their log conditional weights.

        Each condition is resolved once per denoiser; a condition that raises
        is not stored, so it raises again on every call.
        """
        entry = self._resolved.get(condition)
        if entry is None:
            ranks = np.sort(self._rank[self.spec.components_for(condition)])
            entry = self._selection(ranks, np.log(self.spec.conditional_weights(self._order[ranks]))[:, None])
            self._resolved[condition] = entry
        return entry

    def _select(self, condition, n_rows):
        """The :class:`_Selection` of a condition, or of per-row conditions.

        Per-row conditions get the union of their components, with -inf where
        a row's condition excludes a component.  The last per-row result is
        kept: the flow passes the same conditions to every step of a solve.
        """
        if not is_per_row(condition, n_rows):
            return self._resolve(condition)
        key = tuple(condition)
        if key != self._per_row[0]:
            distinct, columns = distinct_rows(condition)
            entries = [self._resolve(c) for c in distinct]
            ranks = _union(sel.ranks for sel in entries)
            log_w = np.full((ranks.size, len(entries)), -np.inf)
            for j, sel in enumerate(entries):
                log_w[np.searchsorted(ranks, sel.ranks), j] = sel.log_w[:, 0]
            self._per_row = key, self._selection(ranks, log_w[:, columns])
        return self._per_row[1]

    def _selection(self, ranks, log_w) -> _Selection:
        at = self._group[ranks]
        starts = np.flatnonzero(np.diff(at, prepend=-1))
        groups = at[starts]
        runs = list(zip(starts.tolist(), [*starts[1:].tolist(), ranks.size]))
        places = np.cumsum(np.diff(at, prepend=at[:1]) != 0)
        every = len(groups) == len(self._eigvals)  # every group: views, not copies
        bases, eigvals = (self._eigvecs, self._eigvals) if every else (self._eigvecs[groups], self._eigvals[groups])
        means = self._rot_means[ranks, :, None]
        return _Selection(ranks, log_w, runs, places, bases, eigvals[:, :, None], means)

    def _entry_responsibilities(self, selection, pos, shared):
        """Responsibilities (k, n) of the components of ``selection``, at ``pos`` in the union."""
        work = self._work[1]
        out = work.resp[: len(selection.ranks)]
        neg_ll = shared.neg_loglik if pos is None else np.take(shared.neg_loglik, pos, axis=0, out=out, mode="clip")
        logits = np.subtract(selection.log_w, neg_ll, out=out)
        half_logdet = shared.half_logdet
        if half_logdet is not None:
            logits -= half_logdet if pos is None or len(half_logdet) == 1 else half_logdet[pos]
        return _softmax(logits)

    def _work_arrays(self, n_rows) -> _Work:
        """The :class:`_Work` arrays for ``n_rows`` rows, kept while the batch size repeats."""
        if self._work[0] != n_rows:
            g, k, d = len(self._eigvals), self.spec.n_components, self.dim
            shapes = [(g, n_rows, d), (g, d, n_rows), *[(k, d, n_rows)] * 3, *[(k, n_rows)] * 2]
            self._work = n_rows, _Work(*map(np.empty, shapes + [(g, n_rows)]))
        return self._work[1]

    def _shared_pass(self, x2, a, conditions) -> _Shared:
        """The terms of a batch that no condition changes, over the union of the components
        that ``conditions`` select.  The arrays hold until the next call."""
        selections = [self._select(c, x2.shape[0]) for c in conditions]
        union = selections[0]
        if len(selections) > 1:
            union = self._selection(_union(sel.ranks for sel in selections), None)
        k, g = len(union.ranks), len(union.runs)
        work = self._work_arrays(x2.shape[0])
        # A batch at one log-SNR (each flow step) is a zero-stride broadcast:
        # weigh it once, on the sigmoid's scalar path.  s and the mean shift
        # are then (g, d, 1) and (k, d, 1), small enough to take no work array.
        a = float(a[0]) if a.size and a.strides == (0,) else a
        sa, sna = signal_weight(a), noise_weight(a)
        scalar = isinstance(a, float)
        # x_a U once a group, rows as the GEMM's rows, made contiguous (g, d, n): read from the
        # transpose, each later step would cross strides.
        xut = work.q[:g]
        np.copyto(xut, np.matmul(x2, union.bases, out=work.xu[:g]).transpose(0, 2, 1))
        # One log-SNR a row makes s and the mean shift outer products (n) x (g or k, d).  Up to
        # about 1,000 rows numpy's broadcast loop takes about 1 ns a product, einsum half that
        # plus 1-2 us a call; below 16 directions, or from about 4,000 rows, the broadcast is
        # the faster.  Chosen by n and d, never k, an entry's own call takes the same path.
        outer = _outer if not scalar and x2.shape[0] <= 1000 and x2.shape[1] >= 16 else np.multiply
        s = outer(sa, union.eigvals, out=None if scalar else work.s[:g])
        s += sna
        # z = (x_a U)^T - sqrt(sigma(a)) U^T mu and z / s, each component from its group's terms
        shift = outer(np.sqrt(sa), union.means, out=None if scalar else work.z[:k])
        z = np.subtract(union.spread(xut), shift, out=work.z[:k])
        q = np.divide(z, union.spread(s), out=work.q[:k])
        z *= q  # z^2 / s, the Mahalanobis terms
        neg_loglik = np.add.reduce(z, axis=1, out=work.neg_loglik[:k])
        neg_loglik *= 0.5
        # log det S cancels from the softmax of a mixture with one covariance group.
        half_logdet = None
        if len(self._eigvals) > 1:
            half_logdet = np.add.reduce(np.log(s, out=s), axis=1, out=None if scalar else work.half_logdet[:g])
            half_logdet *= 0.5
            half_logdet = union.spread(half_logdet)
        return _Shared(selections, union, q, neg_loglik, half_logdet, np.sqrt(sna))


def _softmax(logits):
    """Softmax over the first axis of ``logits`` (k, n), in place.  Shifted by their per-row
    maximum, far-separated components get zero weight, not NaN."""
    logits -= np.maximum.reduce(logits, axis=0)
    resp = np.exp(logits, out=logits)
    return np.divide(resp, np.add.reduce(resp, axis=0), out=resp)


def _outer(v, m, out):
    """The products of ``v`` (n,) and ``m`` (k, d, 1) as (k, d, n), by einsum."""
    return np.einsum("n,kd->kdn", v, m[:, :, 0], out=out)


def _union(selections) -> np.ndarray:
    """The sorted union of index arrays: a sorted set, not np.unique, which imports numpy.ma."""
    return np.array(sorted({int(k) for sel in selections for k in sel}))


def gmm_mmse(spec: GmmSpec) -> GmmDenoiser:
    """Closed-form denoiser for Gaussian-mixture data."""
    return GmmDenoiser(spec)
