"""The four benchmark workloads: inputs made from the seed, and oracle checks.

Each workload is a list of operations; one operation is one CLI invocation
(``diffinfo <command> --config <file> --out <dir>``).  Specs are built here,
from numpy arrays, and reach the program only as JSON configs, so renames
inside ``diffinfo`` cannot change what the benchmark feeds it.  Oracles use
``scipy.stats``/``scipy.special`` directly and never a ``diffinfo`` code path.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import integrate
from scipy.special import expit, logsumexp
from scipy.stats import multivariate_normal, norm, qmc

NAMES = ("heatmap-d64", "edit-1d", "nll-wide", "mlp-train-rank")

# Sizes per workload.  "full" is what the benchmark measures; "tiny" only
# proves that every metric is produced (see smoke.py).
SIZES = {
    "full": {
        "heatmap-d64": {"samples": 60},
        "edit-1d": {"samples": 25},
        "nll-wide": {"points_per_component": 1024},
        "mlp-train-rank": {"train_points": 2000, "steps": 4000, "rank": 300},
    },
    "tiny": {
        "heatmap-d64": {"samples": 4},
        "edit-1d": {"samples": 4},
        "nll-wide": {"points_per_component": 8},
        "mlp-train-rank": {"train_points": 200, "steps": 300, "rank": 12},
    },
}

# Estimator and solver settings are written into every config, so that a
# change of the program's defaults cannot change the work measured.
SAMPLER = {"loc": 1.0, "scale": 2.0, "clip": 3.0, "n_snr": 100, "n_eps": 4}
SOLVER = {"n_steps": 100, "alpha_min": -5.0, "alpha_max": 7.0}

# Absolute budget on the encode-then-decode error, as in the flow tests.
ROUNDTRIP_BUDGET = 1e-3
# Tolerance of an edit against the exact transport between two Gaussians.
EDIT_TOLERANCE = 1e-3
# How far the mean i^o may sit from the mixture MI: MI_Z_LIMIT standard
# errors of the mean, but never less than MI_FLOOR_NATS.  The per-sample i^o
# totals are right-skewed (sample skewness 1.0-2.7 over 16 seeds at 60
# samples), so a sample that misses the tail has both a low mean and a small
# SE: mean error and SE correlated at 0.79, and seed 808 sat at z = -4.3.
# Over those seeds the mean error had a standard deviation of 0.033 nats;
# the floor is about 4.5 of those.
MI_Z_LIMIT = 4.0
MI_FLOOR_NATS = 0.15


@dataclass
class Op:
    """One CLI invocation and what its worker needs for set-up."""

    command: str
    config: dict
    out: str
    checkpoint: str | None = None  # denoiser checkpoint loaded during set-up
    verify_checkpoint: bool = False  # compare the saved net with its reload
    item_marker: tuple[str, int] | None = None  # (span name, calls per item)


@dataclass
class Workload:
    name: str
    items: int
    item_name: str
    spec: dict  # the mixture, as GmmSpec keyword arguments in JSON form
    ops: list[Op]
    layers: tuple[str, ...]  # spans every traced pass must record
    gauge: str  # the gauge.py kernel that mirrors the workload's hot path
    oracle: dict = field(default_factory=dict)


def _gmm_json(weights, means, covs, condition_map) -> dict:
    return {
        "components": [
            {"weight": float(w), "mean": [float(v) for v in m], "cov": np.asarray(c).tolist()}
            for w, m, c in zip(weights, means, covs)
        ],
        "condition_map": {t: list(v) for t, v in condition_map.items()},
    }


def _spec_kwargs(gmm: dict) -> dict:
    comps = gmm["components"]
    return {
        "weights": [c["weight"] for c in comps],
        "means": [c["mean"] for c in comps],
        "covariances": [c["cov"] for c in comps],
        "condition_map": gmm["condition_map"],
    }


def _ar_covariance(rho: float, side: int) -> np.ndarray:
    """Separable AR(1) covariance on a side x side grid (positive definite)."""
    idx = np.arange(side)
    ar = rho ** np.abs(idx[:, None] - idx[None, :])
    return np.kron(ar, ar)


# --- heatmap-d64 -----------------------------------------------------------
# Two components share a spatially correlated covariance and differ in the
# mean of a 2x4 block of an 8x8 grid, by offsets that grow across the block.
# The correlation spreads i^o from the strong coordinates onto neighbours of
# the block above its weak ones, so the IoU sits near 0.83 instead of at 1,
# where it could not show a loss of accuracy.  Of the settings tried, this
# one moved least between seeds; the mean IoU still spread by 6% of its
# median over ten seeds with 30 samples and by 5% with 45; with 60 it
# spread by 1.5-2.9% in the sets measured (5 and 10 seeds).
HEATMAP_SIDE = 8
HEATMAP_RHO = 0.4
HEATMAP_OFFSETS = (0.3, 0.6, 0.9, 1.2)  # per block column
HEATMAP_BLOCK = (slice(3, 5), slice(2, 6))


def _heatmap(seed: int, size: dict, work: str) -> Workload:
    d = HEATMAP_SIDE * HEATMAP_SIDE
    grid = np.zeros((HEATMAP_SIDE, HEATMAP_SIDE))
    grid[HEATMAP_BLOCK] = HEATMAP_OFFSETS
    delta = grid.ravel()
    mask = delta != 0
    cov = _ar_covariance(HEATMAP_RHO, HEATMAP_SIDE)
    gmm = _gmm_json([0.5, 0.5], [np.zeros(d), delta], [cov, cov], {"a": [0], "b": [1]})
    out = f"{work}/decompose"
    config = {
        "seed": seed,
        "output": {"dir": out},
        "data": {
            "gmm": gmm,
            "n_samples": size["samples"],
            "component_conditions": [{"label": "a"}, {"label": "b"}],
            "grid": [HEATMAP_SIDE, HEATMAP_SIDE],
            "truth_mask": [int(v) for v in mask],
        },
        "sampler": SAMPLER,
        "decompose": {"kind": "pointwise_o"},
    }
    # Along the Mahalanobis direction the mixture is 1-D with this separation.
    separation = float(np.sqrt(delta @ np.linalg.solve(cov, delta)))
    return Workload(
        name="heatmap-d64",
        items=size["samples"],
        item_name="sample",
        spec=_spec_kwargs(gmm),
        ops=[Op("decompose", config, out, item_marker=("channel.sample", 1))],
        layers=("denoise.gmm", "estimators.pointwise_dataset", "channel.sample", "tasks.sweep_threshold", "reports.write"),
        gauge="gmm-d64",
        oracle={"mi_nats": _two_gaussian_mi(separation)},
    )


def _two_gaussian_mi(separation: float) -> float:
    """I(X; label) for 0.5 N(0, 1) + 0.5 N(separation, 1), by quadrature."""

    def integrand(t):
        logs = np.array([norm.logpdf(t), norm.logpdf(t, loc=separation)])
        log_mix = logsumexp(logs) + math.log(0.5)
        return float(np.sum(0.5 * np.exp(logs) * (logs - log_mix)))

    lo, hi = -12.0, separation + 12.0
    value, _ = integrate.quad(integrand, lo, hi, limit=200, epsabs=1e-12)
    return value


# --- edit-1d ---------------------------------------------------------------
# Under context "plain" both labels pick components {0, 1}: a label swap is a
# null edit with zero CMI.  Under "split" each label picks one unit Gaussian.
# Between N(m0, 1) and N(m1, 1) the flow over [a_min, a_max] is a shift by
# (m1 - m0) (sqrt(sigmoid(a_max)) - sqrt(sigmoid(a_min))), the exact edit.
# The plain pair overlaps so that the round-trip error is nearly flat where
# most plain samples land, and its maximum over 25 samples barely depends on
# the seed.  With means -6 and -2 that maximum varied fivefold between
# seeds; with -5 and -3 it fell short of the peak for 3 seeds in 10.
EDIT_MEANS = (-4.5, -3.5, 3.0, 7.0)
EDIT_CONDITIONS = (("low", "plain"), ("high", "plain"), ("low", "split"), ("high", "split"))


def _edit(seed: int, size: dict, work: str) -> Workload:
    gmm = _gmm_json(
        [0.25] * 4,
        [[m] for m in EDIT_MEANS],
        [[[1.0]]] * 4,
        {"plain": [0, 1], "split": [2, 3], "low": [0, 1, 2], "high": [0, 1, 3]},
    )
    out = f"{work}/intervene"
    config = {
        "seed": seed,
        "output": {"dir": out},
        "data": {
            "gmm": gmm,
            "n_samples": size["samples"],
            "component_conditions": [
                {"label": label, "context": [ctx]} for label, ctx in EDIT_CONDITIONS
            ],
        },
        "sampler": SAMPLER,
        "solver": SOLVER,
        "intervene": {"n_samples": size["samples"], "swap": {"low": "high", "high": "low"}},
    }
    return Workload(
        name="edit-1d",
        items=size["samples"],
        item_name="edited sample",
        spec=_spec_kwargs(gmm),
        ops=[Op("intervene", config, out, item_marker=("flow.intervene", 2))],
        layers=("flow.intervene", "flow.encode", "flow.decode", "denoise.gmm", "estimators.pointwise_o"),
        gauge="gmm-d1-row",
        oracle={
            "split_shift": (EDIT_MEANS[3] - EDIT_MEANS[2])
            * float(np.sqrt(expit(SOLVER["alpha_max"])) - np.sqrt(expit(SOLVER["alpha_min"])))
        },
    )


# --- nll-wide --------------------------------------------------------------
# Variances 0.01, 1 and 100 put mass at both ends of the log-SNR range, where
# the estimator's truncation to [-5, 7] biases the NLL.  Keep both extremes.
# Each component gets the same number of points, from a scrambled Sobol set:
# a stratified sample of the mixture.  With iid points the bias on the wide
# component moved by 17% between seeds, because it depends on how far out
# the drawn points lie.  The rest of that spread is Monte-Carlo noise of
# about 1 nat per point, hence 1024 points per component and 200 log-SNR
# draws per point.
NLL_MEANS = ((-2.0, 0.0), (2.0, 0.0), (0.0, 0.0))
NLL_VARIANCES = (0.01, 1.0, 100.0)


def _nll(seed: int, size: dict, work: str) -> Workload:
    weights = np.full(3, 1.0 / 3.0)
    means = np.asarray(NLL_MEANS)
    covs = [v * np.eye(2) for v in NLL_VARIANCES]
    rng = np.random.default_rng(seed)
    per = size["points_per_component"]
    comps = np.repeat(np.arange(3), per)
    tiny = np.finfo(float).eps
    z = np.concatenate(
        [
            norm.ppf(np.clip(qmc.Sobol(d=2, seed=rng).random_base2(int(math.log2(per))), tiny, 1 - tiny))
            for _ in range(3)
        ]
    )
    points = means[comps] + np.sqrt(np.asarray(NLL_VARIANCES))[comps, None] * z
    gmm = _gmm_json(weights, means, covs, {})
    out = f"{work}/estimate"
    config = {
        "seed": seed,
        "output": {"dir": out},
        "data": {"gmm": gmm, "points": points.tolist()},
        "sampler": {**SAMPLER, "n_snr": 200},
        "estimate": {"kind": "nll"},
    }
    log_joint = np.stack(
        [
            math.log(w) + multivariate_normal(mean=m, cov=c).logpdf(points)
            for w, m, c in zip(weights, means, covs)
        ],
        axis=1,
    )
    return Workload(
        name="nll-wide",
        items=points.shape[0],
        item_name="point",
        spec=_spec_kwargs(gmm),
        ops=[Op("estimate", config, out, item_marker=("estimators.nll", 1))],
        layers=("estimators.nll", "denoise.gmm", "channel.sample", "reports.write"),
        gauge="gmm-d2",
        oracle={"nll": -logsumexp(log_joint, axis=1), "components": comps},
    )


# --- mlp-train-rank --------------------------------------------------------
# Four unit Gaussians at (+-1.75, +-1.75): enough overlap that the Bayes rule
# is right about 92% of the time, so a worse denoiser shows as lower
# accuracy.  Closer means leave more room but the accuracy of 300 samples
# then moves more between seeds (8% at +-1, 6% at +-1.5).
RANK_OFFSET = 1.75
RANK_LABELS = ("q0", "q1", "q2", "q3")


def _rank(seed: int, size: dict, work: str) -> Workload:
    means = RANK_OFFSET * np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    gmm = _gmm_json([0.25] * 4, means, [np.eye(2)] * 4, {t: [k] for k, t in enumerate(RANK_LABELS)})
    train_out, rank_out = f"{work}/train", f"{work}/rank"
    checkpoint = f"{train_out}/mlp.ckpt"
    train = {
        "seed": seed,
        "output": {"dir": train_out},
        "data": {
            "gmm": gmm,
            "n_samples": size["train_points"],
            "component_conditions": [{"label": t} for t in RANK_LABELS],
        },
        "sampler": SAMPLER,
        "train": {
            "hidden": [64, 64],
            "n_steps": size["steps"],
            "batch_size": 128,
            "learning_rate": 1e-3,
            "condition_drop": 0.2,
            "n_frequencies": 8,
            "checkpoint_name": "mlp.ckpt",
        },
    }
    rank = {
        "seed": seed,
        "output": {"dir": rank_out},
        "data": {"gmm": gmm},
        "denoiser": {"kind": "checkpoint", "path": checkpoint},
        "sampler": SAMPLER,
        "rank": {
            "n_samples": size["rank"],
            "candidates": list(RANK_LABELS),
            "estimator_kind": "pointwise_s",
        },
    }
    return Workload(
        name="mlp-train-rank",
        items=size["rank"],
        item_name="ranked sample",
        spec=_spec_kwargs(gmm),
        ops=[
            Op("train", train, train_out, verify_checkpoint=True),
            Op(
                "rank",
                rank,
                rank_out,
                checkpoint=checkpoint,
                item_marker=("tasks.rank_conditions", 1),
            ),
        ],
        layers=(
            "mlp.train_mlp",
            "checkpoint.save",
            "checkpoint.load",
            "mlp.predict_eps",
            "tasks.evaluate_ranking",
            "tasks.rank_conditions",
            "estimators.pointwise_s",
        ),
        gauge="mlp",
        oracle={"bayes_accuracy": _bayes_accuracy(means, seed)},
    )


def _bayes_accuracy(means, seed: int, n: int = 20_000) -> float:
    """Accuracy of the Bayes classifier on equal-weight unit Gaussians (Monte Carlo)."""
    rng = np.random.default_rng([seed, 1])
    comps = rng.integers(0, len(means), n)
    x = means[comps] + rng.standard_normal((n, means.shape[1]))
    logp = np.stack([multivariate_normal(mean=m).logpdf(x) for m in means], axis=1)
    return float(np.mean(np.argmax(logp, axis=1) == comps))


_BUILDERS = {"heatmap-d64": _heatmap, "edit-1d": _edit, "nll-wide": _nll, "mlp-train-rank": _rank}


def build(name: str, seed: int, scale: str, work: str) -> Workload:
    """The workload ``name`` for ``seed``; outputs go under the directory ``work``."""
    return _BUILDERS[name](seed, SIZES[scale][name], work)


# --- output checks -----------------------------------------------------------


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _json_numbers(node):
    if isinstance(node, bool) or node is None or isinstance(node, str):
        return
    if isinstance(node, (int, float)):
        yield float(node)
    elif isinstance(node, dict):
        for v in node.values():
            yield from _json_numbers(v)
    elif isinstance(node, list):
        for v in node:
            yield from _json_numbers(v)


def nonfinite_outputs(out: Path) -> list[str]:
    """Names of CSV/JSON outputs that hold a NaN or an infinity."""
    bad = []
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            values = _json_numbers(json.loads(path.read_text()))
        elif path.suffix == ".csv":
            values = (
                float(cell)
                for row in _read_csv(path)
                for cell in row.values()
                if cell not in ("true", "false") and _is_number(cell)
            )
        else:
            continue
        if not all(math.isfinite(v) for v in values):
            bad.append(path.name)
    return bad


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def check(wl: Workload, op: Op, root: Path) -> tuple[list[str], dict]:
    """Oracle checks of one operation's outputs: (failure messages, quality metrics)."""
    out = root / op.out
    failures = [f"non-finite value in {name}" for name in nonfinite_outputs(out)]
    quality: dict = {}
    if op.command == "estimate":
        rows = _read_csv(out / "estimates.csv")
        est = np.array([float(r["total"]) for r in rows])
        exact = wl.oracle["nll"]
        if est.shape != exact.shape:
            failures.append(f"expected {exact.size} NLL totals, got {est.size}")
        else:
            err = est - exact
            quality["nll_rmse_nats"] = float(np.sqrt(np.mean(err**2)))
            comps = wl.oracle["components"]
            biases = [float(np.mean(err[comps == k])) for k in np.unique(comps)]
            quality["nll_max_bias_nats"] = max(abs(b) for b in biases)
            quality["nll_bias_by_component"] = biases
    elif op.command == "decompose":
        payload = json.loads((out / "decompose.json").read_text())
        totals = np.array([r["total"] for r in payload["reports"]])
        mean = float(totals.mean())
        se = float(totals.std(ddof=1) / math.sqrt(totals.size)) if totals.size > 1 else math.inf
        mi = wl.oracle["mi_nats"]
        quality["heatmap_miou"] = payload["miou"]
        quality["mean_io_nats"], quality["mi_oracle_nats"] = mean, mi
        if totals.size != wl.items:
            failures.append(f"expected {wl.items} reports, got {totals.size}")
        if np.any(totals < 0):
            failures.append("negative i^o total")
        limit = max(MI_Z_LIMIT * se, MI_FLOOR_NATS)
        if not abs(mean - mi) <= limit:
            failures.append(f"mean i^o {mean:.4f} is more than {limit:.4f} from MI {mi:.4f}")
    elif op.command == "intervene":
        rows = _read_csv(out / "intervene.csv")
        if len(rows) != wl.items:
            failures.append(f"expected {wl.items} edits, got {len(rows)}")
        roundtrip = [float(r["roundtrip_l2"]) for r in rows]
        quality["roundtrip_l2_max"] = max(roundtrip, default=math.nan)
        shift = wl.oracle["split_shift"]
        for r in rows:
            rid = r["id"]
            if not float(r["roundtrip_l2"]) < ROUNDTRIP_BUDGET:
                failures.append(f"edit {rid}: round trip {r['roundtrip_l2']} over {ROUNDTRIP_BUDGET}")
            if r["context"] == "plain":
                if r["delta_l2"] != r["roundtrip_l2"] or float(r["cmi"]) != 0.0:
                    failures.append(f"edit {rid}: null swap is not the round trip with zero CMI")
            elif not abs(float(r["delta_l2"]) - shift) <= EDIT_TOLERANCE:
                failures.append(f"edit {rid}: split swap moved {r['delta_l2']}, expected {shift}")
    elif op.command == "train":
        payload = json.loads((out / "train.json").read_text())
        if not math.isfinite(payload["final_loss"]):
            failures.append("final training loss is not finite")
    elif op.command == "rank":
        payload = json.loads((out / "rank.json").read_text())
        n, chance = wl.items, 1.0 / len(RANK_LABELS)
        floor = chance + 3.0 * math.sqrt(chance * (1 - chance) / n)
        quality["rank_accuracy"] = payload["accuracy"]
        quality["bayes_accuracy"] = wl.oracle["bayes_accuracy"]
        if not payload["accuracy"] > floor:
            failures.append(f"ranking accuracy {payload['accuracy']} is not above chance ({floor:.3f})")
    return failures, quality
