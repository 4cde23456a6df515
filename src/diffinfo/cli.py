"""Command-line interface.

Every command is a pure function of (config, seed): given the same
configuration document and seed it reproduces its output files byte for
byte.  Invalid configurations exit with status 2 and a message naming the
offending field.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import locale  # noqa: F401  argparse's first message lookup (gettext) imports it otherwise
import math
import sys
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; every command but oracle draws from it

from . import estimators, oracle, tasks
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ORACLE_OPS, ConfigError, RunConfig, load_config
from .denoise import ConditionId, GmmDenoiser, GmmSpec, Sample, gmm_mmse
from .flow import intervene as flow_intervene
from .mlp import MlpDenoiser, train_mlp
from .reports import NonFiniteOutputError, report_to_dict, write_csv, write_json, write_pgm, write_report_csv

LN2 = math.log(2.0)


def _load_checkpoint_field(path, field_path: str):
    """Load the checkpoint a config field names; a read or format error names the field."""
    try:
        return load_checkpoint(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{field_path}: cannot load checkpoint: {exc}", field_path) from exc


def _load_spec(cfg: RunConfig) -> GmmSpec:
    if cfg.data is None:
        raise ConfigError("this command needs a 'data' section", "data")
    if cfg.data.gmm is not None:
        return cfg.data.gmm
    if cfg.data.checkpoint is not None:
        obj = _load_checkpoint_field(cfg.data.checkpoint, "data.checkpoint")
        if not isinstance(obj, GmmSpec):
            raise ConfigError("data.checkpoint must contain a mixture spec", "data.checkpoint")
        return obj
    raise ConfigError("the 'data' section needs 'gmm' or 'checkpoint'", "data")


def _build_denoiser(cfg: RunConfig, spec: GmmSpec):
    if cfg.denoiser.kind == "closed_form":
        return gmm_mmse(spec)
    obj = _load_checkpoint_field(cfg.denoiser.path, "denoiser.path")
    if isinstance(obj, GmmSpec):
        den = gmm_mmse(obj)
    elif isinstance(obj, MlpDenoiser):
        den = obj
    else:
        raise ConfigError("denoiser.path holds no usable checkpoint", "denoiser.path")
    if den.dim != spec.dim:
        raise ConfigError(
            f"denoiser.path: the checkpoint has dimension {den.dim} "
            f"but the data have dimension {spec.dim}",
            "denoiser.path",
        )
    return den


def _check_conditions(cfg: RunConfig, den, conditions, field_path: str) -> None:
    """Reject, before any estimation, a condition the denoiser cannot take.

    The checkpoint is at fault when the denoiser comes from one, and
    otherwise the field the conditions came from.
    """
    field = "denoiser.path" if cfg.denoiser.kind == "checkpoint" else field_path
    for condition in dict.fromkeys(conditions):
        try:
            if isinstance(den, MlpDenoiser):
                for token in () if condition is None else condition.tokens:
                    if token not in den.vocabulary:
                        raise ValueError(
                            f"unknown condition token {token!r}; vocabulary is {list(den.vocabulary)}"
                        )
            else:
                den.spec.components_for(condition)
        except ValueError as exc:
            raise ConfigError(f"{field}: {exc}", field) from exc


def _build_dataset(cfg: RunConfig, spec: GmmSpec, rng) -> list[Sample]:
    """Samples from the data section: explicit points, or draws with conditions."""
    samples: list[Sample] = []
    if cfg.data.points is not None:
        if cfg.data.points.shape[1] != spec.dim:
            raise ConfigError(
                f"data.points have dimension {cfg.data.points.shape[1]} "
                f"but the spec has dimension {spec.dim}",
                "data.points",
            )
        samples.extend(Sample(x=row) for row in cfg.data.points)
    if cfg.data.n_samples is not None:
        conds = cfg.data.component_conditions
        if conds is not None and len(conds) != spec.n_components:
            raise ConfigError(
                f"data.component_conditions has {len(conds)} entries "
                f"for {spec.n_components} components",
                "data.component_conditions",
            )
        x, comps = spec.sample(cfg.data.n_samples, rng)
        for xi, k in zip(x, comps):
            condition = context = None
            if conds is not None and conds[k] is not None:
                condition = conds[k]
                if condition.context:
                    context = ConditionId(context=condition.context)
            samples.append(Sample(x=xi, condition=condition, context=context))
    if not samples:
        raise ConfigError("the 'data' section yields no samples (need points or n_samples)", "data")
    return samples


def _require_conditions(dataset) -> None:
    """Pointwise estimates contrast conditional and unconditional terms, so need conditions."""
    for i, sample in enumerate(dataset):
        if sample.condition is None:
            raise ConfigError(
                f"sample {i} carries no condition, which this estimate needs: data.points carry "
                "no condition, and drawn samples take theirs from data.component_conditions",
                "data.component_conditions",
            )


def _check_finite(reports, cfg: RunConfig) -> None:
    """A non-finite estimate is not a result: exit 2 naming the sample it came from."""
    n_points = 0 if cfg.data.points is None else cfg.data.points.shape[0]
    for i, report in enumerate(reports):
        if not math.isfinite(report.total):
            field = "data.points" if i < n_points else "data"
            raise ConfigError(
                f"{field}: sample {i} has the non-finite estimate {report.total!r}; "
                "its point lies too far out for the estimate to be finite",
                field,
            )


def _maybe_bits(report, bits: bool):
    return report.to_bits() if bits else report


def _streams(seed: int):
    """Fixed-order child seeds: dataset draws, estimation, training, editing."""
    return np.random.SeedSequence(seed).spawn(4)


def cmd_estimate(cfg: RunConfig) -> int:
    """Estimate NLL or pointwise, mutual or conditional mutual information per sample."""
    if cfg.estimate is None:
        raise ConfigError("the estimate command needs an 'estimate' section", "estimate")
    spec = _load_spec(cfg)
    den = _build_denoiser(cfg, spec)
    s_data, s_est, _, _ = _streams(cfg.seed)
    dataset = _build_dataset(cfg, spec, s_data)
    kind = cfg.estimate.kind
    if kind != "nll":
        _require_conditions(dataset)
    _check_conditions(cfg, den, [s.condition for s in dataset], "data.component_conditions")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if kind == "nll":
        xs = np.stack([s.x for s in dataset])
        conditions = [s.condition for s in dataset]
        reports = estimators.nll(den, xs, cfg.sampler, cfg.n_eps, s_est, conditions)
        aggregate = None
    else:
        pointwise = kind in ("pointwise_s", "pointwise_o")
        reports = estimators.pointwise_dataset(
            den,
            den,
            dataset,
            cfg.sampler,
            kind if pointwise else cfg.estimate.estimator_kind,
            cfg.n_eps,
            s_est,
            condition_on_context=(kind == "cmi"),
        )
        aggregate = None if pointwise else estimators.aggregate_reports(reports, kind, cfg.sampler, cfg.n_eps)
    _check_finite(reports, cfg)

    reports = [_maybe_bits(r, cfg.bits) for r in reports]
    write_report_csv(out / "estimates.csv", reports)
    payload = {
        "config": cfg.resolved(),
        "units": "bits" if cfg.bits else "nats",
        "reports": [report_to_dict(r) for r in reports],
    }
    if aggregate is not None:
        payload["aggregate"] = report_to_dict(_maybe_bits(aggregate, cfg.bits))
    write_json(out / "estimates.json", payload)
    return 0


def cmd_decompose(cfg: RunConfig) -> int:
    """Split pointwise information into per-dimension heatmaps, scored against a truth mask."""
    if cfg.decompose is None:
        raise ConfigError("the decompose command needs a 'decompose' section", "decompose")
    spec = _load_spec(cfg)
    den = _build_denoiser(cfg, spec)
    s_data, s_est, _, _ = _streams(cfg.seed)
    dataset = _build_dataset(cfg, spec, s_data)
    _require_conditions(dataset)
    _check_conditions(cfg, den, [s.condition for s in dataset], "data.component_conditions")
    d = spec.dim
    if cfg.data.grid is not None and math.prod(cfg.data.grid) != d:
        raise ConfigError(f"data.grid {cfg.data.grid} does not tile dimension {d}", "data.grid")
    if cfg.data.truth_mask is not None and cfg.data.truth_mask.shape[0] != d:
        raise ConfigError("data.truth_mask length must match the data dimension", "data.truth_mask")
    kind = cfg.decompose.kind
    reports = estimators.pointwise_dataset(
        den,
        den,
        dataset,
        cfg.sampler,
        "pointwise_o" if kind == "cmi" else kind,
        cfg.n_eps,
        s_est,
        condition_on_context=(kind == "cmi"),
    )
    _check_finite(reports, cfg)
    reports = [_maybe_bits(r, cfg.bits) for r in reports]

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = ["id", "total", "std_error"] + [f"dim_{j}" for j in range(d)]
    rows = [(i, r.total, r.std_error, *r.per_dim) for i, r in enumerate(reports)]
    write_csv(out / "decompose.csv", header, rows)

    mean_heatmap = np.mean([np.maximum(r.per_dim, 0.0) for r in reports], axis=0)
    payload = {
        "config": cfg.resolved(),
        "units": "bits" if cfg.bits else "nats",
        "reports": [report_to_dict(r) for r in reports],
        "mean_heatmap": [float(v) for v in mean_heatmap],
    }
    if cfg.data.grid is not None:
        rows_, cols = cfg.data.grid
        write_pgm(out / "heatmap_mean.pgm", mean_heatmap.reshape(rows_, cols))
        for i, r in enumerate(reports):
            write_pgm(out / f"heatmap_{i}.pgm", np.maximum(r.per_dim, 0.0).reshape(rows_, cols))
    if cfg.data.truth_mask is not None:
        sweeps = [
            tasks.sweep_threshold(np.maximum(r.per_dim, 0.0), cfg.data.truth_mask) for r in reports
        ]
        payload["miou"] = float(np.mean([s.iou for s in sweeps]))
        payload["mean_heatmap_iou"] = tasks.sweep_threshold(mean_heatmap, cfg.data.truth_mask).iou
    write_json(out / "decompose.json", payload)
    return 0


def cmd_rank(cfg: RunConfig) -> int:
    """Rank candidate labels for samples by their pointwise information."""
    if cfg.rank is None:
        raise ConfigError("the rank command needs a 'rank' section", "rank")
    spec = _load_spec(cfg)
    den = _build_denoiser(cfg, spec)
    tokens = cfg.rank.candidates or tuple(sorted(spec.condition_map))
    if len(tokens) < 2:
        raise ConfigError("ranking needs at least two candidate tokens", "rank.candidates")
    try:
        token_of = spec.partition(tokens)
    except ValueError as exc:
        raise ConfigError(f"rank.candidates: {exc}", "rank.candidates") from exc
    candidates = [ConditionId(label=t) for t in tokens]
    _check_conditions(cfg, den, candidates, "rank.candidates")
    s_data, s_est, _, _ = _streams(cfg.seed)
    x, comps = spec.sample(cfg.rank.n_samples, s_data)
    scores = tasks.evaluate_ranking(
        x,
        candidates,
        den,
        den,
        cfg.sampler,
        n_eps=cfg.n_eps,
        seed=s_est,
        estimator_kind=cfg.rank.estimator_kind,
    )
    # Columns follow ``tokens``.  ``chosen`` is the first candidate, in that
    # order, within tasks.TIE_ATOL of the row's best score, and ``tie`` says
    # whether another one was; a tie is correct only if the truth comes first.
    truth = token_of[comps]
    chosen, tie = tasks.select(scores)
    correct = chosen == truth

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = ["id", "true", "chosen", "tie", "correct"] + [f"score_{t}" for t in tokens]
    rows = [
        (i, tokens[t], tokens[c], ti, ok, *row)
        for i, (t, c, ti, ok, row) in enumerate(zip(truth, chosen, tie, correct, scores))
    ]
    write_csv(out / "rank.csv", header, rows)
    write_json(
        out / "rank.json",
        {
            "config": cfg.resolved(),
            "accuracy": float(correct.mean()),
            "n_ties": int(tie.sum()),
            "per_condition": {
                t: float(correct[truth == j].mean())
                for j, t in enumerate(tokens)
                if np.any(truth == j)
            },
        },
    )
    return 0


def cmd_intervene(cfg: RunConfig) -> int:
    """Swap labels along the probability flow and relate each edit to its information."""
    if cfg.intervene is None:
        raise ConfigError("the intervene command needs an 'intervene' section", "intervene")
    spec = _load_spec(cfg)
    den = _build_denoiser(cfg, spec)
    if cfg.data is None or cfg.data.component_conditions is None:
        raise ConfigError(
            "intervention needs data.component_conditions to label the samples",
            "data.component_conditions",
        )
    s_data, s_est, _, _ = _streams(cfg.seed)
    dataset = _build_dataset(cfg, spec, s_data)
    if any(s.condition is None or s.condition.label is None for s in dataset):
        raise ConfigError("every sampled component needs a labeled condition", "data.component_conditions")
    n_edit = cfg.intervene.n_samples
    if n_edit > len(dataset):
        raise ConfigError(
            f"intervene.n_samples is {n_edit} but the data section yields {len(dataset)} samples",
            "intervene.n_samples",
        )
    samples = dataset[:n_edit]
    swap = cfg.intervene.swap
    for sample in samples:
        if sample.condition.label not in swap:
            raise ConfigError(
                f"intervene.swap does not cover label {sample.condition.label!r}", "intervene.swap"
            )
    sources = [s.condition for s in samples]
    targets = [ConditionId(label=swap[c.label], context=c.context) for c in sources]
    _check_conditions(cfg, den, sources, "data.component_conditions")
    _check_conditions(cfg, den, targets, "intervene.swap")
    edits = flow_intervene(np.stack([s.x for s in samples]), den, sources, targets, cfg.solver)
    deltas = edits.delta_l2.tolist()
    reports = estimators.pointwise_dataset(
        den, den, samples, cfg.sampler, "pointwise_o", cfg.n_eps, s_est, condition_on_context=True
    )
    scores = [_maybe_bits(r, cfg.bits).total for r in reports]
    rows = [
        (i, s.condition.label, "|".join(s.condition.context), score, roundtrip, delta)
        for i, (s, score, roundtrip, delta) in enumerate(
            zip(samples, scores, edits.roundtrip_l2.tolist(), deltas)
        )
    ]

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "intervene.csv", ["id", "label", "context", "cmi", "roundtrip_l2", "delta_l2"], rows)
    summary = {
        "config": cfg.resolved(),
        "units": "bits" if cfg.bits else "nats",
        "n_samples": len(rows),
    }
    try:
        r = tasks.intervention_correlation(scores, deltas)
        summary["pearson_image_level"] = r
        if len(scores) >= 4:
            lo, hi = tasks.pearson_confidence(r, len(scores))
            summary["pearson_ci95"] = [lo, hi]
    except ValueError as exc:
        summary["pearson_image_level"] = None
        summary["pearson_note"] = str(exc)
    write_json(out / "intervene.json", summary)
    return 0


def cmd_train(cfg: RunConfig) -> int:
    """Train a conditional MLP denoiser and save its checkpoint and loss trace."""
    if cfg.train is None:
        raise ConfigError("the train command needs a 'train' section", "train")
    spec = _load_spec(cfg)
    if cfg.data.n_samples is None:
        raise ConfigError("training needs data.n_samples", "data.n_samples")
    s_data, _, s_train, _ = _streams(cfg.seed)
    dataset = _build_dataset(cfg, spec, s_data)
    denoiser, trace = train_mlp(dataset, cfg.train.mlp, cfg.sampler, seed=s_train)

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(denoiser, out / cfg.train.checkpoint_name)
    write_csv(out / "loss_trace.csv", ["step", "loss"], [(i + 1, v) for i, v in enumerate(trace)])
    write_json(
        out / "train.json",
        {
            "config": cfg.resolved(),
            "final_loss": float(trace[-1]),
            "vocabulary": list(denoiser.vocabulary),
            "checkpoint": cfg.train.checkpoint_name,
        },
    )
    return 0


def cmd_oracle(cfg: RunConfig) -> int:
    """Print a closed-form or numerical reference value (Gaussian MI, MMSE, pointwise, mixture MI)."""
    if cfg.oracle is None:
        raise ConfigError("the oracle command needs an 'oracle' section", "oracle")
    op, params = cfg.oracle.op, cfg.oracle.params
    # Outside the try: a ConfigError is a ValueError too, and names its own field.
    args = (_load_spec(cfg),) if op == "gmm_mi_numeric" else ()
    try:
        result = getattr(oracle, op)(*args, **params)
    except ValueError as exc:
        name = ORACLE_OPS[op].range_param
        field = f"oracle.{name}" if name in params else "oracle"
        raise ConfigError(f"{field}: {exc}", field) from exc
    value, bound = result.value, result.abs_error_bound
    if cfg.bits and op != "mmse_gaussian":
        value, bound = value / LN2, bound / LN2
    payload = {
        "op": op,
        "value": value,
        "method": result.method,
        "abs_error_bound": bound,
        "units": "mse" if op == "mmse_gaussian" else ("bits" if cfg.bits else "nats"),
    }
    print(json.dumps(payload, sort_keys=True))
    if cfg.out_dir:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "oracle.json", {"config": cfg.resolved(), **payload})
    return 0


_COMMANDS = {
    "estimate": cmd_estimate,
    "decompose": cmd_decompose,
    "rank": cmd_rank,
    "intervene": cmd_intervene,
    "train": cmd_train,
    "oracle": cmd_oracle,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffinfo",
        description="Information estimates, decompositions and flow interventions for denoising models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--bits", action="store_true", help="report information in bits instead of nats")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out_dir=args.out)
        if args.bits:
            cfg = dataclasses.replace(cfg, bits=True)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteOutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
