"""Command-line interface.

Every command is a pure function of (config, seed): given the same
configuration document and seed it reproduces its output files byte for
byte.  All commands run on one skeleton.  ``main`` applies ``--seed``,
``--out`` and ``--bits`` and checks that the command's section is there.
The command checks the rest of its input, most of it in ``_setup``, and
bounds each size field by ``HOST_MEMORY`` before allocating its first
array.  It computes, and only then does ``_output`` make the output
directory and the head of the JSON document: a rejected configuration
leaves no directory.  Each error the input can cause exits 2 with one line
on stderr, as ``_EXIT_2`` maps it:

=========================  =================================================
``ConfigError``            ``config error:`` and the field at fault
``NonFiniteOutputError``   ``output error:`` and the file
``SolverError``            ``config error: solver:`` and the flow's step
``TrainingDivergedError``  ``config error: train:`` and the training step
``QuadratureError``        ``config error: data.gmm:`` and the last iterates
``MemoryError``            ``config error:`` and the command's size fields
=========================  =================================================
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import locale  # noqa: F401  argparse's first message lookup (gettext) imports it otherwise
import math
import os
import sys
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; every command but oracle draws from it

from . import estimators, oracle, tasks
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ORACLE_OPS, ConfigError, RunConfig, load_config
from .denoise import ConditionId, GmmSpec, gmm_mmse
from .flow import SolverError
from .flow import intervene as flow_intervene
from .mlp import TrainingDivergedError, train_mlp
from .reports import NonFiniteOutputError, report_records, write_csv, write_json, write_pgm, write_report_csv

LN2 = math.log(2.0)


def _host_memory() -> float:
    """The host's physical memory in bytes (unbounded where the OS does not say)."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


HOST_MEMORY = _host_memory()


def _check_size(field_path: str, what: str, n_floats: int) -> None:
    """Exit 2 naming ``field_path`` if ``n_floats`` float64 values, ``what``, exceed ``HOST_MEMORY``."""
    if 8 * n_floats > HOST_MEMORY:
        raise ConfigError(
            f"{field_path} is too large: {what} would not fit in the "
            f"{HOST_MEMORY / 2**30:.3g} GiB of memory of this host",
            field_path,
        )


def _check_samples(field_path: str, n: int, d: int) -> None:
    _check_size(field_path, f"{n} samples of dimension {d}", n * d)


def _check_draws(cfg: RunConfig, d: int) -> None:
    """Bound one point's noise draws, which every estimate allocates first."""
    n_snr, n_eps = cfg.sampler.n_draws, cfg.n_eps
    field = "sampler.n_eps" if n_eps >= n_snr else "sampler.n_snr"
    _check_size(field, f"one point's {n_snr} x {n_eps} noise draws of dimension {d}", n_snr * n_eps * d)


def _check_training(config, d: int) -> None:
    """Bound the training arrays: parameters with Adam's buffers, a batch's inputs, the loss trace."""
    widths = (d + 2 * config.n_frequencies, *config.hidden, d)
    n_params = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(widths[:-1], widths[1:]))
    field = "train.n_frequencies" if 2 * config.n_frequencies > max(config.hidden, default=0) else "train.hidden"
    _check_size(field, f"five buffers of {n_params} network parameters", 5 * n_params)
    batch = config.batch_size
    _check_size("train.batch_size", f"the inputs of a batch of {batch}", batch * widths[0])
    _check_size("train.n_steps", f"the loss trace of {config.n_steps} steps", config.n_steps)


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
            raise ConfigError("data.checkpoint: holds an MLP denoiser, not a mixture spec", "data.checkpoint")
        return obj
    raise ConfigError("the 'data' section needs 'gmm' or 'checkpoint'", "data")


def _build_denoiser(cfg: RunConfig, spec: GmmSpec):
    if cfg.denoiser.kind == "closed_form":
        return gmm_mmse(spec)
    obj = _load_checkpoint_field(cfg.denoiser.path, "denoiser.path")
    den = gmm_mmse(obj) if isinstance(obj, GmmSpec) else obj  # else an MlpDenoiser
    if den.dim != spec.dim:
        message = f"denoiser.path: the checkpoint has dimension {den.dim} but the data have dimension {spec.dim}"
        raise ConfigError(message, "denoiser.path")
    return den


def _streams(seed: int):
    """Fixed-order child seeds: dataset draws, estimation, training."""
    return np.random.SeedSequence(seed).spawn(3)


def _setup(cfg: RunConfig):
    """The mixture spec, the denoiser and the streams of a command that estimates."""
    spec = _load_spec(cfg)
    den = _build_denoiser(cfg, spec)
    _check_draws(cfg, spec.dim)
    return spec, den, _streams(cfg.seed)


def _check_conditions(cfg: RunConfig, den, conditions, field_path: str) -> None:
    """Reject, before any estimation, a condition the denoiser cannot take.

    The checkpoint is at fault when the denoiser comes from one, and
    otherwise the field the conditions came from.
    """
    field = "denoiser.path" if cfg.denoiser.kind == "checkpoint" else field_path
    for condition in dict.fromkeys(conditions):
        try:
            den.check_condition(condition)
        except ValueError as exc:
            raise ConfigError(f"{field}: {exc}", field) from exc


def _build_dataset(cfg: RunConfig, spec: GmmSpec, rng) -> tuple[np.ndarray, list, list]:
    """Points (n, d) from the data section, explicit or drawn, with each point's
    condition and context (``None`` where it has none)."""
    parts, conditions = [], []
    points = cfg.data.points
    if points is not None:
        if points.shape[1] != spec.dim:
            message = f"data.points have dimension {points.shape[1]} but the spec has dimension {spec.dim}"
            raise ConfigError(message, "data.points")
        parts.append(points)
        conditions += [None] * len(points)
    if cfg.data.n_samples is not None:
        conds = cfg.data.component_conditions
        if conds is not None and len(conds) != spec.n_components:
            raise ConfigError(
                f"data.component_conditions has {len(conds)} entries "
                f"for {spec.n_components} components",
                "data.component_conditions",
            )
        _check_samples("data.n_samples", cfg.data.n_samples, spec.dim)
        x, comps = spec.sample(cfg.data.n_samples, rng)
        parts.append(x)
        conditions += [None if conds is None else conds[k] for k in comps]
    if not parts:
        raise ConfigError("the 'data' section yields no samples (need points or n_samples)", "data")
    contexts = [ConditionId(context=c.context) if c is not None and c.context else None for c in conditions]
    return np.concatenate(parts, dtype=float), conditions, contexts


def _estimation_data(cfg: RunConfig, spec: GmmSpec, den, rng, kind: str):
    """Points, conditions and, for ``cmi`` alone, contexts for an estimate of ``kind``;
    every kind but ``nll`` contrasts conditional and unconditional terms, so needs conditions."""
    x, conditions, contexts = _build_dataset(cfg, spec, rng)
    if kind != "nll" and None in conditions:
        raise ConfigError(
            f"sample {conditions.index(None)} carries no condition, which this estimate needs: "
            "data.points carry no condition, and drawn samples take theirs from "
            "data.component_conditions",
            "data.component_conditions",
        )
    _check_conditions(cfg, den, conditions, "data.component_conditions")
    return x, conditions, contexts if kind == "cmi" else None


def _check_finite(cfg: RunConfig, drawn: bool = False, **values) -> None:
    """A non-finite result is not a result: exit 2 naming the sample it came from.

    Each of ``values`` has one row per sample, which come from the data
    section, ``data.points`` first unless every sample was ``drawn``.  The
    checkpoint is at fault when the denoiser comes from one, and otherwise the
    sample's point or the data it was drawn from.
    """
    n_points = 0 if drawn or cfg.data.points is None else cfg.data.points.shape[0]
    for what, rows in values.items():
        bad = np.argwhere(~np.isfinite(rows))
        if bad.size:
            i = int(bad[0][0])
            if cfg.denoiser.kind == "checkpoint":
                field, cause = "denoiser.path", "the checkpoint's denoiser gives no finite value there"
            else:
                field = "data.points" if i < n_points else "data"
                cause = f"its point lies too far out for the {what} to be finite"
            value = float(rows[tuple(bad[0])])
            raise ConfigError(f"{field}: sample {i} has the non-finite {what} {value!r}; {cause}", field)


def _in_units(report, cfg: RunConfig):
    return report.to_bits() if cfg.bits else report


def _output(cfg: RunConfig, units: bool = True) -> tuple[Path, dict]:
    """Make the output directory; return it with the head of the command's JSON document."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    head = {"config": cfg.resolved()}
    if units:
        head["units"] = "bits" if cfg.bits else "nats"
    return out, head


def cmd_estimate(cfg: RunConfig) -> int:
    """Estimate NLL or pointwise, mutual or conditional mutual information per sample."""
    kind = cfg.estimate.kind
    spec, den, (s_data, s_est, _) = _setup(cfg)
    x, conditions, contexts = _estimation_data(cfg, spec, den, s_data, kind)
    if kind == "nll":
        report = estimators.nll(den, x, cfg.sampler, cfg.n_eps, s_est, conditions)
    else:
        estimator = kind if kind in ("pointwise_s", "pointwise_o") else cfg.estimate.estimator_kind
        report = estimators.pointwise_dataset(
            den, den, x, conditions, cfg.sampler, estimator, cfg.n_eps, s_est, contexts
        )
    _check_finite(cfg, estimate=report.total)
    aggregate = estimators.aggregate_reports(report, kind) if kind in ("mi", "cmi") else None
    report = _in_units(report, cfg)

    out, payload = _output(cfg)
    write_report_csv(out / "estimates.csv", report)
    payload["reports"] = report_records(report)
    if aggregate is not None:
        payload["aggregate"] = report_records(_in_units(aggregate, cfg))[0]
    write_json(out / "estimates.json", payload)
    return 0


def cmd_decompose(cfg: RunConfig) -> int:
    """Split pointwise information into per-dimension heatmaps, scored against a truth mask."""
    kind = cfg.decompose.kind
    spec, den, (s_data, s_est, _) = _setup(cfg)
    x, conditions, contexts = _estimation_data(cfg, spec, den, s_data, kind)
    d = spec.dim
    if cfg.data.grid is not None and math.prod(cfg.data.grid) != d:
        raise ConfigError(f"data.grid {cfg.data.grid} does not tile dimension {d}", "data.grid")
    if cfg.data.truth_mask is not None and cfg.data.truth_mask.shape[0] != d:
        raise ConfigError("data.truth_mask length must match the data dimension", "data.truth_mask")
    estimator = "pointwise_o" if kind == "cmi" else kind
    report = estimators.pointwise_dataset(
        den, den, x, conditions, cfg.sampler, estimator, cfg.n_eps, s_est, contexts
    )
    _check_finite(cfg, estimate=report.total)
    report = _in_units(report, cfg)

    out, payload = _output(cfg)
    write_report_csv(out / "decompose.csv", report, per_dim=True)
    heatmaps = np.maximum(report.per_dim, 0.0)
    mean_heatmap = heatmaps.mean(axis=0)
    payload.update(reports=report_records(report), mean_heatmap=mean_heatmap.tolist())
    if cfg.data.grid is not None:
        rows_, cols = cfg.data.grid
        write_pgm(out / "heatmap_mean.pgm", mean_heatmap.reshape(rows_, cols))
        for i, heatmap in enumerate(heatmaps):
            write_pgm(out / f"heatmap_{i}.pgm", heatmap.reshape(rows_, cols))
    if cfg.data.truth_mask is not None:
        sweeps = [tasks.sweep_threshold(heatmap, cfg.data.truth_mask) for heatmap in heatmaps]
        payload["miou"] = float(np.mean([s.iou for s in sweeps]))
        payload["mean_heatmap_iou"] = tasks.sweep_threshold(mean_heatmap, cfg.data.truth_mask).iou
    write_json(out / "decompose.json", payload)
    return 0


def cmd_rank(cfg: RunConfig) -> int:
    """Rank candidate labels for samples by their pointwise information."""
    spec, den, (s_data, s_est, _) = _setup(cfg)
    tokens = tuple(sorted(spec.condition_map)) if cfg.rank.candidates is None else cfg.rank.candidates
    if len(tokens) < 2:
        message = f"rank.candidates: ranking needs at least two candidate tokens, got {list(tokens)}"
        raise ConfigError(message, "rank.candidates")
    try:
        token_of = spec.partition(tokens)
    except ValueError as exc:
        raise ConfigError(f"rank.candidates: {exc}", "rank.candidates") from exc
    candidates = [ConditionId(label=t) for t in tokens]
    _check_conditions(cfg, den, candidates, "rank.candidates")
    _check_samples("rank.n_samples", cfg.rank.n_samples, spec.dim)
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
    _check_finite(cfg, drawn=True, score=scores)
    # Columns follow ``tokens``.  ``chosen`` is the first candidate, in that
    # order, within tasks.TIE_ATOL of the row's best score, and ``tie`` says
    # whether another one was; a tie is correct only if the truth comes first.
    truth = token_of[comps]
    chosen, tie = tasks.select(scores)
    correct = chosen == truth

    out, payload = _output(cfg, units=False)
    header = ["id", "true", "chosen", "tie", "correct"] + [f"score_{t}" for t in tokens]
    rows = [
        (i, tokens[t], tokens[c], ti, ok, *row)
        for i, (t, c, ti, ok, row) in enumerate(zip(truth, chosen, tie, correct, scores))
    ]
    write_csv(out / "rank.csv", header, rows)
    payload.update(accuracy=float(correct.mean()), n_ties=int(tie.sum()))
    payload["per_condition"] = {
        t: float(correct[truth == j].mean()) for j, t in enumerate(tokens) if np.any(truth == j)
    }
    write_json(out / "rank.json", payload)
    return 0


def cmd_intervene(cfg: RunConfig) -> int:
    """Swap labels along the probability flow and relate each edit to its information."""
    spec, den, (s_data, s_est, _) = _setup(cfg)
    if cfg.data.component_conditions is None:
        message = "intervention needs data.component_conditions to label the samples"
        raise ConfigError(message, "data.component_conditions")
    _check_size("solver.n_steps", f"a grid of {cfg.solver.n_steps + 1} log-SNRs", cfg.solver.n_steps + 1)
    x, conditions, contexts = _build_dataset(cfg, spec, s_data)
    if any(c is None or c.label is None for c in conditions):
        message = "data.component_conditions: every sampled component needs a labeled condition"
        raise ConfigError(message, "data.component_conditions")
    n_edit = cfg.intervene.n_samples
    if n_edit > len(conditions):
        raise ConfigError(
            f"intervene.n_samples is {n_edit} but the data section yields {len(conditions)} samples",
            "intervene.n_samples",
        )
    x, sources, contexts = x[:n_edit], conditions[:n_edit], contexts[:n_edit]
    swap = cfg.intervene.swap
    for c in sources:
        if c.label not in swap:
            raise ConfigError(f"intervene.swap does not cover label {c.label!r}", "intervene.swap")
    targets = [ConditionId(label=swap[c.label], context=c.context) for c in sources]
    _check_conditions(cfg, den, sources, "data.component_conditions")
    _check_conditions(cfg, den, targets, "intervene.swap")
    edits = flow_intervene(x, den, sources, targets, cfg.solver)
    report = estimators.pointwise_dataset(
        den, den, x, sources, cfg.sampler, "pointwise_o", cfg.n_eps, s_est, contexts
    )
    _check_finite(cfg, estimate=report.total, roundtrip_l2=edits.roundtrip_l2, delta_l2=edits.delta_l2)
    scores, deltas = _in_units(report, cfg).total.tolist(), edits.delta_l2.tolist()
    columns = zip(sources, scores, edits.roundtrip_l2.tolist(), deltas)
    rows = [(i, c.label, "|".join(c.context), *values) for i, (c, *values) in enumerate(columns)]

    out, summary = _output(cfg)
    write_csv(out / "intervene.csv", ["id", "label", "context", "cmi", "roundtrip_l2", "delta_l2"], rows)
    summary["n_samples"] = len(rows)
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
    spec = _load_spec(cfg)
    if cfg.data.n_samples is None:
        raise ConfigError("training needs data.n_samples", "data.n_samples")
    _check_training(cfg.train, spec.dim)
    s_data, _, s_train = _streams(cfg.seed)
    x, conditions, _ = _build_dataset(cfg, spec, s_data)
    denoiser, trace = train_mlp(x, conditions, cfg.train, cfg.sampler, seed=s_train)

    out, payload = _output(cfg, units=False)
    name = cfg.checkpoint_name
    save_checkpoint(denoiser, out / name)
    write_csv(out / "loss_trace.csv", ["step", "loss"], [(i + 1, v) for i, v in enumerate(trace)])
    payload.update(final_loss=float(trace[-1]), vocabulary=list(denoiser.vocabulary), checkpoint=name)
    write_json(out / "train.json", payload)
    return 0


def cmd_oracle(cfg: RunConfig) -> int:
    """Print a closed-form or numerical reference value (Gaussian MI, MMSE, pointwise, mixture MI)."""
    op, params = cfg.oracle.op, cfg.oracle.params
    # Outside the try: a ConfigError is a ValueError too, and names its own field.
    args = (_load_spec(cfg),) if op == "gmm_mi_numeric" else ()
    name = ORACLE_OPS[op].range_param
    field = f"oracle.{name}" if name in params else "oracle"
    try:
        with np.errstate(all="ignore"):  # a non-finite result exits 2 below, on one line
            result = getattr(oracle, op)(*args, **params)
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}", field) from exc
    value, bound = result.value, result.abs_error_bound
    if cfg.bits and op != "mmse_gaussian":
        value, bound = value / LN2, bound / LN2
    if not (math.isfinite(value) and math.isfinite(bound)):
        at = " and ".join(f"oracle.{p}" for p in ORACLE_OPS[op].params if p != name) or field
        raise ConfigError(f"{at}: the oracle gives the non-finite value {value!r} with bound {bound!r}", at)
    units = "mse" if op == "mmse_gaussian" else ("bits" if cfg.bits else "nats")
    payload = {"op": op, "value": value, "method": result.method, "abs_error_bound": bound, "units": units}
    print(json.dumps(payload, sort_keys=True))
    if cfg.out_dir:
        out, head = _output(cfg, units=False)
        write_json(out / "oracle.json", {**head, **payload})
    return 0


# Each command, with the size fields its arrays grow with (named when memory runs out).
_COMMANDS = {
    "estimate": (cmd_estimate, "data.n_samples, sampler.n_snr or sampler.n_eps"),
    "decompose": (cmd_decompose, "data.n_samples, sampler.n_snr or sampler.n_eps"),
    "rank": (cmd_rank, "rank.n_samples, sampler.n_snr or sampler.n_eps"),
    "intervene": (cmd_intervene, "data.n_samples, solver.n_steps, sampler.n_snr or sampler.n_eps"),
    "train": (cmd_train, "data.n_samples, train.n_steps, train.batch_size, train.hidden or train.n_frequencies"),
    "oracle": (cmd_oracle, "oracle or data.gmm"),
}

# Each error the input can cause, with its line on stderr; all exit 2.
_EXIT_2 = {
    ConfigError: "config error: {exc}",
    NonFiniteOutputError: "output error: {exc}",
    SolverError: "config error: solver: the probability flow failed: {exc}",
    TrainingDivergedError: "config error: train: training diverged: {exc}",
    oracle.QuadratureError: "config error: data.gmm: the oracle's quadrature failed: {exc}",
    MemoryError: "config error: out of memory: {sizes} is too large for this host",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffinfo",
        description="Information estimates, decompositions and flow interventions for denoising models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--bits", action="store_true", help="report information in bits instead of nats")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, (run, sizes) = args.command, _COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        flags = {"seed": args.seed, "out_dir": args.out, "bits": args.bits or None}
        cfg = dataclasses.replace(cfg, **{name: value for name, value in flags.items() if value is not None})
        if getattr(cfg, command) is None:
            article = "an" if command[0] in "aeiou" else "a"
            raise ConfigError(f"the {command} command needs {article} '{command}' section", command)
        return run(cfg)
    except tuple(_EXIT_2) as exc:
        line = next(text for kind, text in _EXIT_2.items() if isinstance(exc, kind))
        print(line.format(exc=exc, sizes=sizes), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
