"""Run configuration: a single JSON document, validated before any computation.

Unknown keys are rejected at every level and missing required fields are
reported by their dotted path.  Defaults mirror the standard hyperparameters
(sampler [loc, scale, clip] = [1, 2, 3] with 100 SNR draws, 100 solver steps
over log-SNR [-5, 7]).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .channel import LogSnrSampler
from .denoise import ConditionId, GmmSpec
from .flow import SolverConfig
from .mlp import MlpTrainConfig


class ConfigError(ValueError):
    """A schema violation; ``field`` is the dotted path of the offending entry."""

    def __init__(self, message: str, field_path: str | None = None):
        super().__init__(message)
        self.field = field_path


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {path or 'the top level'}", f"{path}.{key}" if path else key)


def _get(mapping: dict, key: str, path: str, required: bool = False, default=None):
    if key not in mapping:
        if required:
            dotted = f"{path}.{key}" if path else key
            raise ConfigError(f"missing required field {dotted!r}", dotted)
        return default
    return mapping[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path!r} must be a number, got {value!r}", path)
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path!r} must be an integer, got {value!r}", path)
    return value


def _positive(value, path: str) -> int:
    if _integer(value, path) < 1:
        raise ConfigError(f"{path!r} must be at least 1, got {value!r}", path)
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path!r} must be a string, got {value!r}", path)
    return value


def _parse_gmm(raw: dict, path: str) -> GmmSpec:
    _check_keys(raw, {"components", "condition_map"}, path)
    comps = _get(raw, "components", path, required=True)
    if not isinstance(comps, list) or not comps:
        raise ConfigError(f"{path}.components must be a non-empty list", f"{path}.components")
    weights, means, covs = [], [], []
    for i, comp in enumerate(comps):
        cpath = f"{path}.components[{i}]"
        if not isinstance(comp, dict):
            raise ConfigError(f"{cpath} must be an object", cpath)
        _check_keys(comp, {"weight", "mean", "cov"}, cpath)
        weights.append(_number(_get(comp, "weight", cpath, required=True), f"{cpath}.weight"))
        means.append(_get(comp, "mean", cpath, required=True))
        covs.append(_get(comp, "cov", cpath, required=True))
    cmap = _get(raw, "condition_map", path, default={})
    if not isinstance(cmap, dict):
        raise ConfigError(f"{path}.condition_map must be an object", f"{path}.condition_map")
    try:
        return GmmSpec(
            weights=weights,
            means=np.asarray(means, dtype=float),
            covariances=np.asarray(covs, dtype=float),
            condition_map={t: tuple(v) for t, v in cmap.items()},
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {path}: {exc}", path) from exc


@dataclass(frozen=True, eq=False)
class DataConfig:
    gmm: GmmSpec | None = None
    checkpoint: str | None = None
    n_samples: int | None = None
    points: np.ndarray | None = None
    component_conditions: tuple | None = None
    grid: tuple[int, int] | None = None
    truth_mask: np.ndarray | None = None


def _parse_data(raw: dict, path: str = "data") -> DataConfig:
    allowed = {"gmm", "checkpoint", "n_samples", "points", "component_conditions", "grid", "truth_mask"}
    _check_keys(raw, allowed, path)
    gmm = None
    if "gmm" in raw:
        gmm = _parse_gmm(raw["gmm"], f"{path}.gmm")
    checkpoint = _string(raw["checkpoint"], f"{path}.checkpoint") if "checkpoint" in raw else None
    if gmm is not None and checkpoint is not None:
        raise ConfigError(f"{path} must give either 'gmm' or 'checkpoint', not both", path)
    n_samples = _positive(raw["n_samples"], f"{path}.n_samples") if "n_samples" in raw else None
    points = None
    if "points" in raw:
        try:
            points = np.atleast_2d(np.asarray(raw["points"], dtype=float))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}.points must be a list of vectors: {exc}", f"{path}.points") from exc
        if not np.isfinite(points).all():
            row = int(np.argwhere(~np.isfinite(points))[0, 0])
            raise ConfigError(
                f"{path}.points[{row}] is not finite: {points[row].tolist()}", f"{path}.points"
            )
    conds = None
    if "component_conditions" in raw:
        entries = raw["component_conditions"]
        if not isinstance(entries, list):
            raise ConfigError(f"{path}.component_conditions must be a list", f"{path}.component_conditions")
        parsed = []
        for i, entry in enumerate(entries):
            epath = f"{path}.component_conditions[{i}]"
            if entry is None:
                parsed.append(None)
                continue
            if not isinstance(entry, dict):
                raise ConfigError(f"{epath} must be an object or null", epath)
            _check_keys(entry, {"label", "context"}, epath)
            label = entry.get("label")
            context = tuple(entry.get("context", ()))
            parsed.append(ConditionId(label=label, context=context))
        conds = tuple(parsed)
    grid = None
    if "grid" in raw:
        g = raw["grid"]
        if not (isinstance(g, list) and len(g) == 2):
            raise ConfigError(f"{path}.grid must be [rows, cols]", f"{path}.grid")
        grid = (_integer(g[0], f"{path}.grid[0]"), _integer(g[1], f"{path}.grid[1]"))
    truth_mask = None
    if "truth_mask" in raw:
        truth_mask = np.asarray(raw["truth_mask"], dtype=bool)
    return DataConfig(
        gmm=gmm,
        checkpoint=checkpoint,
        n_samples=n_samples,
        points=points,
        component_conditions=conds,
        grid=grid,
        truth_mask=truth_mask,
    )


@dataclass(frozen=True)
class DenoiserConfig:
    kind: str = "closed_form"
    path: str | None = None


def _parse_denoiser(raw: dict, path: str = "denoiser") -> DenoiserConfig:
    _check_keys(raw, {"kind", "path"}, path)
    kind = _string(_get(raw, "kind", path, required=True), f"{path}.kind")
    if kind not in ("closed_form", "checkpoint"):
        raise ConfigError(f"{path}.kind must be 'closed_form' or 'checkpoint'", f"{path}.kind")
    ckpt = _string(raw["path"], f"{path}.path") if "path" in raw else None
    if kind == "checkpoint" and ckpt is None:
        raise ConfigError(f"missing required field {path}.path", f"{path}.path")
    return DenoiserConfig(kind=kind, path=ckpt)


def _parse_sampler(raw: dict, path: str = "sampler") -> tuple[LogSnrSampler, int]:
    _check_keys(raw, {"loc", "scale", "clip", "n_snr", "n_eps"}, path)
    try:
        sampler = LogSnrSampler(
            loc=_number(_get(raw, "loc", path, default=1.0), f"{path}.loc"),
            scale=_number(_get(raw, "scale", path, default=2.0), f"{path}.scale"),
            clip=_number(_get(raw, "clip", path, default=3.0), f"{path}.clip"),
            n_draws=_integer(_get(raw, "n_snr", path, default=100), f"{path}.n_snr"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid {path}: {exc}", path) from exc
    n_eps = _positive(_get(raw, "n_eps", path, default=4), f"{path}.n_eps")
    return sampler, n_eps


def _parse_solver(raw: dict, path: str = "solver") -> SolverConfig:
    _check_keys(raw, {"n_steps", "alpha_min", "alpha_max"}, path)
    try:
        return SolverConfig(
            n_steps=_integer(_get(raw, "n_steps", path, default=100), f"{path}.n_steps"),
            alpha_min=_number(_get(raw, "alpha_min", path, default=-5.0), f"{path}.alpha_min"),
            alpha_max=_number(_get(raw, "alpha_max", path, default=7.0), f"{path}.alpha_max"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid {path}: {exc}", path) from exc


_ESTIMATE_KINDS = ("nll", "pointwise_s", "pointwise_o", "mi", "cmi")


@dataclass(frozen=True)
class EstimateConfig:
    kind: str
    estimator_kind: str = "pointwise_o"


@dataclass(frozen=True)
class DecomposeConfig:
    kind: str = "pointwise_o"


@dataclass(frozen=True)
class RankConfig:
    n_samples: int
    candidates: tuple[str, ...] | None = None
    estimator_kind: str = "pointwise_s"


@dataclass(frozen=True)
class InterveneConfig:
    n_samples: int
    swap: Any = field(default_factory=dict)


@dataclass(frozen=True)
class TrainConfigSection:
    mlp: MlpTrainConfig
    checkpoint_name: str = "mlp.ckpt"


@dataclass(frozen=True)
class OracleConfig:
    op: str
    params: Any = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class RunConfig:
    seed: int
    out_dir: str = "out"
    bits: bool = False
    data: DataConfig | None = None
    sampler: LogSnrSampler = LogSnrSampler()
    n_eps: int = 4
    solver: SolverConfig = SolverConfig()
    denoiser: DenoiserConfig = DenoiserConfig()
    estimate: EstimateConfig | None = None
    decompose: DecomposeConfig | None = None
    rank: RankConfig | None = None
    intervene: InterveneConfig | None = None
    train: TrainConfigSection | None = None
    oracle: OracleConfig | None = None

    def resolved(self) -> dict:
        """The fully-defaulted configuration, embedded in every output."""
        out: dict[str, Any] = {
            "seed": self.seed,
            "output": {"dir": self.out_dir},
            "bits": self.bits,
            "sampler": {
                "loc": self.sampler.loc,
                "scale": self.sampler.scale,
                "clip": self.sampler.clip,
                "n_snr": self.sampler.n_draws,
                "n_eps": self.n_eps,
            },
            "solver": {
                "n_steps": self.solver.n_steps,
                "alpha_min": self.solver.alpha_min,
                "alpha_max": self.solver.alpha_max,
            },
            "denoiser": (
                {"kind": self.denoiser.kind}
                if self.denoiser.path is None
                else {"kind": self.denoiser.kind, "path": self.denoiser.path}
            ),
        }
        if self.data is not None:
            data: dict[str, Any] = {}
            if self.data.gmm is not None:
                spec = self.data.gmm
                data["gmm"] = {
                    "components": [
                        {
                            "weight": float(spec.weights[k]),
                            "mean": [float(v) for v in spec.means[k]],
                            "cov": [[float(v) for v in row] for row in spec.covariances[k]],
                        }
                        for k in range(spec.n_components)
                    ],
                    "condition_map": {t: list(v) for t, v in spec.condition_map.items()},
                }
            if self.data.checkpoint is not None:
                data["checkpoint"] = self.data.checkpoint
            if self.data.n_samples is not None:
                data["n_samples"] = self.data.n_samples
            if self.data.points is not None:
                data["points"] = [[float(v) for v in row] for row in self.data.points]
            if self.data.component_conditions is not None:
                data["component_conditions"] = [
                    None if c is None else {"label": c.label, "context": list(c.context)}
                    for c in self.data.component_conditions
                ]
            if self.data.grid is not None:
                data["grid"] = list(self.data.grid)
            if self.data.truth_mask is not None:
                data["truth_mask"] = [int(v) for v in self.data.truth_mask]
            out["data"] = data
        if self.estimate is not None:
            out["estimate"] = {
                "kind": self.estimate.kind,
                "estimator_kind": self.estimate.estimator_kind,
            }
        if self.decompose is not None:
            out["decompose"] = {"kind": self.decompose.kind}
        if self.rank is not None:
            out["rank"] = {
                "n_samples": self.rank.n_samples,
                "candidates": None if self.rank.candidates is None else list(self.rank.candidates),
                "estimator_kind": self.rank.estimator_kind,
            }
        if self.intervene is not None:
            out["intervene"] = {
                "n_samples": self.intervene.n_samples,
                "swap": dict(self.intervene.swap),
            }
        if self.train is not None:
            mlp = self.train.mlp
            out["train"] = {
                "hidden": list(mlp.hidden),
                "n_steps": mlp.n_steps,
                "batch_size": mlp.batch_size,
                "learning_rate": mlp.learning_rate,
                "condition_drop": mlp.condition_drop,
                "n_frequencies": mlp.n_frequencies,
                "checkpoint_name": self.train.checkpoint_name,
            }
        if self.oracle is not None:
            out["oracle"] = {"op": self.oracle.op, **self.oracle.params}
        return out


_TOP_LEVEL = {
    "seed",
    "output",
    "bits",
    "data",
    "sampler",
    "solver",
    "denoiser",
    "estimate",
    "decompose",
    "rank",
    "intervene",
    "train",
    "oracle",
}

_ORACLE_PARAMS = {
    "gaussian_mi": {"correlation"},
    "mmse_gaussian": {"variance", "alpha"},
    "gmm_mi_numeric": {"labels"},
    "gaussian_pointwise": {"x", "y", "joint_covariance"},
}


def _check_oracle_param(name: str, value) -> None:
    """Type-check one oracle parameter; the oracle itself checks value ranges."""
    path = f"oracle.{name}"
    if name in ("correlation", "variance", "alpha"):
        if not math.isfinite(_number(value, path)):
            raise ConfigError(f"{path!r} must be finite, got {value!r}", path)
    elif name == "labels":
        if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
            raise ConfigError(f"{path!r} must be a list of strings, got {value!r}", path)
    else:
        try:
            arr = np.asarray(value)
            ok = arr.dtype.kind in "iuf" and bool(np.isfinite(arr).all())
        except ValueError:  # ragged nesting
            ok = False
        if not ok:
            raise ConfigError(f"{path!r} must be an array of finite numbers, got {value!r}", path)


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("the configuration document must be a JSON object")
    _check_keys(raw, _TOP_LEVEL, "")
    seed = _integer(_get(raw, "seed", "", required=True), "seed")

    out_dir = "out"
    if "output" in raw:
        _check_keys(raw["output"], {"dir"}, "output")
        out_dir = _string(_get(raw["output"], "dir", "output", required=True), "output.dir")
    bits = raw.get("bits", False)
    if not isinstance(bits, bool):
        raise ConfigError(f"'bits' must be a boolean, got {bits!r}", "bits")

    data = _parse_data(raw["data"], "data") if "data" in raw else None
    sampler, n_eps = _parse_sampler(raw.get("sampler", {}))
    solver = _parse_solver(raw.get("solver", {}))
    denoiser = _parse_denoiser(raw.get("denoiser", {"kind": "closed_form"}))

    estimate = None
    if "estimate" in raw:
        _check_keys(raw["estimate"], {"kind", "estimator_kind"}, "estimate")
        kind = _string(_get(raw["estimate"], "kind", "estimate", required=True), "estimate.kind")
        if kind not in _ESTIMATE_KINDS:
            raise ConfigError(
                f"estimate.kind must be one of {_ESTIMATE_KINDS}, got {kind!r}", "estimate.kind"
            )
        inner = _string(raw["estimate"].get("estimator_kind", "pointwise_o"), "estimate.estimator_kind")
        if inner not in ("pointwise_s", "pointwise_o"):
            raise ConfigError(
                f"estimate.estimator_kind must be pointwise_s or pointwise_o, got {inner!r}",
                "estimate.estimator_kind",
            )
        estimate = EstimateConfig(kind=kind, estimator_kind=inner)

    decompose = None
    if "decompose" in raw:
        _check_keys(raw["decompose"], {"kind"}, "decompose")
        kind = _string(_get(raw["decompose"], "kind", "decompose", default="pointwise_o"), "decompose.kind")
        if kind not in ("pointwise_s", "pointwise_o", "cmi"):
            raise ConfigError(
                f"decompose.kind must be pointwise_s, pointwise_o or cmi, got {kind!r}",
                "decompose.kind",
            )
        decompose = DecomposeConfig(kind=kind)

    rank = None
    if "rank" in raw:
        _check_keys(raw["rank"], {"n_samples", "candidates", "estimator_kind"}, "rank")
        n_samples = _positive(_get(raw["rank"], "n_samples", "rank", required=True), "rank.n_samples")
        candidates = raw["rank"].get("candidates")
        if candidates is not None:
            candidates = tuple(_string(c, "rank.candidates[]") for c in candidates)
        kind = _string(raw["rank"].get("estimator_kind", "pointwise_s"), "rank.estimator_kind")
        if kind not in ("pointwise_s", "pointwise_o"):
            raise ConfigError(
                f"rank.estimator_kind must be pointwise_s or pointwise_o, got {kind!r}",
                "rank.estimator_kind",
            )
        rank = RankConfig(n_samples=n_samples, candidates=candidates, estimator_kind=kind)

    intervene = None
    if "intervene" in raw:
        _check_keys(raw["intervene"], {"n_samples", "swap"}, "intervene")
        n_samples = _positive(
            _get(raw["intervene"], "n_samples", "intervene", required=True), "intervene.n_samples"
        )
        swap = _get(raw["intervene"], "swap", "intervene", required=True)
        if not isinstance(swap, dict) or not swap:
            raise ConfigError("intervene.swap must be a non-empty object", "intervene.swap")
        intervene = InterveneConfig(n_samples=n_samples, swap=dict(swap))

    train = None
    if "train" in raw:
        allowed = {
            "hidden",
            "n_steps",
            "batch_size",
            "learning_rate",
            "condition_drop",
            "n_frequencies",
            "checkpoint_name",
        }
        _check_keys(raw["train"], allowed, "train")
        section = raw["train"]
        try:
            mlp = MlpTrainConfig(
                hidden=tuple(section.get("hidden", (64, 64))),
                n_steps=_integer(section.get("n_steps", 20_000), "train.n_steps"),
                batch_size=_integer(section.get("batch_size", 128), "train.batch_size"),
                learning_rate=_number(section.get("learning_rate", 1e-3), "train.learning_rate"),
                condition_drop=_number(section.get("condition_drop", 0.2), "train.condition_drop"),
                n_frequencies=_integer(section.get("n_frequencies", 8), "train.n_frequencies"),
            )
        except ValueError as exc:
            raise ConfigError(f"invalid train section: {exc}", "train") from exc
        train = TrainConfigSection(
            mlp=mlp,
            checkpoint_name=_string(section.get("checkpoint_name", "mlp.ckpt"), "train.checkpoint_name"),
        )

    oracle = None
    if "oracle" in raw:
        section = dict(raw["oracle"])
        op = _string(_get(section, "op", "oracle", required=True), "oracle.op")
        if op not in _ORACLE_PARAMS:
            raise ConfigError(
                f"oracle.op must be one of {sorted(_ORACLE_PARAMS)}, got {op!r}", "oracle.op"
            )
        params = {k: v for k, v in section.items() if k != "op"}
        _check_keys(params, _ORACLE_PARAMS[op], "oracle")
        for name, value in params.items():
            _check_oracle_param(name, value)
        oracle = OracleConfig(op=op, params=params)

    return RunConfig(
        seed=seed,
        out_dir=out_dir,
        bits=bits,
        data=data,
        sampler=sampler,
        n_eps=n_eps,
        solver=solver,
        denoiser=denoiser,
        estimate=estimate,
        decompose=decompose,
        rank=rank,
        intervene=intervene,
        train=train,
        oracle=oracle,
    )


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return parse_config(raw)
