"""Run configuration: a single JSON document, validated before any computation.

The schema is one table per section, mapping each JSON key to a check
``(value, dotted_path) -> parsed value`` that raises :class:`ConfigError`
naming the path.  ``_fields`` reads a table, rejecting unknown keys, and
``_build`` makes the section's dataclass, reporting a missing required field
by its dotted path.  Defaults are the dataclass field defaults and are written
nowhere else.  ``RunConfig.resolved`` reads the same tables back into JSON
(``_dump``), omitting ``None``; the result parses back to itself.  JSON keys
are field names, except the renames in ``_ATTR``, the keys of a :class:`_Section`
that are RunConfig fields (``sampler.n_eps``, ``output.dir``,
``train.checkpoint_name``), and the ``oracle`` parameters, which sit beside
``op`` and are checked by ``ORACLE_OPS``.  The same checks, ``_fields`` and
``_dump`` also read and write the headers of :mod:`diffinfo.checkpoint`.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from .channel import LogSnrSampler
from .denoise import ConditionId, GmmSpec
from .estimators import ESTIMATOR_KINDS
from .flow import SolverConfig
from .mlp import MlpTrainConfig


class ConfigError(ValueError):
    """A schema violation; ``field`` is the dotted path of the offending entry."""

    def __init__(self, message: str, field_path: str | None = None):
        super().__init__(message)
        self.field = field_path


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _missing(path: str):
    raise ConfigError(f"missing required field {path!r}", path)


# --- checks: (value, dotted path) -> parsed value ---------------------------


def _integer(low: int | None = None):
    def check(value, path: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or low is not None and value < low:
            bound = "" if low is None else f" of at least {low}"
            raise ConfigError(f"{path!r} must be an integer{bound}, got {value!r}", path)
        return value

    return check


_positive = _integer(1)


def _number(value, path: str) -> float:
    # NaN fails the comparison, and so does an int beyond float range, where math.isfinite would raise
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path!r} must be a finite number, got {value!r}", path)
    return float(value)


def _ranged(test, bound: str):
    """A finite number that passes ``test``; ``bound`` says which numbers do."""

    def check(value, path: str) -> float:
        if not test(number := _number(value, path)):
            raise ConfigError(f"{path!r} must be {bound}, got {value!r}", path)
        return number

    return check


_positive_real = _ranged(lambda v: v > 0, "positive")


def _typed(kind, noun: str):
    def check(value, path: str):
        if not isinstance(value, kind):
            raise ConfigError(f"{path!r} must be {noun}, got {value!r}", path)
        return value

    return check


_string = _typed(str, "a string")
_boolean = _typed(bool, "a boolean")


def _one_of(*choices: str):
    def check(value, path: str) -> str:
        if _string(value, path) not in choices:
            raise ConfigError(f"{path} must be one of {', '.join(choices)}; got {value!r}", path)
        return value

    return check


def _optional(check):
    return lambda value, path: None if value is None else check(value, path)


def _as_given(check):
    """``check`` for validation only: the value is kept as written."""
    return lambda value, path: (check(value, path), value)[1]


def _list(check, length: int | None = None):
    """A JSON list checked entry by entry; an entry's error is filed under the list."""

    def parse(value, path: str) -> tuple:
        if not isinstance(value, list) or length not in (None, len(value)):
            shape = "a list" if length is None else f"a list of {length}"
            raise ConfigError(f"{path!r} must be {shape}, got {value!r}", path)
        try:
            return tuple(check(v, f"{path}[{i}]") for i, v in enumerate(value))
        except ConfigError as exc:
            raise ConfigError(str(exc), path) from None

    return parse


def _mapping(check):
    """A JSON object with free keys, each value checked."""

    def parse(value, path: str) -> dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path!r} must be an object, got {value!r}", path)
        return {key: check(v, _join(path, key)) for key, v in value.items()}

    return parse


def _asarray(value) -> np.ndarray:
    """``np.asarray``, with ragged nesting as an object array."""
    try:
        return np.asarray(value)
    except ValueError:
        return np.asarray(None)


def _array(value, path: str) -> np.ndarray:
    """A number or nested list of finite numbers, checked in one numpy pass."""
    array = _asarray(value)
    if array.dtype.kind not in "iuf":
        raise ConfigError(f"{path!r} must be an array of numbers, got {value!r}", path)
    bad = ~np.isfinite(array)
    if bad.any():
        first = np.argwhere(bad)[0]
        raise ConfigError(f"{path}{''.join(f'[{i}]' for i in first)} is not finite", path)
    return array.astype(float)


def _vector(value, path: str) -> np.ndarray:
    vector = _array(value, path)
    if vector.ndim > 1:
        raise ConfigError(f"{path!r} must be a number or a list of numbers, got {value!r}", path)
    return vector


def _points(value, path: str) -> np.ndarray:
    points = np.atleast_2d(_array(value, path))
    if points.ndim != 2:
        raise ConfigError(f"{path!r} must be a list of vectors", path)
    return points


def _mask(value, path: str) -> np.ndarray:
    """A 1-D list of 0/1 or booleans."""
    mask = _asarray(value)
    if mask.ndim != 1 or (mask.size and (mask.dtype.kind not in "biu" or not np.isin(mask, (0, 1)).all())):
        raise ConfigError(f"{path!r} must be a list of 0/1 or booleans, got {value!r}", path)
    return mask.astype(bool)


# --- reading and writing a table --------------------------------------------

# JSON key -> attribute, where they differ.
_ATTR = {"n_snr": "n_draws", "dir": "out_dir"}


def _fields(raw, path: str, table: dict, required=()) -> dict:
    """Check a JSON object against ``table``; the parsed values by attribute (or a _Section's)."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path!r} must be an object, got {raw!r}", path)
    for key in raw:
        if key not in table:
            raise ConfigError(f"unknown key {key!r} in {path or 'the top level'}", _join(path, key))
    for key in required:
        if key not in raw:
            _missing(_join(path, key))
    out = {}
    for key, value in raw.items():
        parsed = table[key](value, _join(path, key))
        out.update(parsed if isinstance(table[key], _Section) else {_ATTR.get(key, key): parsed})
    return out


def _build(cls, kwargs: dict, path: str):
    """``cls(**kwargs)``: a missing required field or a value ``cls`` rejects names its path,
    the section for a joint condition (a value out of range alone fails the schema first)."""
    for f in fields(cls):
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            _missing(_join(path, f.name))
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid {path}: {exc}", path) from exc


def _dump(table: dict, *objs) -> dict:
    """The inverse of ``_fields``: each key's attribute, from the first of ``objs`` that has it."""
    out = {}
    for key, check in table.items():
        if isinstance(check, _Section):
            value = check.dump(objs[-1], key)
        else:
            attr = _ATTR.get(key, key)
            value = _plain(getattr(next(o for o in objs if hasattr(o, attr)), attr))
        if value is not None:
            out[key] = value
    return out


def _plain(value):
    """A parsed value as JSON."""
    if isinstance(value, np.ndarray):
        return (value.astype(int) if value.dtype == bool else value).tolist()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, ConditionId):
        return {"label": value.label, "context": list(value.context)}
    if isinstance(value, OracleConfig):
        return {"op": value.op, **value.params}
    if isinstance(value, GmmSpec):
        parts = zip(value.weights.tolist(), value.means.tolist(), value.covariances.tolist())
        return {
            "components": [{"weight": w, "mean": m, "cov": c} for w, m, c in parts],
            "condition_map": {t: list(v) for t, v in value.condition_map.items()},
        }
    return value


class _Section:
    """A top-level JSON object whose keys, checked by ``table``, fill ``cls`` (the keys that
    are its fields), stored at the RunConfig field named by the section's own key.  The keys
    left over are RunConfig fields."""

    def __init__(self, table: dict, cls=None, required=()):
        self.table, self.cls, self.required = table, cls, required

    def __call__(self, raw, path: str) -> dict:
        kwargs = _fields(raw, path, self.table, self.required)
        if self.cls is not None:
            own = {f.name: kwargs.pop(f.name) for f in fields(self.cls) if f.name in kwargs}
            kwargs[path] = _build(self.cls, own, path)
        return kwargs

    def dump(self, cfg, key: str):
        obj = cfg if self.cls is None else getattr(cfg, key)
        return None if obj is None else _dump(self.table, obj, cfg)


# --- sections --------------------------------------------------------------

_COMPONENT = {"weight": _number, "mean": _array, "cov": _array}
_GMM = {
    "components": _list(lambda raw, path: _fields(raw, path, _COMPONENT, required=tuple(_COMPONENT))),
    "condition_map": _mapping(_list(_integer())),
}


def _gmm(raw, path: str) -> GmmSpec:
    kwargs = _fields(raw, path, _GMM, required=("components",))
    comps = kwargs.pop("components")
    if not comps:
        raise ConfigError(f"{path}.components must be a non-empty list", f"{path}.components")
    weights, means, covs = ([c[key] for c in comps] for key in _COMPONENT)
    return _build(GmmSpec, dict(weights=weights, means=means, covariances=covs, **kwargs), path)


_CONDITION = {"label": _optional(_string), "context": _list(_string)}


def _condition(raw, path: str) -> ConditionId:
    return _build(ConditionId, _fields(raw, path, _CONDITION), path)


@dataclass(frozen=True, eq=False)
class DataConfig:
    gmm: GmmSpec | None = None
    checkpoint: str | None = None
    n_samples: int | None = None
    points: np.ndarray | None = None
    component_conditions: tuple | None = None
    grid: tuple[int, int] | None = None
    truth_mask: np.ndarray | None = None

    def __post_init__(self):
        if self.gmm is not None and self.checkpoint is not None:
            raise ConfigError("data must give either 'gmm' or 'checkpoint', not both", "data")


@dataclass(frozen=True)
class DenoiserConfig:
    kind: str
    path: str | None = None

    def __post_init__(self):
        if self.kind == "checkpoint" and self.path is None:
            _missing("denoiser.path")
        if self.kind == "closed_form" and self.path is not None:
            raise ConfigError("'denoiser.path' is read only under kind checkpoint, not closed_form", "denoiser.path")


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
    swap: dict

    def __post_init__(self):
        if not self.swap:
            raise ConfigError("intervene.swap must be a non-empty object", "intervene.swap")


@dataclass(frozen=True)
class OracleConfig:
    op: str
    params: Any = field(default_factory=dict)


class OracleOp(NamedTuple):
    params: dict  # parameter -> check; values are kept as written
    range_param: str  # blamed for a ValueError; a non-finite value is blamed on the others, the point
    required: bool = True  # all parameters must be given, or none


_FINITE, _VECTOR, _NUMBERS = _as_given(_number), _as_given(_vector), _as_given(_array)

# The oracle ops, each named after its function in ``oracle``.
ORACLE_OPS = {
    "gaussian_mi": OracleOp({"correlation": _FINITE}, "correlation"),
    "mmse_gaussian": OracleOp({"variance": _FINITE, "alpha": _FINITE}, "variance"),
    "gaussian_pointwise": OracleOp({"x": _VECTOR, "y": _VECTOR, "joint_covariance": _NUMBERS}, "joint_covariance"),
    "gmm_mi_numeric": OracleOp({"labels": _as_given(_list(_string))}, "labels", required=False),
}


def _oracle(raw, path: str) -> OracleConfig:
    params = _mapping(lambda value, _: value)(raw, path)
    if "op" not in params:
        _missing(f"{path}.op")
    op = _one_of(*ORACLE_OPS)(params.pop("op"), f"{path}.op")
    spec = ORACLE_OPS[op]
    return OracleConfig(op=op, params=_fields(params, path, spec.params, spec.params if spec.required else ()))


_POINTWISE = _one_of("pointwise_s", "pointwise_o")
_DATA = {
    "gmm": _gmm,
    "checkpoint": _string,
    "n_samples": _positive,
    "points": _points,
    "component_conditions": _list(_optional(_condition)),
    "grid": _list(_positive, length=2),
    "truth_mask": _mask,
}
_SAMPLER = {"loc": _number, "scale": _positive_real, "clip": _positive_real, "n_snr": _positive, "n_eps": _positive}
_TRAIN = {
    "hidden": _list(_positive),
    "n_steps": _positive,
    "batch_size": _positive,
    "learning_rate": _positive_real,
    "condition_drop": _ranged(lambda v: 0 <= v <= 1, "in [0, 1]"),
    "n_frequencies": _integer(0),
    "checkpoint_name": _string,
}
_RUN = {
    "seed": _integer(0),
    "output": _Section({"dir": _string}, required=("dir",)),
    "bits": _boolean,
    "data": _Section(_DATA, DataConfig),
    "sampler": _Section(_SAMPLER, LogSnrSampler),
    "solver": _Section(
        {"n_steps": _positive, "alpha_min": _number, "alpha_max": _number}, SolverConfig
    ),
    "denoiser": _Section(
        {"kind": _one_of("closed_form", "checkpoint"), "path": _string}, DenoiserConfig
    ),
    "estimate": _Section(
        {"kind": _one_of(*ESTIMATOR_KINDS), "estimator_kind": _POINTWISE}, EstimateConfig
    ),
    "decompose": _Section({"kind": _one_of("pointwise_s", "pointwise_o", "cmi")}, DecomposeConfig),
    "rank": _Section(
        {"n_samples": _positive, "candidates": _optional(_list(_string)), "estimator_kind": _POINTWISE},
        RankConfig,
    ),
    "intervene": _Section({"n_samples": _positive, "swap": _mapping(_string)}, InterveneConfig),
    "train": _Section(_TRAIN, MlpTrainConfig),
    "oracle": _oracle,
}


@dataclass(frozen=True, eq=False)
class RunConfig:
    seed: int
    out_dir: str = "out"
    bits: bool = False
    data: DataConfig | None = None
    sampler: LogSnrSampler = LogSnrSampler()
    n_eps: int = 4
    solver: SolverConfig = SolverConfig()
    denoiser: DenoiserConfig = DenoiserConfig("closed_form")
    estimate: EstimateConfig | None = None
    decompose: DecomposeConfig | None = None
    rank: RankConfig | None = None
    intervene: InterveneConfig | None = None
    train: MlpTrainConfig | None = None
    checkpoint_name: str = "mlp.ckpt"
    oracle: OracleConfig | None = None

    def __post_init__(self):
        # Again here, for a seed that replaces the parsed one (``--seed``).
        _RUN["seed"](self.seed, "seed")

    def resolved(self) -> dict:
        """The fully-defaulted configuration, embedded in every output."""
        return _dump(_RUN, self)


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("the configuration document must be a JSON object")
    return _build(RunConfig, _fields(raw, "", _RUN), "")


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError, RecursionError) as exc:  # a directory, not UTF-8, nested too deep
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(raw)
