"""Versioned binary checkpoints: a JSON header followed by packed float64 arrays.

Layout: 4-byte magic, little-endian uint32 version, little-endian uint64
header length, the UTF-8 JSON header, then the raw C-order little-endian
float64 bytes of each array in the order the header declares.  Raw float64
bytes make the round trip bit-exact.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .denoise import GmmSpec
from .mlp import MlpDenoiser

MAGIC = b"DINF"
VERSION = 1


def _pack(kind: str, meta: dict, arrays: list[tuple[str, np.ndarray]]) -> bytes:
    header = dict(meta)
    header["kind"] = kind
    header["arrays"] = [{"name": name, "shape": list(a.shape)} for name, a in arrays]
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    out = [MAGIC, struct.pack("<I", VERSION), struct.pack("<Q", len(blob)), blob]
    for _, a in arrays:
        out.append(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return b"".join(out)


def save_checkpoint(obj, path) -> None:
    """Serialize a :class:`GmmSpec` or :class:`MlpDenoiser` to ``path``."""
    if isinstance(obj, GmmSpec):
        meta = {
            "dim": obj.dim,
            "n_components": obj.n_components,
            "condition_map": {t: list(v) for t, v in obj.condition_map.items()},
        }
        arrays = [
            ("weights", obj.weights),
            ("means", obj.means),
            ("covariances", obj.covariances),
        ]
        data = _pack("gmm", meta, arrays)
    elif isinstance(obj, MlpDenoiser):
        meta = {
            "dim": obj.dim,
            "vocabulary": list(obj.vocabulary),
            "n_frequencies": obj.n_frequencies,
            "frequency_base": obj.frequency_base,
            "layer_widths": list(obj.layer_widths),
        }
        arrays = []
        for i, (w, b) in enumerate(obj.layers):
            arrays.append((f"w{i}", w))
            arrays.append((f"b{i}", b))
        data = _pack("mlp", meta, arrays)
    else:
        raise TypeError(f"cannot checkpoint objects of type {type(obj).__name__}")
    Path(path).write_bytes(data)


def _count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _counts(value) -> bool:
    return isinstance(value, list) and all(_count(v) for v in value)


# The header fields each kind needs: (check, what the check requires).
_FIELDS = {
    "gmm": {
        "dim": (_count, "a non-negative integer"),
        "n_components": (_count, "a non-negative integer"),
        "condition_map": (
            lambda v: isinstance(v, dict) and all(_counts(idx) for idx in v.values()),
            "an object of component index lists",
        ),
    },
    "mlp": {
        "dim": (_count, "a non-negative integer"),
        "vocabulary": (lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v), "a list of strings"),
        "n_frequencies": (_count, "a non-negative integer"),
        "frequency_base": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
        "layer_widths": (lambda v: _counts(v) and len(v) >= 2, "a list of at least two integers"),
    },
}


def _check_header(header, path) -> list[tuple[str, tuple[int, ...]]]:
    """Check the header's fields and return the (name, shape) list its arrays must have."""
    if not isinstance(header, dict) or header.get("kind") not in _FIELDS:
        raise ValueError(f"{path}: header field 'kind' must be one of {sorted(_FIELDS)}")
    for key, (check, requirement) in _FIELDS[header["kind"]].items():
        if not check(header.get(key)):
            raise ValueError(f"{path}: header field {key!r} must be {requirement}")
    if header["kind"] == "gmm":
        k, d = header["n_components"], header["dim"]
        expected = [("weights", (k,)), ("means", (k, d)), ("covariances", (k, d, d))]
    else:
        widths = header["layer_widths"]
        expected = []
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            expected += [(f"w{i}", (fan_in, fan_out)), (f"b{i}", (fan_out,))]
    entries = header.get("arrays")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError(f"{path}: header field 'arrays' must be a list of objects")
    declared = [(e.get("name"), tuple(e["shape"]) if _counts(e.get("shape")) else None) for e in entries]
    if declared != expected:
        raise ValueError(
            f"{path}: header field 'arrays' declares {declared} but the header needs {expected}"
        )
    return expected


def load_checkpoint(path):
    """Load a checkpoint back into a :class:`GmmSpec` or :class:`MlpDenoiser`.

    The header must hold every field its kind needs, with the right type, and
    declare exactly the arrays those fields imply.  The file must be exactly
    as long as its header declares: a truncated file or one with trailing
    bytes raises ``ValueError``.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path} is not a diffinfo checkpoint (bad magic)")
    if len(raw) < 16:
        raise ValueError(f"{path} is truncated: {len(raw)} bytes, shorter than the 16-byte preamble")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (header_len,) = struct.unpack("<Q", raw[8:16])
    offset = 16 + header_len
    if len(raw) < offset:
        raise ValueError(f"{path} is truncated: {len(raw)} bytes, header ends at byte {offset}")
    header = json.loads(raw[16:offset].decode("utf-8"))
    shapes = _check_header(header, path)
    expected = offset + 8 * sum(math.prod(shape) for _, shape in shapes)
    if len(raw) != expected:
        problem = "truncated" if len(raw) < expected else "followed by trailing bytes"
        raise ValueError(f"{path} is {problem}: expected {expected} bytes, found {len(raw)}")
    arrays = {}
    for name, shape in shapes:
        count = math.prod(shape)
        arrays[name] = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        offset += count * 8
    if header["kind"] == "gmm":
        return GmmSpec(
            weights=arrays["weights"],
            means=arrays["means"],
            covariances=arrays["covariances"],
            condition_map={t: tuple(v) for t, v in header["condition_map"].items()},
        )
    n_layers = len(header["layer_widths"]) - 1
    layers = [(arrays[f"w{i}"], arrays[f"b{i}"]) for i in range(n_layers)]
    return MlpDenoiser(
        layers,
        dim=header["dim"],
        vocabulary=header["vocabulary"],
        n_frequencies=header["n_frequencies"],
        frequency_base=header["frequency_base"],
    )
