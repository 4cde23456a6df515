"""Versioned binary checkpoints: a JSON header followed by packed float64 arrays.

Layout: 4-byte magic, little-endian uint32 version, little-endian uint64
header length, the UTF-8 JSON header, then the raw C-order little-endian
float64 bytes of each array in the order the header declares.  Raw float64
bytes make the round trip bit-exact.

The header is one table of :mod:`diffinfo.config` checks per kind: ``_fields``
reads it, so a field of the wrong type or a missing or unknown one is
rejected by name, and ``_dump`` writes it.  Every array value must be finite;
a non-finite one is rejected naming the array and its index.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .config import ConfigError, _array, _dump, _fields, _integer, _list, _mapping, _number, _one_of, _string
from .denoise import GmmSpec
from .mlp import MlpDenoiser

MAGIC = b"DINF"
VERSION = 1

_COUNT = _integer(0)


def _widths(value, path: str) -> tuple:
    widths = _list(_COUNT)(value, path)
    if len(widths) < 2:
        raise ConfigError(f"{path!r} must be a list of at least two integers, got {value!r}", path)
    return widths


_ARRAY = {"name": _string, "shape": _list(_COUNT)}
# The fields every header has, then each kind's own, read from and written as its object's attributes.
_FRAME = {"kind": _string, "arrays": _list(lambda raw, path: _fields(raw, path, _ARRAY, required=_ARRAY))}
_HEADERS = {
    "gmm": {"dim": _COUNT, "n_components": _COUNT, "condition_map": _mapping(_list(_COUNT))},
    "mlp": {
        "dim": _COUNT,
        "vocabulary": _list(_string),
        "n_frequencies": _COUNT,
        "frequency_base": _number,
        "layer_widths": _widths,
    },
}


def save_checkpoint(obj, path) -> None:
    """Serialize a :class:`GmmSpec` or :class:`MlpDenoiser` to ``path``."""
    if isinstance(obj, GmmSpec):
        kind, arrays = "gmm", {"weights": obj.weights, "means": obj.means, "covariances": obj.covariances}
    elif isinstance(obj, MlpDenoiser):
        kind = "mlp"
        arrays = {f"{p}{i}": a for i, layer in enumerate(obj.layers) for p, a in zip("wb", layer)}
    else:
        raise TypeError(f"cannot checkpoint objects of type {type(obj).__name__}")
    listing = [{"name": name, "shape": list(a.shape)} for name, a in arrays.items()]
    header = {"kind": kind, "arrays": listing, **_dump(_HEADERS[kind], obj)}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    out = [MAGIC, struct.pack("<I", VERSION), struct.pack("<Q", len(blob)), blob]
    out += [np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays.values()]
    Path(path).write_bytes(b"".join(out))


def _check_header(header, path) -> tuple[dict, list[tuple[str, tuple[int, ...]]]]:
    """The header's fields, and the (name, shape) list its arrays must have."""
    try:
        kind = _one_of(*_HEADERS)(header.get("kind") if isinstance(header, dict) else None, "kind")
        table = {**_FRAME, **_HEADERS[kind]}
        fields = _fields(header, "", table, required=table)
    except ConfigError as exc:
        key = exc.field.split(".")[0]  # a value under condition_map is filed under its token
        raise ValueError(f"{path}: header field {key!r}: {exc}") from None
    if kind == "gmm":
        k, d = fields["n_components"], fields["dim"]
        expected = [("weights", (k,)), ("means", (k, d)), ("covariances", (k, d, d))]
    else:
        widths = fields["layer_widths"]
        expected = []
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            expected += [(f"w{i}", (fan_in, fan_out)), (f"b{i}", (fan_out,))]
    declared = [(e["name"], e["shape"]) for e in fields["arrays"]]
    if declared != expected:
        raise ValueError(
            f"{path}: header field 'arrays' declares {declared} but the header needs {expected}"
        )
    return fields, expected


def load_checkpoint(path):
    """Load a checkpoint back into a :class:`GmmSpec` or :class:`MlpDenoiser`.

    The header must hold every field its kind needs, with the right type, and
    declare exactly the arrays those fields imply.  The file must be exactly
    as long as its header declares: a truncated file or one with trailing
    bytes raises ``ValueError``, and so does a non-finite array value.
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
    try:
        header = json.loads(raw[16:offset].decode("utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: header is nested too deeply to read") from None
    header, shapes = _check_header(header, path)
    expected = offset + 8 * sum(math.prod(shape) for _, shape in shapes)
    if len(raw) != expected:
        problem = "truncated" if len(raw) < expected else "followed by trailing bytes"
        raise ValueError(f"{path} is {problem}: expected {expected} bytes, found {len(raw)}")
    arrays = {}
    for name, shape in shapes:
        count = math.prod(shape)
        values = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape)
        try:
            arrays[name] = _array(values, name)  # a checked copy
        except ConfigError as exc:
            raise ValueError(f"{path}: array {exc}") from None
        offset += count * 8
    if header["kind"] == "gmm":
        return GmmSpec(arrays["weights"], arrays["means"], arrays["covariances"], header["condition_map"])
    layers = [(arrays[f"w{i}"], arrays[f"b{i}"]) for i in range(len(shapes) // 2)]
    return MlpDenoiser(layers, header["dim"], header["vocabulary"], header["n_frequencies"], header["frequency_base"])
