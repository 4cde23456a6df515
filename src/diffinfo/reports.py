"""Deterministic CSV/JSON/PGM writers for estimates.

CSV floats use '.' as the decimal separator and 17 significant digits, which
round-trips IEEE doubles exactly; JSON is dumped with sorted keys.  Rerunning
a command with the same config and seed reproduces every output byte.  A value
that could not be estimated is NaN in memory: JSON writes ``null`` and CSV an
empty cell.  JSON never holds a non-finite number: ``write_json`` raises
:class:`NonFiniteOutputError` on one and removes the partial file.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .tasks import rescale_unit


class NonFiniteOutputError(ValueError):
    """A JSON output would hold a non-finite number; the message names the file."""


def format_float(value: float) -> str:
    return f"{float(value):.17g}"


def _format_cell(value):
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, (bool, np.bool_)):  # before int: bool is an int
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "" if value is None else str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def write_json(path, payload) -> None:
    # Streamed: joining the document first would hold every chunk at once.
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)
            fh.write("\n")
    except ValueError as exc:
        Path(path).unlink()
        raise NonFiniteOutputError(f"{path}: {exc}") from exc


def _entries(report):
    """(total, std_error, per_dim list) of each estimate of ``report`` in row-major
    order, with None for a NaN std_error."""
    errors = [None if math.isnan(v) else v for v in report.std_error.ravel().tolist()]
    per_dim = report.per_dim.reshape(-1, report.per_dim.shape[-1]).tolist()
    return zip(report.total.ravel().tolist(), errors, per_dim)


def report_records(report) -> list[dict]:
    """One JSON object per estimate of ``report``; a 0-d report gives one."""
    shared = {
        "n_snr_draws": report.sampler.n_draws,
        "n_eps_draws": report.sampler.n_eps,
        "n_samples": report.n_samples,
        "estimator_kind": report.estimator_kind,
        "alpha_interval": list(report.sampler.support),
    }
    return [{"total": t, "std_error": s, "per_dim": p, **shared} for t, s, p in _entries(report)]


def write_report_csv(path, report, per_dim: bool = False) -> None:
    """One row per estimate of ``report``: its index, total and std_error, and
    with ``per_dim`` one column per dimension."""
    header = ["id", "total", "std_error"]
    if per_dim:
        header += [f"dim_{j}" for j in range(report.per_dim.shape[-1])]
    rows = [(i, t, s, *(p if per_dim else ())) for i, (t, s, p) in enumerate(_entries(report))]
    write_csv(path, header, rows)


def write_pgm(path, image) -> None:
    """8-bit binary portable graymap, row-major, min-max rescaled."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    levels = np.rint(rescale_unit(image.ravel()) * 255).astype(np.uint8).reshape(image.shape)
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + levels.tobytes())

