"""Run one CLI invocation in a fresh interpreter and report how it went.

Usage: ``python3 bench/worker.py JOB.json``.  The job names the CLI argv,
the mixture spec and checkpoint needed for set-up, the speed gauge of the
workload, whether to trace or to stop after set-up, and the file to write the
result to.  Only the standard library is imported before the set-up clock
starts, so ``setup_s`` covers importing numpy and scipy.  Set-up and the
untraced CLI call are each timed raw and scaled to the gauge's nominal speed
(see ``gauge.py``); a traced call is timed raw only, so that no gauge reading
falls inside a span.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from gauge import Gauge


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    result: dict = {}
    setup_gauge = Gauge("python")
    setup_gauge.read()
    import diffinfo
    import diffinfo.cli as cli

    setup_gauge.read()
    imported = setup_gauge.summary()
    result["import_s"] = imported["raw_s"]
    tracer = None
    if job["trace"]:
        from spans import PatchTargetMissing, Tracer

        tracer = Tracer(job["item_marker"])
        try:
            tracer.install()
        except PatchTargetMissing as exc:
            result["patch_target_missing"] = str(exc)
            Path(job["result"]).write_text(json.dumps(result))
            return 3
    saved = _capture_saved_checkpoint(cli) if job["verify_checkpoint"] else None

    # Set-up: what a command does before its first denoiser row.
    setup_gauge.readings.clear()
    setup_gauge.read()
    cli.load_config(job["config"])
    spec = diffinfo.GmmSpec(**job["spec"])
    if job["checkpoint"] is None:
        diffinfo.gmm_mmse(spec)
    else:
        diffinfo.load_checkpoint(job["checkpoint"])
    setup_gauge.read()
    built = setup_gauge.summary()
    result["setup_s"] = imported["raw_s"] + built["raw_s"]
    result["setup_scaled_s"] = imported["scaled_s"] + built["scaled_s"]
    if job["setup_only"]:
        Path(job["result"]).write_text(json.dumps(result))
        return 0

    gauge = Gauge(job["gauge"]) if tracer is None else None
    t2 = time.perf_counter()
    if gauge is not None:
        gauge.start()
    try:
        result["exit_code"] = cli.main(job["argv"])
    except SystemExit as exc:  # argparse rejected the arguments
        result["exit_code"] = exc.code
    except Exception:  # the CLI must not raise; record what it raised
        result["error"] = traceback.format_exc()
    finally:
        if gauge is not None:
            gauge.stop()
    result["wall_s"] = time.perf_counter() - t2
    if gauge is not None:
        measured = gauge.summary()
        result["wall_s"] = measured["raw_s"]
        result["wall_scaled_s"] = measured["scaled_s"]
        result["gauge"] = {k: measured[k] for k in ("readings", "gauge_median_s")}
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.export()
    if saved is not None and "error" not in result:
        result["checkpoint_mismatch"] = _checkpoint_mismatch(diffinfo, saved, job)
    Path(job["result"]).write_text(json.dumps(result))
    return 0


def _capture_saved_checkpoint(cli) -> list:
    """Keep the object ``cli`` saves, to compare it with its reload later."""
    saved = []
    save = cli.save_checkpoint

    def keep(obj, path):
        saved.append((obj, path))
        return save(obj, path)

    cli.save_checkpoint = keep
    return saved


def _checkpoint_mismatch(diffinfo, saved, job) -> str | None:
    """Why the reloaded checkpoint predicts differently from the trained net, if it does."""
    import numpy as np

    if len(saved) != 1:
        return f"expected one saved checkpoint, got {len(saved)}"
    net, path = saved[0]
    loaded = diffinfo.load_checkpoint(path)
    rng = np.random.default_rng(job["seed"])
    x = rng.standard_normal((64, net.dim))
    alpha = rng.uniform(-5.0, 7.0, 64)
    conditions = [None] + [diffinfo.ConditionId(label=t) for t in net.vocabulary]
    for condition in conditions:
        want = net.predict_eps(x, alpha, condition)
        got = loaded.predict_eps(x, alpha, condition)
        if not np.all(np.isfinite(want)):
            return f"trained net predicts non-finite values under {condition}"
        if not np.array_equal(want, got):
            return f"reloaded net differs under {condition} by {np.abs(want - got).max()!r}"
    return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
