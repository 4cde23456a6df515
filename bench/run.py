"""diffinfo benchmark: four CLI workloads, oracle-checked, with a traced pass.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation (one CLI invocation) runs ``diffinfo.cli.main(argv)`` in a
fresh interpreter with BLAS pinned to one thread.  Whole passes over the
workload repeat until ``--seconds`` have gone by.  The host changes speed by
up to 2x for seconds to minutes at a time, so ``setup_s`` and ``wall_s`` are
scaled to a fixed machine speed by a gauge kernel timed alongside (see
``gauge.py``); raw times stay in the run record.  ``wall_s`` and
``peak_rss_mb`` are medians over passes.  ``setup_s`` sums, over the
workload's operations, the median set-up of each: every pass sets each
operation up once more in a worker that stops before the CLI call.  Every
pass must write the same bytes as the first, and the first pass's outputs
are checked against scipy oracles.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones; their spans go to ``.bench_out/``.  The last line of standard output is
the result: ``{"correct", "attempted", "failed", "metrics"}``.  A missing
``src/diffinfo`` or a trace target that no longer exists exits non-zero
without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"

BLAS_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}
MIN_PASSES = 3
# Extra set-up-only workers per operation and untraced pass of an untraced
# run, for more set-up samples.
EXTRA_SETUPS = 1
MIN_TRACED_PASSES = 2
# The whole run must end within 180 s; no pass starts after this point.
DEADLINE_S = 140.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "nll_rmse_nats": "nats",
    "nll_max_bias_nats": "nats",
    "heatmap_miou": "ratio",
    "roundtrip_l2_max": "L2",
    "rank_accuracy": "ratio",
}
# Quality metrics that a workload does not produce read this fixed value.
NOT_APPLICABLE = 1.0

PER_LAYER = {
    "denoise.gmm.self_s": "s",
    "denoise.gmm.rows_per_s": "rows/s",
    "denoise.gmm.calls": "count",
    "denoise.gmm.rows_per_call": "rows/call",
    "denoise.rows_per_item": "rows/item",
    "flow.encode.self_s": "s",
    "flow.decode.self_s": "s",
    "flow.denoiser_rows": "rows",
    "estimators.self_s": "s",
    "channel.sample.self_s": "s",
    "channel.sample.calls": "count",
    "mlp.train_mlp.s": "s",
    "mlp.train_mlp.steps_per_s": "steps/s",
    "mlp.predict_eps.self_s": "s",
    "mlp.predict_eps.rows": "rows",
    "checkpoint.load.s": "s",
    "checkpoint.save.s": "s",
    "checkpoint.bytes": "B",
    "setup.import_s": "s",
    "config.load_config.s": "s",
    "reports.write.s": "s",
    "reports.bytes": "B",
    "reports.files": "count",
    "tasks.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchAbort(RuntimeError):
    """The benchmark cannot measure this checkout; no result is printed."""


def environment(name: str, seed: int, trace: bool) -> dict:
    import numpy
    import scipy

    commit = None
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_pin": BLAS_PIN,
    }


def _tree_digest(out: Path) -> dict:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def _file_digest(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


class Runner:
    """Runs passes over one workload and keeps what they measured."""

    def __init__(self, wl, work: Path):
        self.wl = wl
        self.jobs = work / "jobs"
        self.jobs.mkdir(parents=True)
        self.env = {**os.environ, **BLAS_PIN, "PYTHONPATH": os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )}
        self.configs = {}
        for op in wl.ops:
            path = work / "cfg" / f"{op.command}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(op.config))
            self.configs[op.command] = path.relative_to(ROOT).as_posix()
        self.first_digest: dict = {}
        self.check_failures: dict = {}
        self.quality: dict = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.setups: dict = {op.command: [] for op in wl.ops}  # scaled set-up times

    def one_pass(self, index: int, traced: bool, deadline: float, extra_setups: int) -> dict:
        for op in self.wl.ops:
            shutil.rmtree(ROOT / op.out, ignore_errors=True)
        ops = [self._run_op(index, op, traced, deadline) for op in self.wl.ops]
        if not traced:
            for op, o in zip(self.wl.ops, ops):
                if o["ok"]:
                    self.setups[op.command].append(o["setup_scaled_s"])
                for extra in range(extra_setups):
                    self._run_setup(f"{index}.{extra}", op, deadline)
        if traced and all(o["ok"] for o in ops):
            seen = {s["name"] for o in ops for s in o["spans"]}
            missing = [layer for layer in self.wl.layers if layer not in seen]
            if missing:
                raise BenchAbort(f"traced layers {missing} never ran on {self.wl.name}")
        return {
            "traced": traced,
            "ok": all(o["ok"] for o in ops),
            "setup_s": sum(o.get("setup_s", 0.0) for o in ops),
            "setup_scaled_s": sum(o.get("setup_scaled_s", 0.0) for o in ops),
            "wall_s": sum(o.get("wall_s", 0.0) for o in ops),
            "wall_scaled_s": sum(o.get("wall_scaled_s", 0.0) for o in ops),
            "rss_mb": max(o.get("rss_mb", 0.0) for o in ops),
            "gauge_median_s": [o["gauge"]["gauge_median_s"] for o in ops if "gauge" in o],
            "ops": ops,
        }

    def _run_setup(self, index, op, deadline) -> None:
        """One more set-up of ``op`` in a fresh interpreter, without the CLI call."""
        res, proc = self._work(index, op, False, deadline, setup_only=True)
        if proc is None or proc.returncode != 0 or "setup_scaled_s" not in res:
            why = "timed out" if proc is None else proc.stderr[-2000:] or "worker failed"
            self.failures.append(f"set-up {index} {op.command}: {why}")
        else:
            self.setups[op.command].append(res["setup_scaled_s"])

    def _work(self, index, op, traced, deadline, setup_only=False):
        """Run one worker job; return its result (empty if none) and process (None on timeout)."""
        result_path = self.jobs / f"{index}-{op.command}.result.json"
        job = {
            "argv": [op.command, "--config", self.configs[op.command], "--out", op.out],
            "config": self.configs[op.command],
            "spec": self.wl.spec,
            "checkpoint": op.checkpoint,
            "verify_checkpoint": op.verify_checkpoint,
            "seed": op.config["seed"],
            "gauge": self.wl.gauge,
            "trace": traced,
            "setup_only": setup_only,
            "item_marker": op.item_marker,
            "result": result_path.relative_to(ROOT).as_posix(),
        }
        job_path = self.jobs / f"{index}-{op.command}.json"
        job_path.write_text(json.dumps(job))
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), job_path.relative_to(ROOT).as_posix()],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, deadline - time.monotonic() + 25.0),
            )
        except subprocess.TimeoutExpired:
            return {}, None
        return (json.loads(result_path.read_text()) if result_path.exists() else {}), proc

    def _run_op(self, index, op, traced, deadline) -> dict:
        self.attempted += 1
        res, proc = self._work(index, op, traced, deadline)
        if proc is None:
            return self._fail(index, op, {}, "timed out")
        if "patch_target_missing" in res:
            raise BenchAbort(f"trace target {res['patch_target_missing']} no longer exists")
        if proc.returncode != 0 or "error" in res:
            return self._fail(index, op, res, res.get("error") or proc.stderr[-2000:] or "worker failed")
        if res.get("exit_code") != 0:
            return self._fail(index, op, res, f"exit code {res.get('exit_code')}: {proc.stderr[-500:]}")
        if res.get("checkpoint_mismatch"):
            return self._fail(index, op, res, res["checkpoint_mismatch"])
        digest = _tree_digest(ROOT / op.out)
        if op.command not in self.first_digest:
            self.first_digest[op.command] = digest
            try:
                failures, quality = workloads.check(self.wl, op, ROOT)
            except (OSError, KeyError, ValueError) as exc:  # an output is missing or malformed
                failures, quality = [f"unreadable outputs: {exc!r}"], {}
            self.check_failures[op.command] = failures
            self.quality.update(quality)
        elif digest != self.first_digest[op.command]:
            return self._fail(index, op, res, "outputs differ from the first pass")
        if self.check_failures[op.command]:
            return self._fail(index, op, res, "; ".join(self.check_failures[op.command]))
        return {**res, "ok": True}

    def _fail(self, index, op, res, why) -> dict:
        self.failures.append(f"pass {index} {op.command}: {why}")
        return {**res, "ok": False}


def _median(values):
    return statistics.median(values) if values else 0.0


def run(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Measure one workload; write its run record to ``.bench_out/`` and return it."""
    if not (SRC / "diffinfo" / "cli.py").is_file():
        raise BenchAbort(f"no diffinfo sources under {SRC.relative_to(ROOT)}")
    if seed < 0:
        raise BenchAbort("--seed must be non-negative")
    env = environment(name, seed, trace)
    tracked = ROOT / "out" / "oracle.json"
    tracked_before = _file_digest(tracked)
    work = TMP / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.build(name, seed, scale, work.relative_to(ROOT).as_posix())
        runner = Runner(wl, work)
        passes = []
        start = time.monotonic()
        deadline = start + DEADLINE_S
        while True:
            traced = trace and len(passes) % 2 == 1
            passes.append(runner.one_pass(len(passes), traced, deadline, 0 if trace else EXTRA_SETUPS))
            now = time.monotonic()
            n_plain = sum(not p["traced"] for p in passes)
            n_traced = len(passes) - n_plain
            enough = n_plain >= MIN_PASSES if not trace else min(n_plain, n_traced) >= MIN_TRACED_PASSES
            mean_pass = (now - start) / len(passes)
            if (enough and now - start >= seconds) or now + mean_pass > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if _file_digest(tracked) != tracked_before:
        runner.failures.append("the tracked out/oracle.json changed")

    plain = [p for p in passes if not p["traced"] and p["ok"]]
    traced_passes = [p for p in passes if p["traced"] and p["ok"]]
    failed = sum(not o["ok"] for p in passes for o in p["ops"])
    if trace:
        per_pass = [layer_metrics(p["ops"], wl.items) for p in traced_passes]
        metrics = {k: _median([m[k] for m in per_pass]) for k in PER_LAYER if k != "trace.overhead_frac"}
        plain_wall = min((p["wall_s"] for p in plain), default=0.0)
        traced_wall = min((p["wall_s"] for p in traced_passes), default=0.0)
        metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0 if plain_wall else 0.0
        units = PER_LAYER
    else:
        wall = _median([p["wall_scaled_s"] for p in plain])
        metrics = {
            "setup_s": sum(_median(v) for v in runner.setups.values()),
            "wall_s": wall,
            "items_per_s": wl.items / wall if wall else 0.0,
            "peak_rss_mb": _median([p["rss_mb"] for p in plain]),
            "ok_frac": (runner.attempted - failed) / runner.attempted,
        }
        for key in END_TO_END:
            if key not in metrics:
                metrics[key] = runner.quality.get(key, NOT_APPLICABLE)
        units = END_TO_END
    result = {
        "correct": failed == 0 and not runner.failures,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    record = {
        "env": env,
        "scale": scale,
        "items": wl.items,
        "item": wl.item_name,
        "result": result,
        "quality": runner.quality,
        "failures": runner.failures,
        "setups_scaled_s": runner.setups,
        "passes": [{k: v for k, v in p.items() if k != "ops"} for p in passes],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{'' if scale == 'full' else scale + '-'}{name}-seed{seed}"
    (OUT / f"{stem}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    if trace:
        spans = [
            {"pass": i, "op": op.command, "spans": o.get("spans", [])}
            for i, p in enumerate(passes)
            if p["traced"]
            for op, o in zip(wl.ops, p["ops"])
        ]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchAbort as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(record["env"], sort_keys=True))
    for failure in record["failures"]:
        print("FAILED " + failure)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
