"""Smoke check of the benchmark: every workload at tiny size, traced and not.

Usage, from the repository root:

    python3 bench/smoke.py

Fails unless every run is correct and its result line carries exactly the
metrics of ``BENCHMARK.json``, each with its unit and a finite value.  It
takes about a minute and measures nothing worth keeping.
"""

from __future__ import annotations

import json
import math
import sys

import run
import workloads


def problems_of(record: dict, want: dict) -> list[str]:
    result = record["result"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
    if not result["correct"]:
        problems.append(f"not correct: {record['failures']}")
    if result["attempted"] < 1:
        problems.append("no operation attempted")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        problems.append(f"metrics missing {missing}, unexpected {extra}, wrong unit {wrong}")
    bad = sorted(k for k, m in result["metrics"].items() if not math.isfinite(m["value"]))
    if bad:
        problems.append(f"non-finite metrics {bad}")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failed = False
    if {w["name"] for w in spec["workloads"]} != set(workloads.NAMES):
        print("BENCHMARK.json workloads differ from bench/workloads.py")
        failed = True
    for name in workloads.NAMES:
        for trace in (False, True):
            record = run.run(name, seed=0, seconds=0, trace=trace, scale="tiny")
            problems = problems_of(record, want[trace])
            print(f"{name} trace={int(trace)}: {'; '.join(problems) or 'ok'}", flush=True)
            failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
