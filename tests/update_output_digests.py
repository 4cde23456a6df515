"""Rewrite ``tests/output_digests.json``, the output bytes that tier-1 pins.

The digests are the SHA-256 of every file that the five operations of the
benchmark workloads write, built by ``bench/workloads.build(name, 7, "tiny",
"w")`` and run in-process through ``cli.main``.  The operations that report
information (``decompose``, ``intervene`` and ``estimate``) run a second time
with ``--bits``, writing to ``<out>-bits``.  The work directory ``w`` is
relative: every JSON output embeds ``output.dir`` and the rank config embeds
``denoiser.path``, so absolute temporary paths would change the bytes from
run to run.

Run it from the repository root, only in a change that means to alter output
bytes, and list the files whose digests changed in CHANGES.md; before it
writes, it prints each of them, or "no digest changed"::

    PYTHONPATH=src python tests/update_output_digests.py

Never run it to get past a mismatch that nothing explains.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from diffinfo import cli

SEED, SIZE, WORK = 7, "tiny", "w"
# The commands whose outputs change with --bits.
BITS_COMMANDS = ("decompose", "intervene", "estimate")
DIGESTS = Path(__file__).resolve().with_name("output_digests.json")
_BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    """The module ``bench/<name>.py``, loaded once under the name ``bench_<name>``."""
    if f"bench_{name}" in sys.modules:
        return sys.modules[f"bench_{name}"]
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def environment() -> dict:
    """The versions and platform that floating-point output bytes can depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": f"{platform.system()}-{platform.machine()}",
    }


def run_operations() -> dict[str, dict[str, str]]:
    """Run every operation in the current directory; for each, the digest of each file it wrote.

    An operation is named ``"<workload> <command>"``, with `` --bits`` added
    for its run in bits, and its files by their paths under the current
    directory.
    """
    workloads = load_bench("workloads")
    digests = {}
    for name in workloads.NAMES:
        for op in workloads.build(name, SEED, SIZE, WORK).ops:
            config = Path(f"{op.command}.json")
            config.write_text(json.dumps(op.config))
            runs = [("", op.out, [])]
            if op.command in BITS_COMMANDS:
                runs.append((" --bits", f"{op.out}-bits", ["--bits"]))
            for suffix, out, flags in runs:
                status = cli.main([op.command, "--config", str(config), "--out", out, *flags])
                if status != 0:
                    raise RuntimeError(f"{name} {op.command}{suffix} exited with status {status}")
                digests[f"{name} {op.command}{suffix}"] = {
                    path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in sorted(Path(out).rglob("*"))
                    if path.is_file()
                }
    return digests


def digest_changes(want: dict, got: dict) -> list[str]:
    """Each operation and file whose digest in ``got`` differs from ``want``, is missing or is new."""
    changes = []
    for op in sorted(want.keys() | got.keys()):
        old, new = want.get(op, {}), got.get(op, {})
        for path in sorted(old.keys() | new.keys()):
            if path not in new:
                changes.append(f"missing {op}: {path}")
            elif path not in old:
                changes.append(f"new {op}: {path}")
            elif old[path] != new[path]:
                changes.append(f"changed {op}: {path}")
    return changes


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            digests = run_operations()
        finally:
            os.chdir(cwd)
    committed = json.loads(DIGESTS.read_text())["digests"] if DIGESTS.exists() else {}
    print("\n".join(digest_changes(committed, digests)) or "no digest changed")
    record = {"seed": SEED, "size": SIZE, "environment": environment(), "digests": digests}
    DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, digests.values()))} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
