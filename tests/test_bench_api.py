"""Every ``diffinfo`` and ``diffinfo.cli`` attribute the benchmark worker reads still exists.

``bench/worker.py`` imports ``diffinfo`` and ``diffinfo.cli as cli`` and
reads names from both during set-up and around the timed call.  A missing
one crashes every benchmark worker; finding the names in the worker's source
with ``ast`` makes a removal or rename fail the test suite instead.
"""

import ast
import importlib
from pathlib import Path

import pytest

_WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"
_MODULES = {"diffinfo": "diffinfo", "cli": "diffinfo.cli"}


def _attributes_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(
        {
            (node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in _MODULES
        }
    )


READS = _attributes_read(_WORKER)


def test_worker_reads_from_both_modules():
    assert {owner for owner, _ in READS} == set(_MODULES)


@pytest.mark.parametrize("owner, name", READS, ids=[f"{o}.{n}" for o, n in READS])
def test_worker_attribute_resolves(owner, name):
    assert hasattr(importlib.import_module(_MODULES[owner]), name)
