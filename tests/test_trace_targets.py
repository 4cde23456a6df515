"""Every entry point the benchmark tracer patches still exists.

``bench/spans.py`` replaces these names with timing wrappers, and a missing
one aborts a traced benchmark run.  Resolving them here, without patching,
makes a rename in ``cli``, ``flow`` or ``estimators`` fail the test suite.
"""

import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
_spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

TARGETS = [(module, attr) for module, attr, _, _ in spans.TARGETS]


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_patch_target_resolves(module, attr):
    owner, name, fn = spans._resolve(module, attr)
    assert getattr(owner, name) is fn and callable(fn)
