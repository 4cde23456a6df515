"""The benchmark tracer finds every entry point it patches and every layer it requires.

``bench/spans.py`` replaces the names in its ``TARGETS`` with timing
wrappers, and a missing one aborts a traced benchmark run; so does a layer
in a workload's ``layers`` that no traced call reaches.  Resolving the
targets here, and running every workload at its tiny size under the tracer,
makes a rename or a batched-away call fail the test suite instead.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from diffinfo import cli

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")

TARGETS = [(module, attr) for module, attr, _, _ in spans.TARGETS]


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_patch_target_resolves(module, attr):
    owner, name, fn = spans._resolve(module, attr)
    assert getattr(owner, name) is fn and callable(fn)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_required_layer_is_recorded(name, tmp_path):
    wl = workloads.build(name, 0, "tiny", tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op in wl.ops:
            config = tmp_path / f"{op.command}.json"
            config.write_text(json.dumps(op.config))
            assert cli.main([op.command, "--config", str(config), "--out", op.out]) == 0
    finally:
        tracer.uninstall()
    seen = {s["name"] for s in tracer.export()}
    assert [layer for layer in wl.layers if layer not in seen] == []
