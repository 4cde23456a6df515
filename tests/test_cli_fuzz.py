"""Mutated configurations never crash the CLI: every run exits 0 or 2.

Each example takes one of seven small valid configurations, the five
benchmark operations (``bench/workloads.py`` at its tiny size, with fewer
draws and steps) and two ``oracle`` configs.  It then replaces one or two
values, at a path walked down from the top, with a value from a fixed pool,
or deletes the key.  Whatever the mutation, ``cli.main`` must return 0 or 2
and raise nothing: bad input exits 2 with a message, never a traceback.
Every generated example is run; none is filtered out.
"""

import contextlib
import copy
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffinfo import cli

_BENCH = Path(__file__).resolve().parents[1] / "bench"
DELETE = object()
NAN, INF = float("nan"), float("inf")
POOL = [None, True, False, 0, 1, -1, 1e308, -1e308, NAN, INF, 10**30, "x", [1.0], {"k": 1}, DELETE]


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads_fuzz", _BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _shrink(config: dict) -> dict:
    """The same operation with fewer draws, flow steps, training steps and ranked samples."""
    config = copy.deepcopy(config)
    config["sampler"].update(n_snr=8, n_eps=2)
    if "solver" in config:
        config["solver"]["n_steps"] = 8
    if "train" in config:
        config["train"].update(n_steps=10, hidden=[8])
    if "rank" in config:
        config["rank"]["n_samples"] = 4
    return config


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """(command, config) pairs; the rank config reads the checkpoint its train config writes."""
    work = tmp_path_factory.mktemp("fuzz")
    workloads = _workloads()
    pairs = [
        (op.command, _shrink(op.config))
        for name in workloads.NAMES
        for op in workloads.build(name, 0, "tiny", str(work)).ops
    ]
    for command, config in pairs:
        if command == "train":
            path = work / "train.json"
            path.write_text(json.dumps(config))
            assert cli.main(["train", "--config", str(path)]) == 0
    edit_gmm = next(config["data"]["gmm"] for command, config in pairs if command == "intervene")
    mixture_mi = {"op": "gmm_mi_numeric", "labels": ["plain", "split"]}
    covariance = [[1.0, 0.6], [0.6, 1.0]]
    pointwise = {"op": "gaussian_pointwise", "x": [0.5], "y": [-0.2], "joint_covariance": covariance}
    return pairs + [
        ("oracle", {"seed": 0, "data": {"gmm": edit_gmm}, "oracle": mixture_mi}),
        ("oracle", {"seed": 0, "oracle": pointwise}),
    ]


def _mutate(draw, doc) -> None:
    """Replace or delete one value of ``doc``, at a path walked down from the top (going
    down into a non-empty section or list three times in four)."""
    parent = doc
    while True:
        key = draw(st.sampled_from(list(parent) if isinstance(parent, dict) else range(len(parent))))
        child = parent[key]
        if not (isinstance(child, (dict, list)) and child and draw(st.integers(0, 3))):
            break
        parent = child
    value = draw(st.sampled_from(POOL))
    if value is DELETE:
        del parent[key]
    else:
        parent[key] = copy.deepcopy(value)


@settings(max_examples=300, deadline=5000, derandomize=True)
@given(data=st.data())
def test_mutated_config_exits_0_or_2(bases, data):
    command, base = data.draw(st.sampled_from(bases))
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(data.draw, doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2), err.getvalue()
