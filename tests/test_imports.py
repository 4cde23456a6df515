"""The command-line path imports numpy alone.

Importing ``scipy.stats`` takes about a second, several times the work of a
typical command, so only the ``oracle`` command may load scipy.  ``numpy.ma``
is checked too: ``np.unique`` and a few other numpy functions import it on
their first call.  Each command runs on a tiny config in one fresh
interpreter, so a module loaded by any of them shows up.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import diffinfo

SRC = str(Path(diffinfo.__file__).resolve().parents[1])

PAIR = {
    "components": [
        {"weight": 0.5, "mean": [-3.0], "cov": [[1.0]]},
        {"weight": 0.5, "mean": [3.0], "cov": [[1.0]]},
    ],
    "condition_map": {"neg": [0], "pos": [1]},
}
LABELED = {
    "gmm": PAIR,
    "n_samples": 4,
    "component_conditions": [{"label": "neg"}, {"label": "pos"}],
}
SAMPLER = {"n_snr": 8, "n_eps": 2}

SCRIPT = """
import json, sys
import diffinfo.cli as cli
runs = json.loads(sys.argv[1])
codes = [cli.main([command, "--config", path]) for command, path in runs]
loaded = sorted(
    m for m in sys.modules
    if m.split(".")[0] == "scipy" or m == "numpy.ma" or m.startswith("numpy.ma.")
)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_commands_load_no_scipy_and_no_numpy_ma(tmp_path):
    checkpoint = str(tmp_path / "train" / "mlp.ckpt")
    configs = {
        "decompose": {"data": LABELED, "decompose": {}},
        "intervene": {
            "data": LABELED,
            "solver": {"n_steps": 4},
            "intervene": {"n_samples": 2, "swap": {"neg": "pos", "pos": "neg"}},
        },
        "estimate": {"data": {"gmm": PAIR, "points": [[0.5]]}, "estimate": {"kind": "nll"}},
        "train": {"data": LABELED, "train": {"hidden": [8], "n_steps": 20, "batch_size": 8}},
        "rank": {
            "data": {"gmm": PAIR},
            "denoiser": {"kind": "checkpoint", "path": checkpoint},
            "rank": {"n_samples": 4},
        },
    }
    runs = []
    for command, section in configs.items():
        path = tmp_path / f"{command}.json"
        payload = {"seed": 1, "sampler": SAMPLER, "output": {"dir": str(tmp_path / command)}}
        path.write_text(json.dumps({**payload, **section}))
        runs.append((command, str(path)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(runs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(runs), done.stderr
    assert result["loaded"] == []
