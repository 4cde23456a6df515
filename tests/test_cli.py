"""Command-line surface: outputs, determinism, error codes."""

import csv
import json
import math
import re

import numpy as np
import pytest

from diffinfo import estimators, oracle
from diffinfo.channel import LogSnrSampler
from diffinfo.checkpoint import load_checkpoint, save_checkpoint
from diffinfo.cli import _COMMANDS, main
from diffinfo.config import ConfigError, parse_config
from diffinfo.denoise import ConditionId, GmmSpec, gmm_mmse
from diffinfo.mlp import MlpDenoiser
from diffinfo.reports import write_csv

STD_NORMAL_GMM = {
    "components": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}],
    "condition_map": {},
}

PAIR_GMM = {
    "components": [
        {"weight": 0.5, "mean": [-4.0], "cov": [[1.0]]},
        {"weight": 0.5, "mean": [4.0], "cov": [[1.0]]},
    ],
    "condition_map": {"neg": [0], "pos": [1]},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestEstimate:
    def test_nll_at_analytic_points(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 5,
                "data": {"gmm": STD_NORMAL_GMM, "points": [[0.0], [2.0]]},
                "sampler": {"n_snr": 400, "n_eps": 8},
                "estimate": {"kind": "nll"},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert main(["estimate", "--config", cfg]) == 0
        payload = read_json(tmp_path / "out" / "estimates.json")
        targets = [0.5 * math.log(2 * math.pi), 0.5 * math.log(2 * math.pi) + 2.0]
        for report, target in zip(payload["reports"], targets):
            assert abs(report["total"] - target) <= 3 * report["std_error"]
        assert payload["config"]["seed"] == 5
        csv_lines = (tmp_path / "out" / "estimates.csv").read_text().splitlines()
        assert csv_lines[0] == "id,total,std_error"
        assert len(csv_lines) == 3

    def test_nll_spawns_one_child_per_sample_from_the_estimation_stream(
        self, tmp_path, monkeypatch
    ):
        seed, n = 3, 25
        cfg = write_config(
            tmp_path,
            {
                "seed": seed,
                "data": {
                    "gmm": PAIR_GMM,
                    "n_samples": n,
                    "component_conditions": [{"label": "neg"}, {"label": "pos"}],
                },
                "sampler": {"n_snr": 30, "n_eps": 2},
                "estimate": {"kind": "nll"},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        # The CLI must reach nll through the module attribute, where a tracer wraps it.
        shapes = []
        real_nll = estimators.nll

        def counting_nll(*args, **kwargs):
            shapes.append(np.shape(args[1]))
            return real_nll(*args, **kwargs)

        monkeypatch.setattr(estimators, "nll", counting_nll)
        assert main(["estimate", "--config", cfg]) == 0
        assert shapes == [(n, 1)]

        spec = GmmSpec(
            weights=[0.5, 0.5],
            means=[[-4.0], [4.0]],
            covariances=[[[1.0]], [[1.0]]],
            condition_map={"neg": [0], "pos": [1]},
        )
        s_data, s_est, _, _ = np.random.SeedSequence(seed).spawn(4)
        x, comps = spec.sample(n, s_data)
        assert set(comps) == {0, 1}
        children = s_est.spawn(n)
        den = gmm_mmse(spec)
        payload = read_json(tmp_path / "out" / "estimates.json")
        for i, report in enumerate(payload["reports"]):
            label = ConditionId(label=("neg", "pos")[comps[i]])
            expected = real_nll(den, x[i], LogSnrSampler(n_draws=30), 2, children[i], label)
            assert report["total"] == expected.total

    def test_mi_has_aggregate(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 1,
                "data": {
                    "gmm": PAIR_GMM,
                    "n_samples": 40,
                    "component_conditions": [{"label": "neg"}, {"label": "pos"}],
                },
                "sampler": {"n_snr": 50, "n_eps": 2},
                "estimate": {"kind": "mi"},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert main(["estimate", "--config", cfg]) == 0
        payload = read_json(tmp_path / "out" / "estimates.json")
        assert payload["aggregate"]["estimator_kind"] == "mi"
        assert payload["aggregate"]["n_samples"] == 40
        assert payload["aggregate"]["total"] > 0.3

    def test_bits_flag_rescales(self, tmp_path):
        base = {
            "seed": 5,
            "data": {"gmm": STD_NORMAL_GMM, "points": [[0.0]]},
            "sampler": {"n_snr": 50, "n_eps": 2},
            "estimate": {"kind": "nll"},
        }
        cfg = write_config(tmp_path, base)
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "nats")]) == 0
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "bits"), "--bits"]) == 0
        nats = read_json(tmp_path / "nats" / "estimates.json")
        bits = read_json(tmp_path / "bits" / "estimates.json")
        assert bits["units"] == "bits"
        assert bits["reports"][0]["total"] == pytest.approx(
            nats["reports"][0]["total"] / math.log(2)
        )

    def test_seed_flag_overrides(self, tmp_path):
        base = {
            "seed": 5,
            "data": {"gmm": STD_NORMAL_GMM, "points": [[0.0]]},
            "sampler": {"n_snr": 50, "n_eps": 2},
            "estimate": {"kind": "nll"},
        }
        cfg = write_config(tmp_path, base)
        main(["estimate", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "9"])
        payload = read_json(tmp_path / "a" / "estimates.json")
        assert payload["config"]["seed"] == 9

    def test_missing_section_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": 1, "data": {"gmm": STD_NORMAL_GMM, "points": [[0.0]]}})
        assert main(["estimate", "--config", cfg]) == 2
        assert "estimate" in capsys.readouterr().err


class TestNonFiniteInput:
    def test_nan_point_exits_2_and_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            '{"seed": 1, "data": {"gmm": %s, "points": [[NaN]]}, "estimate": {"kind": "nll"}}'
            % json.dumps(STD_NORMAL_GMM)
        )
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "data.points" in capsys.readouterr().err

    def test_overflowing_estimate_exits_2_and_names_the_sample(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "seed": 1,
                "data": {"gmm": STD_NORMAL_GMM, "points": [[0.0], [1e300]]},
                "sampler": {"n_snr": 20, "n_eps": 2},
                "estimate": {"kind": "nll"},
            },
        )
        with np.errstate(all="ignore"):
            assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "data.points" in err and "sample 1" in err
        assert not (tmp_path / "out" / "estimates.csv").exists()


class TestNonFiniteOutput:
    def _refuse(self, name):
        raise AssertionError(f"non-finite constant {name} in the JSON output")

    @pytest.mark.parametrize("bits", [False, True])
    def test_unestimable_std_error_is_null_and_an_empty_cell(self, tmp_path, bits):
        # One log-SNR draw per sample leaves no spread to estimate a
        # per-sample SE from; the aggregate SE comes from the sample totals.
        cfg = write_config(
            tmp_path,
            {
                "seed": 3,
                "data": {
                    "gmm": PAIR_GMM,
                    "n_samples": 20,
                    "component_conditions": [{"label": "neg"}, {"label": "pos"}],
                },
                "sampler": {"n_snr": 1, "n_eps": 2},
                "estimate": {"kind": "mi"},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert main(["estimate", "--config", cfg] + (["--bits"] if bits else [])) == 0
        text = (tmp_path / "out" / "estimates.json").read_text()
        payload = json.loads(text, parse_constant=self._refuse)
        assert [r["std_error"] for r in payload["reports"]] == [None] * 20
        assert math.isfinite(payload["aggregate"]["std_error"])
        with open(tmp_path / "out" / "estimates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20 and all(r["std_error"] == "" for r in rows)

    def test_non_finite_json_value_exits_2_and_names_the_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("diffinfo.cli.report_to_dict", lambda report: {"total": math.inf})
        cfg = write_config(
            tmp_path,
            {
                "seed": 1,
                "data": {"gmm": STD_NORMAL_GMM, "points": [[0.0]]},
                "sampler": {"n_snr": 20, "n_eps": 2},
                "estimate": {"kind": "nll"},
            },
        )
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "estimates.json" in capsys.readouterr().err
        assert not (tmp_path / "out" / "estimates.json").exists()


def test_csv_cells_spell_booleans_and_missing_values_one_way(tmp_path):
    write_csv(tmp_path / "cells.csv", list("abcdef"), [(True, np.True_, np.False_, None, 0.1, 3)])
    assert (tmp_path / "cells.csv").read_text() == "a,b,c,d,e,f\ntrue,true,false,,0.10000000000000001,3\n"


class TestSchemaDiagnostics:
    def test_missing_required_field_exits_2_and_names_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"data": {"gmm": STD_NORMAL_GMM}})
        assert main(["estimate", "--config", cfg]) == 2
        assert "seed" in capsys.readouterr().err

    def test_unknown_key_exits_2_and_names_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": 1, "wat": 2})
        assert main(["oracle", "--config", cfg]) == 2
        assert "wat" in capsys.readouterr().err

    def test_missing_denoiser_checkpoint_exits_2_and_names_it(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "seed": 1,
                "data": {"gmm": STD_NORMAL_GMM, "points": [[0.0]]},
                "denoiser": {"kind": "checkpoint", "path": str(tmp_path / "absent.ckpt")},
                "estimate": {"kind": "nll"},
            },
        )
        assert main(["estimate", "--config", cfg]) == 2
        assert "denoiser.path" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: b"NOPE" + raw[4:],
            lambda raw: raw[:-3],
            lambda raw: raw + b"\x00",
            lambda raw: raw[:8] + len(b'{"arrays": []}').to_bytes(8, "little") + b'{"arrays": []}',
        ],
        ids=["bad_magic", "truncated", "trailing", "header_without_kind"],
    )
    def test_damaged_data_checkpoint_exits_2_and_names_it(self, tmp_path, capsys, damage):
        path = tmp_path / "spec.ckpt"
        save_checkpoint(GmmSpec.single([0.0], [[1.0]]), path)
        path.write_bytes(damage(path.read_bytes()))
        cfg = write_config(
            tmp_path,
            {"seed": 1, "data": {"checkpoint": str(path), "points": [[0.0]]}, "estimate": {"kind": "nll"}},
        )
        assert main(["estimate", "--config", cfg]) == 2
        assert "data.checkpoint" in capsys.readouterr().err


def save_mlp_checkpoint(path, dim, vocabulary):
    """An untrained MLP checkpoint of the given dimension and vocabulary."""
    rng = np.random.default_rng(0)
    n_in = dim + 2 * 8 + len(vocabulary)
    layers = [(rng.standard_normal((n_in, 4)), np.zeros(4)), (rng.standard_normal((4, dim)), np.zeros(dim))]
    save_checkpoint(MlpDenoiser(layers, dim, vocabulary), path)


PAIR_2D_GMM = {
    "components": [
        {"weight": 0.5, "mean": [-4.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        {"weight": 0.5, "mean": [4.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
    ],
    "condition_map": {"neg": [0], "pos": [1]},
}
LABELED = [{"label": "neg"}, {"label": "pos"}]


class TestCheckpointMismatch:
    """A denoiser checkpoint that cannot serve the data exits 2 before any estimation."""

    def _run(self, tmp_path, command, payload):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"seed": 1, "output": {"dir": str(out)}, **payload})
        status = main([command, "--config", cfg])
        assert not out.exists() or not any(out.iterdir())
        return status

    @pytest.mark.parametrize("kind", ["mlp", "gmm"])
    def test_dimension_mismatch_names_denoiser_path(self, tmp_path, capsys, kind):
        path = tmp_path / "den.ckpt"
        if kind == "mlp":
            save_mlp_checkpoint(path, 1, ("neg", "pos"))
        else:
            save_checkpoint(GmmSpec.single([0.0], [[1.0]]), path)
        payload = {
            "data": {"gmm": PAIR_2D_GMM, "n_samples": 4, "component_conditions": LABELED},
            "denoiser": {"kind": "checkpoint", "path": str(path)},
            "estimate": {"kind": "pointwise_s"},
        }
        assert self._run(tmp_path, "estimate", payload) == 2
        err = capsys.readouterr().err
        assert "config error: denoiser.path:" in err
        assert "dimension 1" in err and "dimension 2" in err

    @pytest.mark.parametrize(
        "command, section",
        [
            ("rank", {"rank": {"n_samples": 4}}),
            ("estimate", {"estimate": {"kind": "pointwise_s"}}),
            ("estimate", {"estimate": {"kind": "nll"}}),
            ("decompose", {"decompose": {}}),
            ("intervene", {"intervene": {"n_samples": 4, "swap": {"neg": "pos", "pos": "neg"}}}),
        ],
        ids=["rank", "pointwise_s", "nll", "decompose", "intervene"],
    )
    def test_token_missing_from_vocabulary_names_denoiser_path(self, tmp_path, capsys, command, section):
        save_mlp_checkpoint(tmp_path / "mlp.ckpt", 1, ("neg",))
        payload = {
            "data": {"gmm": PAIR_GMM, "n_samples": 8, "component_conditions": LABELED},
            "denoiser": {"kind": "checkpoint", "path": str(tmp_path / "mlp.ckpt")},
            **section,
        }
        assert self._run(tmp_path, command, payload) == 2
        err = capsys.readouterr().err
        assert "config error: denoiser.path:" in err
        assert "'pos'" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, conditions, section, field",
        [
            (
                "estimate",
                [{"label": "neg"}, {"label": "nope"}],
                {"estimate": {"kind": "mi"}},
                "data.component_conditions",
            ),
            (
                "intervene",
                LABELED,
                {"intervene": {"n_samples": 4, "swap": {"neg": "nope", "pos": "neg"}}},
                "intervene.swap",
            ),
            (
                "decompose",
                [{"label": "neg", "context": ["pos"]}, {"label": "pos"}],
                {"decompose": {}},
                "data.component_conditions",
            ),
        ],
        ids=["unknown_token", "unknown_swap_target", "empty_selection"],
    )
    def test_closed_form_bad_condition_names_its_field(
        self, tmp_path, capsys, command, conditions, section, field
    ):
        payload = {"data": {"gmm": PAIR_GMM, "n_samples": 8, "component_conditions": conditions}, **section}
        assert self._run(tmp_path, command, payload) == 2
        err = capsys.readouterr().err
        assert f"config error: {field}:" in err and "Traceback" not in err
        assert "'nope'" in err or "selects no components" in err


NAN, INF = float("nan"), float("inf")
ONE_COMPONENT = {"components": [{"weight": 1.0, "mean": [NAN], "cov": [[1.0]]}]}


class TestMalformedInput:
    @pytest.mark.parametrize(
        "raw, field",
        [
            # a section or list of the wrong shape
            ({"data": 5}, "data"),
            ({"sampler": 5}, "sampler"),
            ({"rank": {"n_samples": 2, "candidates": 5}}, "rank.candidates"),
            ({"train": {"hidden": 5}}, "train.hidden"),
            ({"oracle": "x"}, "oracle"),
            ({"output": "dir"}, "output"),
            ({"rank": {"n_samples": 2, "candidates": "neg"}}, "rank.candidates"),
            (
                {"data": {"gmm": PAIR_GMM, "component_conditions": [{"label": "neg", "context": "ab"}, None]}},
                "data.component_conditions",
            ),
            ({"train": {"hidden": "ab"}}, "train.hidden"),
            ({"sampler": {"n_snr": 2.5}}, "sampler.n_snr"),
            ({"solver": {"n_steps": 2.5}}, "solver.n_steps"),
            ({"train": {"batch_size": 2.5}}, "train.batch_size"),
            # non-finite or out-of-range numbers
            ({"sampler": {"loc": NAN}}, "sampler.loc"),
            ({"data": {"gmm": ONE_COMPONENT}}, "data.gmm.components"),
            ({"train": {"learning_rate": NAN}}, "train.learning_rate"),
            ({"train": {"hidden": [0]}}, "train.hidden"),
            ({"train": {"n_frequencies": -1}}, "train.n_frequencies"),
            ({"sampler": {"scale": INF}}, "sampler.scale"),
            ({"sampler": {"clip": 10**400}}, "sampler.clip"),
            ({"solver": {"alpha_min": -INF}}, "solver.alpha_min"),
            ({"data": {"grid": [0, -3]}}, "data.grid"),
            # the remaining data fields
            ({"data": {"truth_mask": ["x", "y"]}}, "data.truth_mask"),
            ({"data": {"truth_mask": [[1, 0], [0, 1]]}}, "data.truth_mask"),
            ({"data": {"truth_mask": [2, 0]}}, "data.truth_mask"),
            ({"data": {"component_conditions": [{"label": 3}]}}, "data.component_conditions"),
            ({"data": {"component_conditions": [{}]}}, "data.component_conditions"),
            # strings and missing parameters that reached the commands
            ({"data": {"gmm": {**PAIR_GMM, "condition_map": {"neg": "0"}}}}, "data.gmm.condition_map.neg"),
            ({"intervene": {"n_samples": 1, "swap": {"neg": 3}}}, "intervene.swap.neg"),
            ({"oracle": {"op": "gaussian_mi"}}, "oracle.correlation"),
        ],
    )
    def test_exits_2_and_names_the_field(self, tmp_path, capsys, raw, field):
        doc = {"seed": 1, **raw}
        cfg = write_config(tmp_path, doc)
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.field == field


def test_help_describes_every_command(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for name in _COMMANDS:
        assert re.search(rf"^ +{name} +\S", out, re.MULTILINE), name


class TestUnconditionedSamples:
    @pytest.mark.parametrize(
        "command, section",
        [
            ("decompose", {"decompose": {}}),
            ("estimate", {"estimate": {"kind": "pointwise_s"}}),
            ("estimate", {"estimate": {"kind": "pointwise_o"}}),
            ("estimate", {"estimate": {"kind": "mi"}}),
            ("estimate", {"estimate": {"kind": "cmi"}}),
        ],
    )
    def test_points_without_condition_exit_2(self, tmp_path, capsys, command, section):
        raw = {"seed": 1, "data": {"gmm": STD_NORMAL_GMM, "points": [[0.0], [1.0]]}, **section}
        cfg = write_config(tmp_path, raw)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "data.component_conditions" in err and "data.points carry no condition" in err


class TestSampleCounts:
    @pytest.mark.parametrize(
        "command, section, field",
        [
            ("intervene", {"intervene": {"n_samples": -1}}, "intervene.n_samples"),
            ("intervene", {"intervene": {"n_samples": 0}}, "intervene.n_samples"),
            ("intervene", {"intervene": {"n_samples": 40}}, "intervene.n_samples"),
            ("rank", {"rank": {"n_samples": 0}}, "rank.n_samples"),
            ("rank", {"rank": {"n_samples": -2}}, "rank.n_samples"),
        ],
    )
    def test_bad_count_exits_2_and_names_it(self, tmp_path, capsys, command, section, field):
        if command == "intervene":
            section["intervene"]["swap"] = {"neg": "pos", "pos": "neg"}
        data = {
            "gmm": PAIR_GMM,
            "n_samples": 5,
            "component_conditions": [{"label": "neg"}, {"label": "pos"}],
        }
        cfg = write_config(tmp_path, {"seed": 1, "data": data, **section})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestDecompose:
    def test_writes_per_dim_and_pgm(self, tmp_path):
        gmm = {
            "components": [
                {"weight": 0.5, "mean": [0.0, 0.0, 0.0, 0.0], "cov": np.eye(4).tolist()},
                {"weight": 0.5, "mean": [3.0, 3.0, 0.0, 0.0], "cov": np.eye(4).tolist()},
            ],
            "condition_map": {"lo": [0], "hi": [1]},
        }
        cfg = write_config(
            tmp_path,
            {
                "seed": 2,
                "data": {
                    "gmm": gmm,
                    "n_samples": 12,
                    "component_conditions": [{"label": "lo"}, {"label": "hi"}],
                    "grid": [2, 2],
                    "truth_mask": [1, 1, 0, 0],
                },
                "sampler": {"n_snr": 50, "n_eps": 2},
                "decompose": {"kind": "pointwise_o"},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert main(["decompose", "--config", cfg]) == 0
        payload = read_json(tmp_path / "out" / "decompose.json")
        assert payload["miou"] >= 0.9
        assert len(payload["mean_heatmap"]) == 4
        pgm = (tmp_path / "out" / "heatmap_mean.pgm").read_bytes()
        assert pgm.startswith(b"P5\n2 2\n255\n")
        assert len(pgm) == len(b"P5\n2 2\n255\n") + 4
        csv_lines = (tmp_path / "out" / "decompose.csv").read_text().splitlines()
        assert csv_lines[0] == "id,total,std_error,dim_0,dim_1,dim_2,dim_3"

    @pytest.mark.parametrize(
        "field, value", [("grid", [3, 3]), ("truth_mask", [1, 0, 1])], ids=["grid", "truth_mask"]
    )
    def test_bad_layout_exits_2_before_estimating(self, tmp_path, capsys, field, value):
        gmm = {
            "components": [
                {"weight": 0.5, "mean": [0.0, 0.0], "cov": np.eye(2).tolist()},
                {"weight": 0.5, "mean": [3.0, 0.0], "cov": np.eye(2).tolist()},
            ],
            "condition_map": {"lo": [0], "hi": [1]},
        }
        data = {
            "gmm": gmm,
            "n_samples": 4,
            "component_conditions": [{"label": "lo"}, {"label": "hi"}],
            field: value,
        }
        cfg = write_config(tmp_path, {"seed": 3, "data": data, "decompose": {"kind": "pointwise_o"}})
        assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"data.{field}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRank:
    def test_separated_ranking_accuracy(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 4,
                "data": {"gmm": PAIR_GMM},
                "sampler": {"n_snr": 50, "n_eps": 2},
                "rank": {"n_samples": 40},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert main(["rank", "--config", cfg]) == 0
        payload = read_json(tmp_path / "out" / "rank.json")
        assert payload["accuracy"] >= 0.95
        assert set(payload["per_condition"]) == {"neg", "pos"}
        lines = (tmp_path / "out" / "rank.csv").read_text().splitlines()
        assert lines[0] == "id,true,chosen,tie,correct,score_neg,score_pos"
        assert len(lines) == 41

    def test_ties_go_to_the_first_candidate_whatever_the_truth(self, tmp_path):
        # Both tokens of the denoiser's spec select both components, so it
        # cannot tell the labels apart and every row is a tie.
        blind = GmmSpec(
            weights=[0.5, 0.5],
            means=[[-4.0], [4.0]],
            covariances=[[[1.0]], [[1.0]]],
            condition_map={"neg": (0, 1), "pos": (0, 1)},
        )
        save_checkpoint(blind, tmp_path / "blind.ckpt")
        cfg = write_config(
            tmp_path,
            {
                "seed": 4,
                "data": {"gmm": PAIR_GMM},
                "denoiser": {"kind": "checkpoint", "path": str(tmp_path / "blind.ckpt")},
                "sampler": {"n_snr": 50, "n_eps": 2},
                "rank": {"n_samples": 40},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert main(["rank", "--config", cfg]) == 0
        payload = read_json(tmp_path / "out" / "rank.json")
        with open(tmp_path / "out" / "rank.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert payload["n_ties"] == len(rows) == 40
        assert all(r["tie"] == "true" and r["chosen"] == "neg" for r in rows)
        share = sum(r["true"] == "neg" for r in rows) / len(rows)
        assert 0 < share < 1
        assert payload["accuracy"] == share
        assert payload["per_condition"] == {"neg": 1.0, "pos": 0.0}

    @pytest.mark.parametrize(
        "condition_map, candidates, message",
        [
            ({"a": [0, 1], "b": [0, 1]}, None, "do not partition"),
            ({"neg": [0], "pos": [1], "far": [2]}, ["neg", "pos"], "do not cover components [2]"),
            ({"neg": [0], "pos": [1, 2]}, ["neg", "nope"], "unknown label token 'nope'"),
        ],
        ids=["overlapping_default_tokens", "uncovered_component", "unknown_token"],
    )
    def test_candidates_must_partition_the_components(
        self, tmp_path, capsys, condition_map, candidates, message
    ):
        gmm = {
            "components": [
                {"weight": 0.5, "mean": [-4.0], "cov": [[1.0]]},
                {"weight": 0.4, "mean": [4.0], "cov": [[1.0]]},
                {"weight": 0.1, "mean": [40.0], "cov": [[1.0]]},
            ],
            "condition_map": condition_map,
        }
        rank = {"n_samples": 4}
        if candidates is not None:
            rank["candidates"] = candidates
        cfg = write_config(
            tmp_path,
            {"seed": 0, "data": {"gmm": gmm}, "rank": rank, "output": {"dir": str(tmp_path / "out")}},
        )
        assert main(["rank", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error: rank.candidates:" in err
        assert message in err
        assert "Traceback" not in err


class TestIntervene:
    def test_redundant_and_informative_swaps(self, tmp_path):
        gmm = {
            "components": [
                {"weight": 0.25, "mean": [-6.0], "cov": [[1.0]]},
                {"weight": 0.25, "mean": [-2.0], "cov": [[1.0]]},
                {"weight": 0.25, "mean": [3.0], "cov": [[1.0]]},
                {"weight": 0.25, "mean": [7.0], "cov": [[1.0]]},
            ],
            "condition_map": {
                "plain": [0, 1],
                "split": [2, 3],
                "low": [0, 1, 2],
                "high": [0, 1, 3],
            },
        }
        cfg = write_config(
            tmp_path,
            {
                "seed": 6,
                "data": {
                    "gmm": gmm,
                    "n_samples": 12,
                    "component_conditions": [
                        {"label": "low", "context": ["plain"]},
                        {"label": "high", "context": ["plain"]},
                        {"label": "low", "context": ["split"]},
                        {"label": "high", "context": ["split"]},
                    ],
                },
                "sampler": {"n_snr": 50, "n_eps": 2},
                "solver": {"n_steps": 50},
                "intervene": {"n_samples": 12, "swap": {"low": "high", "high": "low"}},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert main(["intervene", "--config", cfg]) == 0
        payload = read_json(tmp_path / "out" / "intervene.json")
        assert payload["n_samples"] == 12
        assert payload["pearson_image_level"] > 0
        lines = (tmp_path / "out" / "intervene.csv").read_text().splitlines()
        assert lines[0] == "id,label,context,cmi,roundtrip_l2,delta_l2"


class TestTrainAndCheckpoints:
    def test_train_writes_checkpoint_and_trace(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 8,
                "data": {"gmm": STD_NORMAL_GMM, "n_samples": 64},
                "train": {"hidden": [16], "n_steps": 120, "batch_size": 32},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert main(["train", "--config", cfg]) == 0
        model = load_checkpoint(tmp_path / "out" / "mlp.ckpt")
        assert model.dim == 1
        trace = (tmp_path / "out" / "loss_trace.csv").read_text().splitlines()
        assert trace[0] == "step,loss"
        assert len(trace) == 121
        assert read_json(tmp_path / "out" / "train.json")["final_loss"] > 0

    def test_estimate_with_checkpoint_denoiser(self, tmp_path):
        spec = GmmSpec.single([0.0], [[1.0]])
        save_checkpoint(spec, tmp_path / "spec.ckpt")
        cfg = write_config(
            tmp_path,
            {
                "seed": 9,
                "data": {"checkpoint": str(tmp_path / "spec.ckpt"), "points": [[0.0]]},
                "sampler": {"n_snr": 50, "n_eps": 2},
                "denoiser": {"kind": "checkpoint", "path": str(tmp_path / "spec.ckpt")},
                "estimate": {"kind": "nll"},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert main(["estimate", "--config", cfg]) == 0


class TestOracleCommand:
    def test_prints_json(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"seed": 0, "oracle": {"op": "gaussian_mi", "correlation": 0.8}}
        )
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["value"] == pytest.approx(0.5108256237659907)
        assert printed["method"] == "closed_form"
        assert read_json(tmp_path / "out" / "oracle.json")["value"] == printed["value"]

    def test_mistyped_parameter_exits_2_and_names_it(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"seed": 0, "oracle": {"op": "mmse_gaussian", "variance": 1.0, "alpha": "high"}}
        )
        assert main(["oracle", "--config", cfg]) == 2
        assert "oracle.alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, extra, field",
        [
            ({"op": "gaussian_mi", "correlation": 1.5}, {}, "oracle.correlation"),
            ({"op": "mmse_gaussian", "variance": -1.0, "alpha": 0}, {}, "oracle.variance"),
            (
                {
                    "op": "gaussian_pointwise",
                    "x": [0.5],
                    "y": [-0.5],
                    "joint_covariance": [[1.0, 1.0], [1.0, 1.0]],
                },
                {},
                "oracle.joint_covariance",
            ),
            (
                {"op": "gmm_mi_numeric", "labels": ["neg", "all"]},
                {"data": {"gmm": {**PAIR_GMM, "condition_map": {"neg": [0], "all": [0, 1]}}}},
                "oracle.labels",
            ),
        ],
        ids=["correlation", "variance", "singular_joint_covariance", "labels_not_a_partition"],
    )
    def test_out_of_range_value_exits_2_and_names_it(self, tmp_path, capsys, section, extra, field):
        cfg = write_config(tmp_path, {"seed": 0, "oracle": section, **extra})
        assert main(["oracle", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config error: {field}:" in err
        assert "Traceback" not in err

    def test_pointwise_op_passes_its_parameters_as_written(self, tmp_path, capsys):
        section = {"op": "gaussian_pointwise", "x": [0.5], "y": 1, "joint_covariance": [[1, 0.5], [0.5, 1]]}
        cfg = write_config(tmp_path, {"seed": 0, "oracle": section})
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        expected = oracle.gaussian_pointwise([0.5], [1.0], [[1.0, 0.5], [0.5, 1.0]]).value
        assert json.loads(capsys.readouterr().out)["value"] == expected
        assert read_json(tmp_path / "out" / "oracle.json")["config"]["oracle"] == section

    def test_far_negative_alpha_does_not_overflow(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"seed": 0, "oracle": {"op": "mmse_gaussian", "variance": 1.0, "alpha": -1000}}
        )
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.0

    def test_gmm_oracle_uses_data_section(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"seed": 0, "data": {"gmm": PAIR_GMM}, "oracle": {"op": "gmm_mi_numeric"}},
        )
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["value"] == pytest.approx(0.69305364548292, abs=1e-6)


class TestReproducibility:
    def test_rerun_rewrites_every_output_byte_for_byte(self, tmp_path):
        editing_gmm = {
            "components": [
                {"weight": 0.5, "mean": [-3.0], "cov": [[1.0]]},
                {"weight": 0.5, "mean": [3.0], "cov": [[1.0]]},
            ],
            "condition_map": {"neg": [0], "pos": [1]},
        }
        labeled = {
            "gmm": editing_gmm,
            "n_samples": 6,
            "component_conditions": [{"label": "neg"}, {"label": "pos"}],
        }
        sampler = {"n_snr": 20, "n_eps": 2}
        runs = {
            "train": {
                "seed": 3,
                "data": labeled,
                "sampler": sampler,
                "train": {"hidden": [8], "n_steps": 40, "batch_size": 16},
            },
            "estimate": {
                "seed": 3,
                "data": {"gmm": editing_gmm, "points": [[-1.0], [2.5]]},
                "denoiser": {"kind": "checkpoint", "path": str(tmp_path / "train" / "mlp.ckpt")},
                "sampler": sampler,
                "estimate": {"kind": "nll"},
            },
            "rank": {
                "seed": 3,
                "data": {"gmm": editing_gmm},
                "denoiser": {"kind": "checkpoint", "path": str(tmp_path / "train" / "mlp.ckpt")},
                "sampler": sampler,
                "rank": {"n_samples": 5},
            },
            "decompose": {"seed": 3, "data": labeled, "sampler": sampler, "decompose": {}},
            "intervene": {
                "seed": 3,
                "data": labeled,
                "sampler": sampler,
                "solver": {"n_steps": 10},
                "intervene": {"n_samples": 3, "swap": {"neg": "pos", "pos": "neg"}},
            },
            "oracle": {"seed": 3, "data": {"gmm": editing_gmm}, "oracle": {"op": "gmm_mi_numeric"}},
        }
        for command, payload in runs.items():
            cfg = write_config(tmp_path, payload, f"{command}.json")
            out = tmp_path / command
            snapshots = []
            for _ in range(2):
                assert main([command, "--config", cfg, "--out", str(out)]) == 0
                snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert snapshots[0], command
            assert snapshots[0] == snapshots[1], command
