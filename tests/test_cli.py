"""Command-line surface: outputs, determinism, error codes."""

import csv
import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import diffinfo
from diffinfo import cli, estimators, oracle
from diffinfo.channel import LogSnrSampler
from diffinfo.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from diffinfo.cli import _COMMANDS, main
from diffinfo.config import ConfigError, parse_config
from diffinfo.denoise import ConditionId, GmmSpec, gmm_mmse
from diffinfo.mlp import MlpDenoiser
from diffinfo.estimators import InfoReport
from diffinfo.reports import _format_cell, report_records, write_csv, write_report_csv

SRC = str(Path(diffinfo.__file__).resolve().parents[1])

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

    @pytest.mark.parametrize(
        "command, kind",
        [("estimate", "pointwise_s"), ("estimate", "pointwise_o"), ("decompose", "pointwise_o")],
    )
    def test_only_cmi_uses_the_contexts(self, tmp_path, command, kind):
        # mi's per-sample reports are its estimator's own; cmi's contrast with each sample's context.
        gmm = {
            "components": [{"weight": 0.25, "mean": [m], "cov": [[1.0]]} for m in (-6.0, -2.0, 3.0, 7.0)],
            "condition_map": {"plain": [0, 1], "split": [2, 3], "low": [0, 2], "high": [1, 3]},
        }
        conditions = [
            {"label": label, "context": [ctx]} for ctx in ("plain", "split") for label in ("low", "high")
        ]
        data = {"gmm": gmm, "n_samples": 8, "component_conditions": conditions}
        totals = {}
        for name in (kind, "mi", "cmi") if command == "estimate" else (kind, "cmi"):
            section = {"kind": name, "estimator_kind": kind} if command == "estimate" else {"kind": name}
            doc = {"seed": 3, "data": data, "sampler": {"n_snr": 20, "n_eps": 2}, command: section}
            out = tmp_path / name
            cfg = write_config(tmp_path, doc)
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            payload = read_json(out / ("estimates.json" if command == "estimate" else "decompose.json"))
            totals[name] = [report["total"] for report in payload["reports"]]
        assert totals.get("mi", totals[kind]) == totals[kind]
        assert totals["cmi"] != totals[kind]

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

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_exits_2_and_names_it(self, tmp_path, capsys, where):
        base = {
            "seed": -1 if where == "config" else 5,
            "data": {"gmm": STD_NORMAL_GMM, "points": [[0.0]]},
            "sampler": {"n_snr": 5, "n_eps": 2},
            "estimate": {"kind": "nll"},
        }
        argv = ["estimate", "--config", write_config(tmp_path, base), "--out", str(tmp_path / "a")]
        assert main(argv + (["--seed", "-1"] if where == "flag" else [])) == 2
        assert "'seed' must be an integer of at least 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

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

    def test_each_checked_array_names_its_sample_and_source(self):
        cfg = parse_config({"seed": 1, "data": {"gmm": STD_NORMAL_GMM, "points": [[0.0]], "n_samples": 2}})
        edits = {"roundtrip_l2": np.zeros(3), "delta_l2": np.array([0.0, 1.0, np.nan])}
        with pytest.raises(ConfigError, match=r"^data: sample 2 has the non-finite delta_l2 nan; ") as info:
            cli._check_finite(cfg, estimate=np.ones(3), **edits)
        assert info.value.field == "data"
        with pytest.raises(ConfigError, match=r"^data: sample 0 has the non-finite score inf; "):
            cli._check_finite(cfg, drawn=True, score=np.array([[0.0, np.inf], [0.0, 0.0]]))
        with pytest.raises(ConfigError, match=r"^data.points: sample 0 has the non-finite score -inf; "):
            cli._check_finite(cfg, score=np.array([[0.0, -np.inf], [0.0, 0.0]]))


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
        monkeypatch.setattr("diffinfo.cli.report_records", lambda report: [{"total": math.inf}])
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


    def test_nan_std_error_is_written_as_null_and_an_empty_cell(self, tmp_path):
        report = InfoReport(
            per_dim=[[1.0], [2.0]],
            std_error=[math.nan, 0.5],
            n_snr_draws=1,
            n_eps_draws=2,
            estimator_kind="pointwise_o",
            alpha_interval=(-5.0, 7.0),
        )
        assert [r["std_error"] for r in report_records(report)] == [None, 0.5]
        write_report_csv(tmp_path / "r.csv", report, per_dim=True)
        assert (tmp_path / "r.csv").read_text() == "id,total,std_error,dim_0\n0,1,,1\n1,2,0.5,2\n"


def test_csv_cells_spell_booleans_and_missing_values_one_way(tmp_path):
    write_csv(tmp_path / "cells.csv", list("abcdef"), [(True, np.True_, np.False_, None, 0.1, 3)])
    assert (tmp_path / "cells.csv").read_text() == "a,b,c,d,e,f\ntrue,true,false,,0.10000000000000001,3\n"


# Finite floats, and the values whose spelling is least obvious.
EDGE_FLOATS = st.one_of(
    st.floats(width=64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308]),
)


@given(
    shape=st.sampled_from([(), (3,), (2, 4)]),
    d=st.integers(1, 3),
    per_dim=st.booleans(),
    data=st.data(),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_report_csv_rows_are_the_bytes_of_csv_writer_cells(tmp_path, shape, d, per_dim, data):
    report = InfoReport(
        per_dim=data.draw(arrays(float, shape + (d,), elements=EDGE_FLOATS)),
        std_error=data.draw(arrays(float, shape, elements=EDGE_FLOATS)),
        n_snr_draws=1,
        n_eps_draws=1,
        estimator_kind="nll",
        alpha_interval=(-5.0, 7.0),
    )
    with np.errstate(over="ignore", invalid="ignore"):  # totals of 1e308s and of inf - inf
        write_report_csv(tmp_path / "r.csv", report, per_dim=per_dim)
        totals = report.total.ravel()
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "total", "std_error"] + [f"dim_{j}" for j in range(d if per_dim else 0)])
        terms = report.per_dim.reshape(-1, d)
        for i, (total, error) in enumerate(zip(totals, report.std_error.ravel())):
            row = [i, total, None if math.isnan(error) else error, *(terms[i] if per_dim else ())]
            writer.writerow([_format_cell(v) for v in row])
    assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


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

    def test_denoiser_path_under_closed_form_exits_2_and_names_it(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "seed": 1,
                "output": {"dir": str(tmp_path / "out")},
                "data": {"gmm": STD_NORMAL_GMM, "points": [[0.0]]},
                "denoiser": {"kind": "closed_form", "path": "does_not_exist.ckpt"},
                "estimate": {"kind": "nll"},
            },
        )
        assert main(["estimate", "--config", cfg]) == 2
        assert "denoiser.path" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    LABELED_PAIR = {"gmm": PAIR_GMM, "n_samples": 8, "component_conditions": [{"label": "neg"}, {"label": "pos"}]}
    SWAP = {"n_samples": 8, "swap": {"neg": "pos", "pos": "neg"}}

    @pytest.mark.parametrize(
        "command, raw, message",
        [
            ("estimate", {"data": {"points": [[0.0]]}, "estimate": {"kind": "nll"}}, "the 'data' section needs 'gmm'"),
            (
                "estimate",
                {"data": {**LABELED_PAIR, "component_conditions": [{"label": "neg"}]}, "estimate": {"kind": "mi"}},
                "data.component_conditions has 1 entries for 2 components",
            ),
            ("estimate", {"data": {"gmm": PAIR_GMM}, "estimate": {"kind": "nll"}}, "the 'data' section yields no samples"),
            (
                "intervene",
                {"data": {"gmm": PAIR_GMM, "n_samples": 8}, "intervene": SWAP},
                "intervention needs data.component_conditions",
            ),
            (
                "intervene",
                {"data": {**LABELED_PAIR, "component_conditions": [{"context": ["neg"]}, {"label": "pos"}]}, "intervene": SWAP},
                "data.component_conditions: every sampled component needs a labeled condition",
            ),
            (
                "intervene",
                {"data": LABELED_PAIR, "intervene": {**SWAP, "swap": {"neg": "pos"}}},
                "intervene.swap does not cover label 'pos'",
            ),
            ("intervene", {"data": LABELED_PAIR, "intervene": {**SWAP, "swap": {}}}, "intervene.swap must be a non-empty object"),
            ("train", {"data": {"gmm": PAIR_GMM, "points": [[0.0]]}, "train": {}}, "training needs data.n_samples"),
            ("estimate", {"data": {"gmm": PAIR_GMM, "points": [[[0.0]]]}}, "'data.points' must be a list of vectors"),
            ("estimate", {"data": {"gmm": {"components": []}}}, "data.gmm.components must be a non-empty list"),
            ("estimate", {"denoiser": {"kind": "checkpoint"}}, "missing required field 'denoiser.path'"),
            ("estimate", [], "the configuration document must be a JSON object"),
        ],
        ids=[
            "data_without_gmm_or_checkpoint",
            "conditions_not_one_per_component",
            "data_without_points_or_n_samples",
            "intervene_without_conditions",
            "intervene_with_a_context_only_condition",
            "swap_missing_a_label",
            "empty_swap",
            "train_without_n_samples",
            "three_axis_points",
            "no_components",
            "checkpoint_denoiser_without_path",
            "document_not_an_object",
        ],
    )
    def test_exits_2_on_one_line_naming_the_field(self, tmp_path, capsys, command, raw, message):
        doc = raw if isinstance(raw, list) else {"seed": 1, **raw}
        assert main([command, "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err and len(err.splitlines()) == 1, err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("content", ["nan_mean", "mlp"])
    def test_data_checkpoint_without_a_finite_mixture_exits_2_and_names_it(self, tmp_path, capsys, content):
        path = tmp_path / "data.ckpt"
        if content == "mlp":
            save_mlp_checkpoint(path, 1, ("neg", "pos"))
        else:
            save_checkpoint(GmmSpec.single([0.0], [[1.0]]), path)
            write_nan(path, path.stat().st_size - 16)  # the mean, between the weight and the covariance
        cfg = write_config(
            tmp_path,
            {
                "seed": 1,
                "output": {"dir": str(tmp_path / "out")},
                "data": {"checkpoint": str(path), "points": [[0.0]]},
                "estimate": {"kind": "nll"},
            },
        )
        assert main(["estimate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: data.checkpoint:") and err.count("\n") == 1
        assert ("means[0][0] is not finite" if content == "nan_mean" else "mixture spec") in err
        assert not (tmp_path / "out").exists()


def save_mlp_checkpoint(path, dim, vocabulary, output_scale=1.0):
    """An untrained MLP checkpoint of the given dimension and vocabulary, its output layer
    scaled by ``output_scale``."""
    rng = np.random.default_rng(0)
    n_in = dim + 2 * 8 + len(vocabulary)
    w_in, w_out = rng.standard_normal((n_in, 4)), rng.standard_normal((4, dim))
    layers = [(w_in, np.zeros(4)), (w_out * output_scale, np.zeros(dim))]
    save_checkpoint(MlpDenoiser(layers, dim, vocabulary), path)


def write_nan(path, offset):
    """Overwrite the float64 at byte ``offset`` of the file at ``path`` with NaN."""
    raw = bytearray(path.read_bytes())
    raw[offset : offset + 8] = np.array(np.nan).tobytes()
    path.write_bytes(bytes(raw))


PAIR_2D_GMM = {
    "components": [
        {"weight": 0.5, "mean": [-4.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        {"weight": 0.5, "mean": [4.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
    ],
    "condition_map": {"neg": [0], "pos": [1]},
}
LABELED = [{"label": "neg"}, {"label": "pos"}]


SCORING_SECTIONS = [
    ("rank", {"rank": {"n_samples": 4}}),
    ("estimate", {"estimate": {"kind": "pointwise_s"}}),
    ("decompose", {"decompose": {}}),
    ("intervene", {"intervene": {"n_samples": 4, "swap": {"neg": "pos", "pos": "neg"}}}),
]


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

    @pytest.mark.parametrize("command, section", SCORING_SECTIONS, ids=["rank", "pointwise_s", "decompose", "intervene"])
    def test_overflowing_checkpoint_names_denoiser_path(self, tmp_path, capsys, command, section):
        """An output layer scaled by 1e300 keeps every weight finite, but no score or edit."""
        save_mlp_checkpoint(tmp_path / "mlp.ckpt", 1, ("neg", "pos"), output_scale=1e300)
        payload = {
            "data": {"gmm": PAIR_GMM, "n_samples": 8, "component_conditions": LABELED},
            "denoiser": {"kind": "checkpoint", "path": str(tmp_path / "mlp.ckpt")},
            **section,
        }
        with np.errstate(all="ignore"):
            assert self._run(tmp_path, command, payload) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: denoiser.path: sample 0 has the non-finite ")
        assert err.count("\n") == 1 and not (tmp_path / "out").exists()

    def test_non_finite_weight_names_denoiser_path(self, tmp_path, capsys):
        path = tmp_path / "mlp.ckpt"
        save_mlp_checkpoint(path, 1, ("neg", "pos"))
        write_nan(path, 16 + int.from_bytes(path.read_bytes()[8:16], "little"))  # the first weight
        payload = {
            "data": {"gmm": PAIR_GMM, "n_samples": 8, "component_conditions": LABELED},
            "denoiser": {"kind": "checkpoint", "path": str(path)},
            "rank": {"n_samples": 4},
        }
        assert self._run(tmp_path, "rank", payload) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: denoiser.path:") and "w0[0][0] is not finite" in err

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
            ({"oracle": {"op": "gaussian_pointwise", "x": [[1.0]], "y": 1, "joint_covariance": 1}}, "oracle.x"),
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


class TestUnreadableFiles:
    """A config or checkpoint that cannot be read exits 2 on one line naming the file."""

    NESTED = "[" * 100_000 + "]" * 100_000

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: path.write_text(TestUnreadableFiles.NESTED),
            lambda path: path.write_bytes(b'{"seed": "\xff\xfe"}'),
            lambda path: path.mkdir(),
        ],
        ids=["nested_too_deep", "not_utf8", "directory"],
    )
    def test_config_exits_2_naming_the_path(self, tmp_path, capsys, write):
        path = tmp_path / "config.json"
        write(path)
        assert main(["estimate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"cannot read config file {path}" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1

    def test_checkpoint_header_nested_too_deep_exits_2(self, tmp_path, capsys):
        header = self.NESTED.encode()
        ckpt = tmp_path / "deep.ckpt"
        ckpt.write_bytes(MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", len(header)) + header)
        cfg = write_config(tmp_path, {"seed": 1, "data": {"checkpoint": str(ckpt), "points": [[0.5]]}, "estimate": {"kind": "nll"}})
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "data.checkpoint" in err and "nested too deeply" in err and "Traceback" not in err


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
            ({"neg": [0], "pos": [1, 2]}, [], "at least two candidate tokens, got []"),
        ],
        ids=["overlapping_default_tokens", "uncovered_component", "unknown_token", "empty_list"],
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


PAIR_DATA = {"gmm": PAIR_GMM, "n_samples": 5, "component_conditions": [{"label": "neg"}, {"label": "pos"}]}
SIZE_SECTIONS = {
    "estimate": {"data": PAIR_DATA, "estimate": {"kind": "pointwise_o"}},
    "decompose": {"data": PAIR_DATA, "decompose": {"kind": "pointwise_o"}},
    "rank": {"data": {"gmm": PAIR_GMM}, "rank": {"n_samples": 4}},
    "intervene": {"data": PAIR_DATA, "intervene": {"n_samples": 2, "swap": {"neg": "pos", "pos": "neg"}}},
    "train": {"data": PAIR_DATA, "train": {"hidden": [4], "n_steps": 3, "batch_size": 4}},
}


class TestSizeBounds:
    """A size whose first array cannot fit in memory exits 2 naming its field, before any allocation."""

    @pytest.mark.parametrize(
        "command, field, value",
        [
            ("estimate", "sampler.n_eps", 10**9),
            ("estimate", "sampler.n_eps", 10**30),
            ("estimate", "sampler.n_snr", 10**30),
            ("estimate", "data.n_samples", 10**30),
            ("decompose", "sampler.n_snr", 10**9),
            ("rank", "sampler.n_eps", 10**9),
            ("rank", "rank.n_samples", 10**30),
            ("intervene", "sampler.n_snr", 10**30),
            ("intervene", "solver.n_steps", 10**30),
            ("train", "train.n_steps", 10**9),
            ("train", "train.n_steps", 10**30),
            ("train", "train.batch_size", 10**30),
            ("train", "train.hidden", [4, 10**30]),
            ("train", "train.n_frequencies", 10**30),
            ("train", "data.n_samples", 10**30),
        ],
    )
    def test_exits_2_and_names_the_field(self, tmp_path, capsys, monkeypatch, command, field, value):
        doc = json.loads(json.dumps({"seed": 1, **SIZE_SECTIONS[command]}))
        section, key = field.split(".")
        doc.setdefault(section, {})[key] = value
        # A host of 1 GiB, so that no test machine could allocate the size; and
        # any call that draws data or trains fails the test.
        monkeypatch.setattr(cli, "HOST_MEMORY", 2**30)

        def allocates(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(GmmSpec, "sample", allocates)
        monkeypatch.setattr(cli, "train_mlp", allocates)
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {field} is too large" in err and "1 GiB of memory" in err
        assert not (tmp_path / "out").exists()

    def test_bound_is_the_host_memory(self, monkeypatch):
        monkeypatch.setattr(cli, "HOST_MEMORY", 800)
        cli._check_size("sampler.n_eps", "draws", 100)
        with pytest.raises(ConfigError, match="sampler.n_eps is too large: draws would not fit") as info:
            cli._check_size("sampler.n_eps", "draws", 101)
        assert info.value.field == "sampler.n_eps"

    def test_host_memory_is_known_here(self):
        assert 0 < cli.HOST_MEMORY < math.inf


def overflowing_flow_config(tmp_path):
    """An intervene config whose mixture mean of 1e308 overflows the flow at its first step."""
    gmm = {
        "components": [
            {"weight": 0.5, "mean": [1e308], "cov": [[1.0]]},
            {"weight": 0.5, "mean": [-4.0], "cov": [[1.0]]},
        ],
        "condition_map": {"pos": [0], "neg": [1]},
    }
    return write_config(
        tmp_path,
        {
            "seed": 1,
            "data": {
                "gmm": gmm,
                "n_samples": 6,
                "component_conditions": [{"label": "pos"}, {"label": "neg"}],
            },
            "sampler": {"n_snr": 10, "n_eps": 2},
            "solver": {"n_steps": 10},
            "intervene": {"n_samples": 6, "swap": {"neg": "pos", "pos": "neg"}},
        },
    )


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


    def test_non_finite_flow_exits_2_and_names_the_solver(self, tmp_path, capsys):
        cfg = overflowing_flow_config(tmp_path)
        with np.errstate(all="ignore"):
            assert main(["intervene", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error: solver:" in err and "at step 1" in err

    def test_non_finite_flow_writes_only_the_error_line(self, tmp_path, capfd):
        # A subprocess, so that numpy's warnings would reach the real stderr
        # instead of pytest's warning capture.
        cfg = overflowing_flow_config(tmp_path)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        argv = ["intervene", "--config", cfg, "--out", str(tmp_path / "out")]
        done = subprocess.run([sys.executable, "-m", "diffinfo.cli", *argv], env=env, timeout=60)
        assert done.returncode == 2
        lines = capfd.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("config error: solver:") and "at step 1" in lines[0]


def diverging_train_config(tmp_path, learning_rate=1e-3):
    """A train config; a learning rate of 1e308 makes its loss non-finite."""
    train = {"hidden": [4], "n_steps": 3, "batch_size": 4, "learning_rate": learning_rate}
    doc = {"seed": 1, "data": PAIR_DATA, "train": train}
    return write_config(tmp_path, doc)


class TestTrainingDivergence:
    def test_exits_2_and_names_train_and_the_step(self, tmp_path, capsys):
        cfg = diverging_train_config(tmp_path, learning_rate=1e308)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: train: training diverged: non-finite loss")
        assert "at step 2:" in err
        assert not (tmp_path / "out").exists()

    def test_writes_only_the_error_line(self, tmp_path, capfd):
        # A subprocess, so that numpy's warnings would reach the real stderr.
        cfg = diverging_train_config(tmp_path, learning_rate=1e308)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        argv = ["train", "--config", cfg, "--out", str(tmp_path / "out")]
        done = subprocess.run([sys.executable, "-m", "diffinfo.cli", *argv], env=env, timeout=60)
        assert done.returncode == 2
        lines = capfd.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("config error: train:") and "at step 2" in lines[0]


class TestOutOfRangeSettings:
    """Settings that used to run on, or fail later under another field's name."""

    @pytest.mark.parametrize("learning_rate", [-1.0, 0.0])
    def test_non_positive_learning_rate_exits_2(self, tmp_path, capsys, learning_rate):
        cfg = diverging_train_config(tmp_path, learning_rate=learning_rate)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error: 'train.learning_rate' must be positive, got {learning_rate}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kind, sampler",
        [("nll", {"clip": 1e308}), ("mi", {"scale": 1e308}), ("mi", {"loc": -1.7e308, "scale": 1e307})],
    )
    def test_infinite_log_snr_interval_exits_2_naming_the_sampler(self, tmp_path, capsys, kind, sampler):
        doc = {"seed": 1, "data": PAIR_DATA, "sampler": sampler, "estimate": {"kind": kind}}
        argv = ["estimate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid sampler: the interval loc +- clip*scale must be finite")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section", [{"estimate": {"kind": "mi"}}, {"train": {"hidden": [4], "n_steps": 3}}], ids=["estimate", "train"]
    )
    @pytest.mark.parametrize("loc", [1e17, 1e308])
    def test_log_snr_interval_too_narrow_for_floats_exits_2(self, tmp_path, capsys, section, loc):
        """A log-SNR of 1e17 ran as the one draw 1e17, weighted as if the interval were 12
        wide, and one of 1e308 trained to a non-finite loss; both now stop at config time."""
        doc = {"seed": 1, "data": PAIR_DATA, "sampler": {"loc": loc}, **section}
        argv = [*section, "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid sampler: the interval loc +- clip*scale is too narrow")
        assert not (tmp_path / "out").exists()


class TestOutOfMemory:
    """Memory that runs out past the size checks exits 2 naming the command's size fields."""

    @pytest.mark.parametrize(
        "command, size_field",
        [
            ("estimate", "data.n_samples"),
            ("decompose", "data.n_samples"),
            ("rank", "rank.n_samples"),
            ("intervene", "solver.n_steps"),
            ("train", "train.batch_size"),
        ],
    )
    def test_exits_2_and_names_the_size_fields(self, tmp_path, capsys, monkeypatch, command, size_field):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(GmmSpec, "sample", out_of_memory)
        cfg = write_config(tmp_path, {"seed": 1, **SIZE_SECTIONS[command]})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory: ") and err.endswith(" is too large for this host\n")
        assert size_field in err and "n_samples" in err
        assert ("sampler.n_eps" in err) == (command != "train")
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize(
        "raw, units",
        [
            ({"oracle": {"op": "gaussian_mi", "correlation": 0.8}}, "bits"),
            ({"data": {"gmm": PAIR_GMM}, "oracle": {"op": "gmm_mi_numeric"}}, "bits"),
            ({"oracle": {"op": "mmse_gaussian", "variance": 2.0, "alpha": 0.5}}, "mse"),
        ],
        ids=["gaussian_mi", "gmm_mi_numeric", "mmse_gaussian"],
    )
    def test_bits_divides_information_by_ln_2_and_keeps_the_mse(self, tmp_path, capsys, raw, units):
        cfg = write_config(tmp_path, {"seed": 0, **raw})
        printed = []
        for flags in ([], ["--bits"]):
            assert main(["oracle", "--config", cfg, *flags]) == 0
            printed.append(json.loads(capsys.readouterr().out))
        nats, bits = printed
        scale = math.log(2.0) if units == "bits" else 1.0
        assert bits["value"] == nats["value"] / scale and bits["abs_error_bound"] == nats["abs_error_bound"] / scale
        assert (nats["units"], bits["units"]) == ("nats" if units == "bits" else "mse", units)

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

    @pytest.mark.parametrize("flags", [["--out", ""], []], ids=["no_output", "default_output"])
    def test_non_finite_value_exits_2_on_one_line(self, tmp_path, monkeypatch, capsys, flags):
        """A point far in the tails gives inf - inf; nothing is printed or written, and no
        numpy warning comes before the error line."""
        monkeypatch.chdir(tmp_path)
        section = {"op": "gaussian_pointwise", "x": [1e200], "y": [1e200], "joint_covariance": [[1, 0.5], [0.5, 1]]}
        cfg = write_config(tmp_path, {"seed": 0, "oracle": section})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["oracle", "--config", cfg, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: oracle.x and oracle.y: ")
        assert "non-finite" in captured.err and captured.err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("x, y", [([1e200], [0.0]), ([0.0], [1e200])], ids=["x", "y"])
    def test_non_finite_value_names_the_point_not_the_valid_covariance(self, tmp_path, capsys, x, y):
        section = {"op": "gaussian_pointwise", "x": x, "y": y, "joint_covariance": [[1, 0.5], [0.5, 1]]}
        cfg = write_config(tmp_path, {"seed": 0, "oracle": section})
        assert main(["oracle", "--config", cfg, "--out", ""]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: oracle.x and oracle.y: the oracle gives the non-finite value ")
        assert "joint_covariance" not in err

    def test_gmm_oracle_uses_data_section(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"seed": 0, "data": {"gmm": PAIR_GMM}, "oracle": {"op": "gmm_mi_numeric"}},
        )
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["value"] == pytest.approx(0.69305364548292, abs=1e-6)

    def test_unconverged_quadrature_exits_2_and_names_the_mixture(self, tmp_path, capsys):
        far = {"weight": 0.5, "mean": [-1e308], "cov": [[1.0]]}
        gmm = {**PAIR_GMM, "components": [PAIR_GMM["components"][0], far]}
        cfg = write_config(tmp_path, {"seed": 0, "data": {"gmm": gmm}, "oracle": {"op": "gmm_mi_numeric"}})
        with np.errstate(all="ignore"):
            assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: data.gmm: the oracle's quadrature failed: ")
        assert captured.out == "" and not (tmp_path / "out").exists()


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
