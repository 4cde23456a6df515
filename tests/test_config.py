"""Configuration parsing: defaults, rejection of malformed documents."""

import json

import pytest

from diffinfo.config import ConfigError, load_config, parse_config

MINIMAL = {"seed": 7}

FULL = {
    "seed": 3,
    "output": {"dir": "results"},
    "bits": True,
    "data": {
        "gmm": {
            "components": [
                {"weight": 0.5, "mean": [-4.0], "cov": [[1.0]]},
                {"weight": 0.5, "mean": [4.0], "cov": [[1.0]]},
            ],
            "condition_map": {"neg": [0], "pos": [1]},
        },
        "n_samples": 16,
        "component_conditions": [{"label": "neg"}, {"label": "pos", "context": ["ctx"]}],
    },
    "sampler": {"loc": 1.0, "scale": 2.0, "clip": 3.0, "n_snr": 50, "n_eps": 2},
    "solver": {"n_steps": 25, "alpha_min": -5.0, "alpha_max": 7.0},
    "denoiser": {"kind": "closed_form"},
    "estimate": {"kind": "mi", "estimator_kind": "pointwise_s"},
    "rank": {"n_samples": 10, "candidates": ["neg", "pos"]},
    "intervene": {"n_samples": 5, "swap": {"neg": "pos", "pos": "neg"}},
    "train": {"hidden": [8], "n_steps": 10, "batch_size": 4},
    "oracle": {"op": "gaussian_mi", "correlation": 0.8},
}

# Every section, and every optional field but data.checkpoint (it excludes data.gmm).
EVERY_FIELD = {
    "seed": 5,
    "output": {"dir": "results"},
    "bits": True,
    "data": {
        "gmm": {
            "components": [
                {"weight": 0.25, "mean": [-1, 0.5], "cov": [[1.0, 0.2], [0.2, 2.0]]},
                {"weight": 0.75, "mean": [2.0, 1.0], "cov": [[0.5, 0.0], [0.0, 0.5]]},
            ],
            "condition_map": {"neg": [0], "pos": [1], "any": [0, 1]},
        },
        "n_samples": 6,
        "points": [[0.0, 1.0], [2, -3.5]],
        "component_conditions": [None, {"label": "pos", "context": ["any"]}],
        "grid": [1, 2],
        "truth_mask": [True, 0],
    },
    "sampler": {"loc": 0, "scale": 1.5, "clip": 2.0, "n_snr": 30, "n_eps": 3},
    "solver": {"n_steps": 12, "alpha_min": -4, "alpha_max": 6.5},
    "denoiser": {"kind": "checkpoint", "path": "model.ckpt"},
    "estimate": {"kind": "cmi", "estimator_kind": "pointwise_s"},
    "decompose": {"kind": "cmi"},
    "rank": {"n_samples": 9, "candidates": ["neg", "pos"], "estimator_kind": "pointwise_o"},
    "intervene": {"n_samples": 2, "swap": {"neg": "pos", "pos": "neg"}},
    "train": {
        "hidden": [8, 4],
        "n_steps": 10,
        "batch_size": 4,
        "learning_rate": 0.01,
        "condition_drop": 0.5,
        "n_frequencies": 3,
        "checkpoint_name": "net.ckpt",
    },
    "oracle": {"op": "gmm_mi_numeric", "labels": ["neg", "pos"]},
}

POINTWISE = {"op": "gaussian_pointwise", "x": [0.5], "y": [1], "joint_covariance": [[1, 0.5], [0.5, 1]]}


class TestDefaults:
    def test_minimal_config_gets_standard_hyperparameters(self):
        cfg = parse_config(MINIMAL)
        assert cfg.seed == 7
        assert (cfg.sampler.loc, cfg.sampler.scale, cfg.sampler.clip) == (1.0, 2.0, 3.0)
        assert cfg.sampler.n_draws == 100
        assert cfg.n_eps == 4
        assert cfg.solver.n_steps == 100
        assert (cfg.solver.alpha_min, cfg.solver.alpha_max) == (-5.0, 7.0)
        assert cfg.denoiser.kind == "closed_form"
        assert cfg.bits is False

    def test_full_config_round_trips_through_resolved(self):
        cfg = parse_config(FULL)
        resolved = cfg.resolved()
        assert resolved["sampler"]["n_snr"] == 50
        assert resolved["estimate"] == {"kind": "mi", "estimator_kind": "pointwise_s"}
        assert resolved["data"]["gmm"]["condition_map"] == {"neg": [0], "pos": [1]}
        assert resolved["train"]["hidden"] == [8]
        # the resolved document is itself a valid configuration
        reparsed = parse_config(json.loads(json.dumps(resolved)))
        assert reparsed.sampler == cfg.sampler
        assert reparsed.estimate == cfg.estimate

    def test_resolved_is_a_fixpoint_of_parsing(self):
        resolved = parse_config(EVERY_FIELD).resolved()
        # nothing given is dropped: every section and field comes back
        assert set(resolved) == set(EVERY_FIELD)
        for section, body in EVERY_FIELD.items():
            if isinstance(body, dict):
                assert set(resolved[section]) == set(body), section
        assert resolved["data"]["component_conditions"][0] is None
        assert resolved["data"]["truth_mask"] == [1, 0]
        again = parse_config(json.loads(json.dumps(resolved))).resolved()
        assert json.dumps(again, sort_keys=True) == json.dumps(resolved, sort_keys=True)

    def test_null_candidates_mean_every_token(self):
        # resolved documents used to write "candidates": null; they still parse
        rank = parse_config({"seed": 1, "rank": {"n_samples": 3, "candidates": None}}).rank
        assert rank.candidates is None
        assert "candidates" not in parse_config({"seed": 1, "rank": {"n_samples": 3}}).resolved()["rank"]


class TestRejections:
    def test_missing_seed_named(self):
        with pytest.raises(ConfigError, match="'seed'"):
            parse_config({})

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="samplerr"):
            parse_config({"seed": 1, "samplerr": {}})

    def test_unknown_nested_key_named(self):
        with pytest.raises(ConfigError, match="sampler"):
            parse_config({"seed": 1, "sampler": {"locc": 2.0}})

    def test_wrong_types_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"seed": "nope"})
        with pytest.raises(ConfigError, match="n_snr"):
            parse_config({"seed": 1, "sampler": {"n_snr": 2.5}})
        with pytest.raises(ConfigError, match="bits"):
            parse_config({"seed": 1, "bits": "yes"})

    def test_invalid_sampler_values_rejected(self):
        with pytest.raises(ConfigError, match="sampler"):
            parse_config({"seed": 1, "sampler": {"scale": -1.0}})

    def test_estimate_kind_validated(self):
        with pytest.raises(ConfigError, match="estimate.kind"):
            parse_config({"seed": 1, "estimate": {"kind": "entropy"}})

    def test_gmm_validation_propagates(self):
        bad = {
            "seed": 1,
            "data": {"gmm": {"components": [{"weight": 0.4, "mean": [0.0], "cov": [[1.0]]}]}},
        }
        with pytest.raises(ConfigError, match="data.gmm"):
            parse_config(bad)

    def test_gmm_and_checkpoint_exclusive(self):
        bad = {
            "seed": 1,
            "data": {
                "gmm": {"components": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}]},
                "checkpoint": "x.ckpt",
            },
        }
        with pytest.raises(ConfigError, match="not both"):
            parse_config(bad)

    def test_oracle_op_params_validated(self):
        with pytest.raises(ConfigError, match="oracle.op"):
            parse_config({"seed": 1, "oracle": {"op": "magic"}})
        with pytest.raises(ConfigError, match="oracle"):
            parse_config({"seed": 1, "oracle": {"op": "gaussian_mi", "rho": 0.8}})

    @pytest.mark.parametrize(
        "section, field",
        [
            ({"op": "mmse_gaussian", "variance": 1.0, "alpha": "high"}, "oracle.alpha"),
            ({"op": "mmse_gaussian", "variance": float("inf"), "alpha": 0.0}, "oracle.variance"),
            ({"op": "gaussian_mi", "correlation": True}, "oracle.correlation"),
            ({"op": "gaussian_mi", "correlation": float("nan")}, "oracle.correlation"),
            ({**POINTWISE, "x": ["1"]}, "oracle.x"),
            ({**POINTWISE, "y": [[0.0], 1.0]}, "oracle.y"),
            ({**POINTWISE, "joint_covariance": [[1, None], [0, 1]]}, "oracle.joint_covariance"),
            ({"op": "gmm_mi_numeric", "labels": ["neg", 3]}, "oracle.labels"),
            ({"op": "gmm_mi_numeric", "labels": "neg"}, "oracle.labels"),
        ],
    )
    def test_oracle_param_types_checked(self, section, field):
        with pytest.raises(ConfigError, match=field) as info:
            parse_config({"seed": 1, "oracle": section})
        assert info.value.field == field

    def test_well_typed_oracle_params_accepted(self):
        assert parse_config({"seed": 1, "oracle": POINTWISE}).oracle.params == {
            k: v for k, v in POINTWISE.items() if k != "op"
        }

    @pytest.mark.parametrize(
        "section, value",
        [("intervene", 0), ("intervene", -1), ("rank", 0), ("rank", -2)],
    )
    def test_sample_counts_must_be_positive(self, section, value):
        raw = {"seed": 1, section: {"n_samples": value}}
        if section == "intervene":
            raw[section]["swap"] = {"neg": "pos"}
        with pytest.raises(ConfigError, match="at least 1") as info:
            parse_config(raw)
        assert info.value.field == f"{section}.n_samples"

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("train", "learning_rate", 0.0),
            ("train", "learning_rate", -1e-3),
            ("train", "condition_drop", -0.1),
            ("train", "condition_drop", 1.5),
            ("sampler", "scale", 0.0),
            ("sampler", "clip", -2.0),
        ],
    )
    def test_a_value_out_of_range_names_its_key(self, section, key, value):
        with pytest.raises(ConfigError, match=f"'{section}.{key}' must be") as info:
            parse_config({"seed": 1, section: {key: value}})
        assert info.value.field == f"{section}.{key}"

    @pytest.mark.parametrize(
        "section, values, message",
        [
            ("sampler", {"clip": 1e308}, "the interval loc"),
            ("solver", {"alpha_min": 2.0, "alpha_max": 2.0}, "alpha_min must be below alpha_max"),
        ],
    )
    def test_a_joint_condition_names_its_section(self, section, values, message):
        with pytest.raises(ConfigError, match=f"invalid {section}: {message}") as info:
            parse_config({"seed": 1, section: values})
        assert info.value.field == section

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(ConfigError, match=r"data\.points\[1\]") as info:
            parse_config({"seed": 1, "data": {"points": [[0.0], [bad]]}})
        assert info.value.field == "data.points"

    def test_intervene_swap_required(self):
        with pytest.raises(ConfigError, match="swap"):
            parse_config({"seed": 1, "intervene": {"n_samples": 5}})

    def test_file_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(bad)
