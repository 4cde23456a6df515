"""Binary checkpoint round trips must be bit-exact."""

import json

import numpy as np
import pytest

from diffinfo.channel import LogSnrSampler
from diffinfo.checkpoint import load_checkpoint, save_checkpoint
from diffinfo.denoise import ConditionId, GmmSpec
from diffinfo.mlp import MlpDenoiser, MlpTrainConfig, train_mlp


@pytest.fixture(scope="module")
def tiny_mlp():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 2))
    conditions = [ConditionId(label="a" if i % 2 else "b") for i in range(64)]
    denoiser, _ = train_mlp(
        x, conditions, MlpTrainConfig(hidden=(16,), n_steps=50), LogSnrSampler(n_draws=16), seed=1
    )
    return denoiser


def rewrite_header(path, edit):
    """Replace a checkpoint's JSON header by ``edit(header)``, keeping its arrays."""
    raw = path.read_bytes()
    end = 16 + int.from_bytes(raw[8:16], "little")
    blob = json.dumps(edit(json.loads(raw[16:end]))).encode()
    path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[end:])


class TestGmmCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        spec = GmmSpec(
            weights=[0.25, 0.75],
            means=[[0.1, -0.2], [1.0 / 3.0, np.pi]],
            covariances=[np.eye(2), [[2.0, 0.3], [0.3, 1.0]]],
            condition_map={"a": (0,), "b": (1,), "both": (0, 1)},
        )
        path = tmp_path / "spec.ckpt"
        save_checkpoint(spec, path)
        loaded = load_checkpoint(path)
        assert isinstance(loaded, GmmSpec)
        np.testing.assert_array_equal(loaded.weights, spec.weights)
        np.testing.assert_array_equal(loaded.means, spec.means)
        np.testing.assert_array_equal(loaded.covariances, spec.covariances)
        assert dict(loaded.condition_map) == dict(spec.condition_map)

    def test_saved_file_is_reproducible(self, tmp_path):
        spec = GmmSpec.single([0.0], [[1.0]])
        save_checkpoint(spec, tmp_path / "a.ckpt")
        save_checkpoint(spec, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


class TestMlpCheckpoint:
    def test_bit_exact_round_trip(self, tiny_mlp, tmp_path):
        path = tmp_path / "mlp.ckpt"
        save_checkpoint(tiny_mlp, path)
        loaded = load_checkpoint(path)
        assert isinstance(loaded, MlpDenoiser)
        assert loaded.vocabulary == tiny_mlp.vocabulary
        assert loaded.layer_widths == tiny_mlp.layer_widths
        for (w1, b1), (w2, b2) in zip(loaded.layers, tiny_mlp.layers):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)

    def test_predictions_survive_round_trip(self, tiny_mlp, tmp_path):
        path = tmp_path / "mlp.ckpt"
        save_checkpoint(tiny_mlp, path)
        loaded = load_checkpoint(path)
        x_a = np.linspace(-1, 1, 10).reshape(5, 2)
        np.testing.assert_array_equal(
            loaded.predict_eps(x_a, 0.5, ConditionId(label="a")),
            tiny_mlp.predict_eps(x_a, 0.5, ConditionId(label="a")),
        )


class TestFormatErrors:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        spec = GmmSpec.single([0.0], [[1.0]])
        path = tmp_path / "spec.ckpt"
        save_checkpoint(spec, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("keep", [10, 20, -8, -1], ids=["preamble", "header", "array", "last_byte"])
    def test_truncated_file_rejected(self, tmp_path, keep):
        path = tmp_path / "spec.ckpt"
        save_checkpoint(GmmSpec.single([0.0, 1.0], np.eye(2)), path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "spec.ckpt"
        save_checkpoint(GmmSpec.single([0.0], [[1.0]]), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda h: {"arrays": []}, "kind"),
            (lambda h: {**h, "kind": "vae"}, "kind"),
            (lambda h: {k: v for k, v in h.items() if k != "condition_map"}, "condition_map"),
            (lambda h: {**h, "condition_map": {"a": 0}}, "condition_map"),
            (lambda h: {**h, "n_components": "1"}, "n_components"),
            (lambda h: {**h, "dim": True}, "dim"),
            (lambda h: {**h, "arrays": [{"name": "weights"}]}, "arrays"),
            (lambda h: {**h, "arrays": h["arrays"][::-1]}, "arrays"),
        ],
    )
    def test_gmm_header_schema_checked(self, tmp_path, edit, field):
        path = tmp_path / "spec.ckpt"
        save_checkpoint(GmmSpec.single([0.0], [[1.0]]), path)
        rewrite_header(path, edit)
        with pytest.raises(ValueError, match=f"'{field}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda h: {k: v for k, v in h.items() if k != "vocabulary"}, "vocabulary"),
            (lambda h: {**h, "vocabulary": [1, 2]}, "vocabulary"),
            (lambda h: {**h, "frequency_base": "0.25"}, "frequency_base"),
            (lambda h: {**h, "layer_widths": h["layer_widths"][:1]}, "layer_widths"),
            (lambda h: {**h, "layer_widths": [w + 1 for w in h["layer_widths"]]}, "arrays"),
            (lambda h: {**h, "arrays": [{**a, "name": a["name"].upper()} for a in h["arrays"]]}, "arrays"),
        ],
    )
    def test_mlp_header_schema_checked(self, tiny_mlp, tmp_path, edit, field):
        path = tmp_path / "mlp.ckpt"
        save_checkpoint(tiny_mlp, path)
        rewrite_header(path, edit)
        with pytest.raises(ValueError, match=f"'{field}'"):
            load_checkpoint(path)

    def test_non_finite_frequency_base_rejected(self, tiny_mlp, tmp_path):
        path = tmp_path / "mlp.ckpt"
        save_checkpoint(tiny_mlp, path)
        rewrite_header(path, lambda h: {**h, "frequency_base": float("nan")})
        assert b'"frequency_base": NaN' in path.read_bytes()
        with pytest.raises(ValueError, match="'frequency_base'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_array_value_rejected_naming_array_and_index(self, tmp_path, value):
        path = tmp_path / "spec.ckpt"
        save_checkpoint(GmmSpec(weights=[0.5, 0.5], means=[[0.0, 1.0], [2.0, 3.0]], covariances=[np.eye(2)] * 2), path)
        raw = bytearray(path.read_bytes())
        at = len(raw) - 8 * (8 + 1)  # the last mean; the two 2x2 covariances follow it
        raw[at : at + 8] = np.array(value).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"array means\[1\]\[1\] is not finite"):
            load_checkpoint(path)

    def test_unsupported_object_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_checkpoint({"not": "a model"}, tmp_path / "x.ckpt")
