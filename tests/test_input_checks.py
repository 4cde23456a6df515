"""The library's input checks: each rejects a malformed argument with an error that says what is wrong."""

import os

import numpy as np
import pytest

from diffinfo.denoise import ConditionId, GmmSpec, gmm_mmse
from diffinfo.estimators import InfoReport, pointwise_dataset, pointwise_s, seed_sequence
from diffinfo.mlp import MlpDenoiser, MlpTrainConfig
from diffinfo.oracle import gaussian_pointwise
from diffinfo.reports import write_pgm

LINE = GmmSpec.single([0.0], [[1.0]])
PLANE = GmmSpec.single([0.0, 0.0], np.eye(2))


def mlp_layers(inputs, outputs):
    return [(np.zeros((inputs, 4)), np.zeros(4)), (np.zeros((4, outputs)), np.zeros(outputs))]


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: GmmSpec([0.5, 0.5], [[0.0]], [[[1.0]]]), ValueError, r"^expected 1 weights, got shape \(2,\)$"),
        (
            lambda: GmmSpec([1.0], [[0.0, 0.0]], [[[1.0]]]),
            ValueError,
            r"^expected covariances of shape \(1, 2, 2\), got \(1, 1, 1\)$",
        ),
        (
            lambda: GmmSpec([1.0], [[0.0, 0.0]], [[[1.0, 0.5], [0.0, 1.0]]]),
            ValueError,
            "^component 0 covariance is not symmetric$",
        ),
        (lambda: LINE.components_for("a"), TypeError, "^expected ConditionId or None, got str$"),
        (
            lambda: InfoReport([[0.1]], [0.0], 1, 1, "entropy", (-5.0, 7.0)),
            ValueError,
            "^unknown estimator kind 'entropy'$",
        ),
        (lambda: seed_sequence(np.random.default_rng(0)), TypeError, "not a Generator$"),
        (
            lambda: pointwise_s(gmm_mmse(LINE), gmm_mmse(PLANE), [0.0], ConditionId(label="a")),
            ValueError,
            "^dimension mismatch: unconditional denoiser has dimension 1 but conditional has dimension 2$",
        ),
        (
            lambda: pointwise_dataset(gmm_mmse(LINE), gmm_mmse(LINE), np.zeros((1, 1)), ["a"], estimator_kind="mi"),
            ValueError,
            "^estimator_kind must be pointwise_s or pointwise_o, got 'mi'$",
        ),
        (lambda: MlpTrainConfig(n_steps=0), ValueError, "^n_steps and batch_size must be positive$"),
        (lambda: MlpTrainConfig(condition_drop=1.5), ValueError, r"^condition_drop must lie in \[0, 1\], got 1.5$"),
        (
            lambda: MlpDenoiser(mlp_layers(3, 1), dim=1),
            ValueError,
            "^first layer expects 3 inputs but the feature layout has 17$",
        ),
        (
            lambda: MlpDenoiser(mlp_layers(17, 2), dim=1),
            ValueError,
            "^output layer width must match the data dimension$",
        ),
        (
            lambda: gaussian_pointwise([0.5], [1.0], [[1.0]]),
            ValueError,
            r"^joint covariance shape \(1, 1\) does not match dim\(x\)\+dim\(y\)=2$",
        ),
        (lambda: write_pgm(os.devnull, [0.0, 1.0]), ValueError, r"^expected a 2-D image, got shape \(2,\)$"),
    ],
    ids=[
        "gmm_weights_shape",
        "gmm_covariances_shape",
        "gmm_covariance_not_symmetric",
        "components_for_not_a_condition",
        "report_kind",
        "seed_generator",
        "denoiser_dimensions",
        "pointwise_dataset_kind",
        "mlp_n_steps",
        "mlp_condition_drop",
        "mlp_first_layer_width",
        "mlp_output_width",
        "pointwise_oracle_covariance_shape",
        "pgm_image_axes",
    ],
)
def test_rejects_with_a_message_naming_the_fault(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_one_component_takes_a_two_axis_covariance():
    spec = GmmSpec([1.0], [[0.0, 1.0]], [[2.0, 0.5], [0.5, 1.0]])
    np.testing.assert_array_equal(spec.covariances, [[[2.0, 0.5], [0.5, 1.0]]])
