"""Probability-flow transport: accuracy, convergence order, interventions."""

import numpy as np
import pytest

from diffinfo.channel import signal_weight
from diffinfo.denoise import ConditionId, GmmSpec, gmm_mmse
from diffinfo.flow import SolverConfig, SolverError, decode, encode, intervene

from toys import (
    ZeroDenoiser,
    component_responsibilities,
    editing_dataset,
    redundant_editing_spec,
    symmetric_pair_spec,
)

PAIR = symmetric_pair_spec(4.0)


@pytest.fixture(scope="module")
def gmm_points():
    rng = np.random.default_rng(7)
    x, comps = PAIR.sample(32, rng)
    return x, comps, gmm_mmse(PAIR)


class TestVelocityAlgebra:
    def test_zero_score_flow_has_closed_form(self):
        # With eps_hat = 0 the field is (sigma(-a)/2) z, whose exact flow map
        # multiplies by sqrt(sigma(a1)/sigma(a0)).
        den = ZeroDenoiser(dim=2)
        z0 = np.array([1.7, -0.3])
        cfg = SolverConfig(n_steps=100)
        latent = encode(z0[None], den, config=cfg)[0]
        exact = z0 * np.sqrt(signal_weight(-5.0) / signal_weight(7.0))
        np.testing.assert_allclose(latent, exact, atol=1e-3)

    def test_zero_score_error_shrinks_quadratically(self):
        den = ZeroDenoiser(dim=1)
        z0 = np.array([2.0])
        exact = z0 * np.sqrt(signal_weight(-5.0) / signal_weight(7.0))
        errors = [
            abs(encode(z0[None], den, config=SolverConfig(n_steps=n))[0, 0] - exact[0])
            for n in (50, 100, 200)
        ]
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.5)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.5)

    def test_standard_normal_is_a_fixed_point(self):
        # For an N(0, 1) source eps_hat(z) = sqrt(sigma(-a)) z, so the velocity
        # is zero everywhere and every point stays where it is.
        den = gmm_mmse(GmmSpec.single([0.0], [[1.0]]))
        x = np.array([[0.8], [-2.5], [0.0]])
        np.testing.assert_allclose(encode(x, den), x, rtol=0, atol=1e-12)


class TestEncodeDecode:
    def test_round_trip_under_one_permille(self, gmm_points):
        x, _, den = gmm_points
        latent = encode(x, den)
        recovered = decode(latent, den)
        rel = np.linalg.norm(recovered - x) / np.linalg.norm(x)
        assert rel < 1e-3

    def test_halving_steps_cuts_error_by_three_or_more(self, gmm_points):
        x, _, den = gmm_points
        errors = {}
        for n in (100, 200):
            cfg = SolverConfig(n_steps=n)
            recovered = decode(encode(x, den, config=cfg), den, config=cfg)
            errors[n] = np.linalg.norm(recovered - x) / np.linalg.norm(x)
        assert errors[100] / errors[200] >= 3.0

    def test_one_step_solver_is_worse(self, gmm_points):
        x, _, den = gmm_points
        def round_trip(n):
            cfg = SolverConfig(n_steps=n)
            return np.linalg.norm(decode(encode(x, den, config=cfg), den, config=cfg) - x)
        assert round_trip(1) > round_trip(100)

    def test_latent_doubling_converges_at_second_order(self, gmm_points):
        x, _, den = gmm_points
        latents = {
            n: encode(x, den, config=SolverConfig(n_steps=n)) for n in (100, 200, 400)
        }
        ratio = np.linalg.norm(latents[100] - latents[200]) / np.linalg.norm(
            latents[200] - latents[400]
        )
        assert ratio == pytest.approx(4.0, rel=0.5)

    def test_gaussian_source_maps_to_unit_latent(self):
        den = gmm_mmse(GmmSpec.single([0.0], [[1.0]]))
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1000, 1))
        latent = encode(x, den)
        assert latent.std() == pytest.approx(1.0, rel=0.05)

    def test_symmetric_mixture_fixes_the_origin(self):
        den = gmm_mmse(PAIR)
        decoded = decode(np.zeros((1, 1)), den)
        assert abs(decoded[0, 0]) <= 1e-6

    def test_deterministic(self, gmm_points):
        x, _, den = gmm_points
        np.testing.assert_array_equal(encode(x[:4], den), encode(x[:4], den))

    def test_non_finite_state_raises_with_step(self):
        class BrokenDenoiser:
            dim = 1

            def predict_eps(self, x_alpha, alpha, condition=None):
                return np.full_like(np.asarray(x_alpha, dtype=float), np.nan)

        with pytest.raises(SolverError, match="step 1"):
            encode(np.ones((1, 1)), BrokenDenoiser())

    @pytest.mark.parametrize(
        "flow",
        [encode, decode, lambda x, den: intervene(x, den, None, None)],
        ids=["encode", "decode", "intervene"],
    )
    def test_a_single_point_raises_naming_its_shape(self, flow):
        class UncalledDenoiser:
            dim = 2

            def predict_eps(self, x_alpha, alpha, *entries):
                raise AssertionError("the denoiser was called")

        with pytest.raises(ValueError, match=r"rows of shape \(n, d\), got shape \(2,\)"):
            flow(np.array([0.5, -1.0]), UncalledDenoiser())

    def test_solver_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(n_steps=0)
        with pytest.raises(ValueError):
            SolverConfig(alpha_min=2.0, alpha_max=-2.0)


class TestIntervene:
    def test_null_intervention_equals_round_trip_exactly(self, gmm_points):
        x, comps, den = gmm_points
        cond = ConditionId(label="pos" if comps[0] else "neg")
        null = intervene(x[:1], den, cond, cond)
        round_trip = decode(encode(x[:1], den, cond), den, cond)
        np.testing.assert_array_equal(null.x_edited, round_trip)

    def test_identical_conditionals_make_swaps_null(self):
        spec = GmmSpec(
            weights=[0.5, 0.5],
            means=[[-4.0], [4.0]],
            covariances=[[[1.0]], [[1.0]]],
            condition_map={"a": (0, 1), "b": (0, 1)},
        )
        den = gmm_mmse(spec)
        x = np.array([[3.2]])
        swap = intervene(x, den, ConditionId(label="a"), ConditionId(label="b"))
        null = intervene(x, den, ConditionId(label="a"), ConditionId(label="a"))
        assert swap.delta_l2[0] == null.delta_l2[0]

    def test_swap_lands_in_target_component(self, gmm_points):
        x, comps, den = gmm_points
        labels = ("neg", "pos")
        for i in range(4):
            cond_in = ConditionId(label=labels[comps[i]])
            cond_out = ConditionId(label=labels[1 - comps[i]])
            result = intervene(x[i : i + 1], den, cond_in, cond_out)
            resp = component_responsibilities(PAIR, result.x_edited)
            assert resp[0, 1 - comps[i]] > 0.99

    def test_delta_fields_are_consistent(self, gmm_points):
        x, comps, den = gmm_points
        result = intervene(x[:1], den, ConditionId(label="neg"), ConditionId(label="pos"))
        np.testing.assert_allclose(result.delta_per_dim, (x[:1] - result.x_edited) ** 2)
        assert result.delta_l2[0] == pytest.approx(np.sqrt(result.delta_per_dim.sum()))
        assert result.x_edited.shape == result.delta_per_dim.shape == (1, 1)
        assert result.delta_l2.shape == result.roundtrip_l2.shape == (1,)


class TestBatchedIntervene:
    """Rows of shape (n, d) with per-row conditions: one encode, one joint decode."""

    @pytest.fixture(scope="class")
    def edits(self):
        spec = redundant_editing_spec()
        den = gmm_mmse(spec)
        x, cond_in, _ = editing_dataset(spec, 10, seed=3)
        swap = {"low": "high", "high": "low"}
        cond_out = [ConditionId(label=swap[c.label], context=c.context) for c in cond_in]
        return den, x, cond_in, cond_out, intervene(x, den, cond_in, cond_out)

    def test_equals_per_sample_encode_decode_exactly(self, edits):
        den, x, cond_in, cond_out, result = edits
        assert result.x_edited.shape == x.shape and result.delta_l2.shape == (len(x),)
        for i in range(len(x)):
            latent = encode(x[i : i + 1], den, cond_in[i])
            edited = decode(latent, den, cond_out[i])[0]
            round_trip = decode(latent, den, cond_in[i])[0]
            np.testing.assert_array_equal(result.x_edited[i], edited)
            assert result.delta_l2[i] == np.sqrt(((x[i] - edited) ** 2).sum())
            assert result.roundtrip_l2[i] == np.sqrt(((x[i] - round_trip) ** 2).sum())

    def test_plain_context_swaps_equal_the_round_trip(self, edits):
        _, x, cond_in, _, result = edits
        plain = [i for i, c in enumerate(cond_in) if c.context == ("plain",)]
        assert 0 < len(plain) < len(x)
        np.testing.assert_array_equal(result.delta_l2[plain], result.roundtrip_l2[plain])

    def test_wrong_length_condition_list_raises(self, edits):
        den, x, cond_in, _, _ = edits
        with pytest.raises(ValueError, match=f"{len(x) - 1} per-row conditions for {len(x)} rows"):
            intervene(x, den, cond_in, cond_in[1:])
