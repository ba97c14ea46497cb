"""Recurrent steady-state solver and its agreement with the forward pass."""

import re

import numpy as np
import pytest

from lrnn import (
    ConvergenceError,
    LrnnModel,
    RnnNetworkSpec,
    feed_forward_spec,
    forward,
    init_weights,
    solve_steady_state,
)


def spec_of(n, rates=None, p_plus=None, p_minus=None, lam_plus=None, lam_minus=None):
    return RnnNetworkSpec(
        rates=np.ones(n) if rates is None else rates,
        p_plus=np.zeros((n, n)) if p_plus is None else p_plus,
        p_minus=np.zeros((n, n)) if p_minus is None else p_minus,
        lam_plus=np.zeros(n) if lam_plus is None else lam_plus,
        lam_minus=np.zeros(n) if lam_minus is None else lam_minus,
    )


class TestSolveSteadyState:
    def test_isolated_neuron_closed_form(self):
        # q = lam+ / r = 0.3
        q = solve_steady_state(spec_of(1, lam_plus=[0.3]))
        np.testing.assert_allclose(q, [0.3], atol=1e-12)

    def test_feed_forward_chain(self):
        # neuron 1 drives neuron 2 with probability 1; both settle at 0.5
        q = solve_steady_state(spec_of(2, p_plus=[[0.0, 1.0], [0.0, 0.0]], lam_plus=[0.5, 0.0]))
        np.testing.assert_allclose(q, [0.5, 0.5], atol=1e-12)

    def test_mutual_inhibition_quadratic_oracle(self):
        # q = 0.8 / (1 + q)  =>  q^2 + q - 0.8 = 0, positive root below
        root = (-1.0 + np.sqrt(1.0 + 4.0 * 0.8)) / 2.0
        assert root == pytest.approx(0.5246950765959598, abs=1e-15)
        q = solve_steady_state(
            spec_of(2, p_minus=[[0.0, 1.0], [1.0, 0.0]], lam_plus=[0.8, 0.8])
        )
        np.testing.assert_allclose(q, [root, root], atol=1e-11)

    def test_clamp_active(self):
        q = solve_steady_state(spec_of(1, lam_plus=[2.5]))
        np.testing.assert_allclose(q, [1.0])

    def test_zero_denominator_with_input_raises(self):
        bad = spec_of(1, rates=[0.0], lam_plus=[0.4])
        with pytest.raises(ValueError, match="zero firing rate"):
            solve_steady_state(bad)

    def test_zero_denominator_without_input_is_dead_neuron(self):
        q = solve_steady_state(spec_of(1, rates=[0.0]))
        np.testing.assert_allclose(q, [0.0])

    def test_nonconvergence_reports_residual(self):
        spec = spec_of(2, p_minus=[[0.0, 1.0], [1.0, 0.0]], lam_plus=[0.8, 0.8])
        with pytest.raises(ConvergenceError) as exc:
            solve_steady_state(spec, tol=1e-12, max_iter=3)
        assert exc.value.iterations == 3
        assert exc.value.residual > 0.0

    def test_max_iter_not_an_integer_refused(self):
        message = "max_iter must be an integer >= 1, got 2.5"
        with pytest.raises(ValueError, match=re.escape(message)):
            solve_steady_state(spec_of(1, lam_plus=[0.3]), max_iter=2.5)

    def test_no_neurons(self):
        assert solve_steady_state(spec_of(0)).shape == (0,)

    def test_damping_converges_to_same_fixed_point(self, monkeypatch):
        # Mutual inhibition makes the update direction reverse every sweep;
        # with a small oscillation window the damped branch engages and must
        # still land on the quadratic root.
        import lrnn.steady_state as ss

        monkeypatch.setattr(ss, "_OSCILLATION_WINDOW", 5)
        root = (-1.0 + np.sqrt(1.0 + 4.0 * 0.8)) / 2.0
        q = solve_steady_state(
            spec_of(2, p_minus=[[0.0, 1.0], [1.0, 0.0]], lam_plus=[0.8, 0.8])
        )
        np.testing.assert_allclose(q, [root, root], atol=1e-11)

    def test_row_sum_validation(self):
        bad = spec_of(2, p_plus=[[0.7, 0.0], [0.0, 0.0]], p_minus=[[0.0, 0.5], [0.0, 0.0]])
        with pytest.raises(ValueError, match="sum to more than 1"):
            solve_steady_state(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["rates", "p_plus", "p_minus", "lam_plus", "lam_minus"])
    def test_non_finite_spec_rejected(self, field, bad):
        # rates, routing matrices and arrival rates: every field kind
        spec = spec_of(2, lam_plus=[0.3, 0.2])
        getattr(spec, field).flat[0] = bad
        with pytest.raises(ValueError, match=f"{field} has NaN or infinite"):
            solve_steady_state(spec)

    def test_bad_tol(self):
        chain = spec_of(2, p_plus=[[0.0, 0.5], [0.0, 0.0]], lam_plus=[0.3, 0.2])
        np.testing.assert_allclose(solve_steady_state(chain), [0.3, 0.35], atol=1e-12)
        for tol in (0.0, -1e-12, np.inf, np.nan):  # inf ends after one step, nan runs out
            with pytest.raises(ValueError, match="tol must be positive"):
                solve_steady_state(chain, tol=tol)

    @pytest.mark.parametrize(
        "field, shape",
        [
            ("rates", (2, 1)),
            ("p_plus", (4, 1)),
            ("p_plus", (4,)),
            ("p_minus", (3, 3)),
            ("lam_plus", (2, 1)),
            ("lam_minus", (3,)),
        ],
    )
    def test_field_of_wrong_shape_refused(self, field, shape):
        # a (4, 1) p_plus has the size of a 2 x 2 matrix but not its shape
        want = (2, 2) if field.startswith("p_") else (2,)
        message = rf"^{field} must have shape {re.escape(str(want))}, got {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            spec_of(2, **{field: np.zeros(shape)})


class TestFeedForwardEquivalence:
    def test_layer_by_layer_settling(self):
        # a three-layer chain settles in at most layers + 1 sweeps
        model = init_weights([5, 3], seed=11)
        x = np.random.default_rng(2).random(5)
        spec = feed_forward_spec(model, x)
        q = solve_steady_state(spec, tol=1e-12, max_iter=4)
        assert q.shape == (13,)

    def test_matches_forward_for_random_models(self):
        # acceptance-grade equivalence on 5->3->5 autoencoders
        rng = np.random.default_rng(99)
        for trial in range(50):
            model = init_weights([5, 3], seed=trial)
            x = rng.random(5)
            q = solve_steady_state(feed_forward_spec(model, x))
            state = forward(model, x.reshape(1, -1))
            numeric = np.concatenate(
                [state.q_hat.ravel(), state.q_enc[0].ravel(), state.q_dec[0].ravel()]
            )
            np.testing.assert_allclose(q, numeric, atol=1e-10)

    def test_constraint_violation_rejected(self):
        for w, fault in (([0.7, 0.7], "a row sum above 1"), ([np.nan, 0.1], "NaN or infinite")):
            bad = LrnnModel([np.array([w])], [np.array([[0.5], [0.5]])])
            message = f"routing matrix 0 (visual -> enc1) has {fault}"
            with pytest.raises(ValueError, match=re.escape(message)):
                feed_forward_spec(bad, [0.5])

    def test_input_validation(self):
        model = init_weights([4, 2], seed=0)
        with pytest.raises(ValueError, match="attributes"):
            feed_forward_spec(model, [0.1, 0.2])
        with pytest.raises(ValueError, match="nonnegative"):
            feed_forward_spec(model, [-0.1, 0.2, 0.3, 0.4])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="layer visual has NaN or infinite entries"):
                feed_forward_spec(model, [0.1, bad, 0.3, 0.4])
