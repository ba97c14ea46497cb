"""Spiking discrete-event simulation: compilation, dynamics, estimation."""

import numpy as np
import pytest

from lrnn import (
    DeadNetworkError,
    LrnnModel,
    QEstimate,
    SimNetwork,
    compare,
    compile_sim,
    forward,
    init_weights,
    new_state,
    run,
    run_ensemble,
    step_event,
    train,
    TrainConfig,
)


def scalar_model(w=0.8, wb=0.9):
    return LrnnModel([np.array([[w]])], [np.array([[wb]])])


class TestCompileSim:
    def test_leak_probabilities_by_hand(self):
        net = compile_sim(scalar_model(), [0.7])
        np.testing.assert_allclose(net.leak, [0.2, 0.1, 1.0])
        assert net.layer_names == ["visual", "enc1", "dec1"]
        assert net.layer_sizes == [1, 1, 1]

    def test_network_size_mnist_shape(self):
        model = init_weights([784, 100], seed=0)
        net = compile_sim(model, np.zeros(784))
        assert net.n_neurons == 1668
        assert net.layer_sizes == [784, 100, 784]

    def test_constraint_violation_rejected(self):
        for w in ([0.7, 0.7], [np.nan, 0.1]):
            bad = LrnnModel([np.array([w])], [np.array([[0.5], [0.5]])])
            with pytest.raises(ValueError, match="constraints"):
                compile_sim(bad, [0.5])

    def test_negative_attributes_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            compile_sim(scalar_model(), [-0.5])

    def test_routing_tables_compressed(self):
        w = np.array([[0.3, 0.0, 0.4]])
        wb = np.array([[0.2], [0.0], [0.5]])
        net = compile_sim(LrnnModel([w], [wb]), [1.0])
        assert net._route_targets[0] == [1, 3]  # zero-weight edge dropped
        np.testing.assert_allclose(net._route_cum[0], [0.3, 0.7])


class TestStepEvent:
    def test_only_possible_event_is_arrival(self):
        net = SimNetwork([1], [], [1.0], ["visual"])
        state = step_event(net, new_state(net, seed=0))
        assert state.potentials == [1]
        assert state.arrival_count == 1 and state.firing_count == 0

    def test_pure_leak_firing(self):
        net = SimNetwork([1], [], [1.0], ["visual"])
        state = new_state(net, seed=0)
        step_event(net, state)  # arrival, potential 1
        # drive until the neuron fires; leak is 1.0 so nothing propagates
        while state.firing_count == 0:
            step_event(net, state)
        assert state.potentials[0] == state.arrival_count - state.firing_count

    def test_dead_network(self):
        net = SimNetwork([1], [], [0.0], ["visual"])
        with pytest.raises(DeadNetworkError):
            step_event(net, new_state(net, seed=0))

    def test_event_accounting_exact(self):
        net = compile_sim(scalar_model(), [0.7])
        state = new_state(net, seed=42)
        for _ in range(3000):
            step_event(net, state)
        assert state.arrival_count + state.firing_count == state.event_count == 3000
        assert min(state.potentials) >= 0

    def test_two_category_race_frequencies(self):
        # from potential 1 with x=0.5 the next event is an arrival with
        # probability 1/3 and a firing with probability 2/3
        net = SimNetwork([1], [], [0.5], ["visual"])
        counts = {"arrival": 0, "fire": 0}
        for trial in range(100_000):
            state = new_state(net, seed=trial)
            state.potentials[0] = 1
            state.active = [0]
            state.active_pos = [0]
            step_event(net, state)
            counts["arrival" if state.arrival_count else "fire"] += 1
        freq = counts["arrival"] / 100_000
        # chi-square against (1/3, 2/3) at df=1: crit 6.63 at p=0.01
        expected = np.array([1 / 3, 2 / 3]) * 100_000
        observed = np.array([counts["arrival"], counts["fire"]])
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < 6.63, (freq, chi2)

    def test_potentials_never_negative(self):
        model = init_weights([3, 2], seed=1)
        net = compile_sim(model, [0.9, 0.1, 0.5])
        state = new_state(net, seed=7)
        for _ in range(5000):
            step_event(net, state)
            assert min(state.potentials) >= 0


class TestRun:
    def test_estimate_arithmetic_identity(self):
        # mean potential 4/3 -> q = (4/3)/(1+4/3) = 4/7
        est = QEstimate(np.array([4.0 / 3.0]), 3, [1], ["visual"])
        assert est.q[0] == pytest.approx(4.0 / 7.0, abs=1e-15)

    def test_all_zero_observations(self):
        est = QEstimate(np.zeros(3), 5, [3], ["visual"])
        np.testing.assert_array_equal(est.q, np.zeros(3))

    def test_isolated_neuron_occupancy_oracle(self):
        # M/M/1 with arrival 0.5 and service 1: busy probability is 0.5
        net = SimNetwork([1], [], [0.5], ["visual"])
        est = run(net, 1_000_000, observe_every=1000, seed=0)
        assert est.observation_count == 1000
        assert abs(est.q[0] - 0.5) <= 0.02

    def test_deterministic(self):
        net = compile_sim(scalar_model(), [0.7])
        e1 = run(net, 50_000, seed=3)
        e2 = run(net, 50_000, seed=3)
        np.testing.assert_array_equal(e1.mean_potential, e2.mean_potential)
        assert e1.observation_count == e2.observation_count

    def test_observation_count_follows_event_count(self):
        net = compile_sim(scalar_model(), [0.7])
        est = run(net, 12_345, observe_every=1000, seed=0)
        assert est.observation_count == 12

    def test_burn_in_discards_transient_window(self):
        net = compile_sim(scalar_model(), [0.7])
        est = run(net, 10_000, observe_every=1000, seed=0, burn_in=2000)
        assert est.observation_count == 8

    def test_needs_at_least_one_observation(self):
        net = compile_sim(scalar_model(), [0.7])
        with pytest.raises(ValueError, match="no observation"):
            run(net, 500, observe_every=1000)

    def test_dead_network_raises(self):
        net = compile_sim(scalar_model(), [0.0])
        with pytest.raises(DeadNetworkError):
            run(net, 10_000)

    def test_matches_forward_on_chain(self):
        model = scalar_model(0.8, 0.9)
        net = compile_sim(model, [0.7])
        est = run(net, 1_000_000, seed=1)
        numeric = forward(model, [[0.7]])
        diffs = compare(est, numeric)
        assert [d.layer for d in diffs] == ["visual", "enc1", "dec1"]
        assert max(d.max_abs_diff for d in diffs) < 0.02

    def test_q_in_unit_interval(self):
        model = init_weights([4, 2], seed=3)
        net = compile_sim(model, [0.9, 0.8, 0.2, 0.6])
        est = run(net, 100_000, seed=5)
        assert est.q.min() >= 0.0
        assert est.q.max() < 1.0


class TestEnsembleAndCompare:
    def test_ensemble_pools_observations(self):
        net = SimNetwork([1], [], [0.5], ["visual"])
        est = run_ensemble(net, 100_000, seed=1, runs=4)
        assert est.observation_count == 400
        assert abs(est.q[0] - 0.5) <= 0.05

    def test_ensemble_differs_from_single_run(self):
        net = compile_sim(scalar_model(), [0.7])
        single = run(net, 50_000, seed=1)
        pooled = run_ensemble(net, 50_000, seed=1, runs=2)
        assert not np.array_equal(single.mean_potential, pooled.mean_potential)

    def test_compare_identity(self):
        model = scalar_model()
        numeric = forward(model, [[0.7]])
        est = QEstimate(
            np.array(
                [v / (1 - v) for v in (0.7, 0.56, 0.504)]
            ),
            1,
            [1, 1, 1],
            ["visual", "enc1", "dec1"],
        )
        diffs = compare(est, numeric)
        assert all(d.max_abs_diff < 1e-12 for d in diffs)

    def test_compare_arithmetic(self):
        numeric = forward(scalar_model(), [[0.7]])
        est = QEstimate(np.array([0.4 / 0.6, 0.56 / 0.44, 0.504 / 0.496]), 1, [1, 1, 1], ["visual", "enc1", "dec1"])
        diffs = compare(est, numeric)
        assert diffs[0].max_abs_diff == pytest.approx(0.3, abs=1e-12)

    def test_compare_shape_mismatch(self):
        est = QEstimate(np.zeros(3), 1, [1, 1, 1], ["visual", "enc1", "dec1"])
        other = forward(init_weights([2, 1], seed=0), [[0.5, 0.5]])
        with pytest.raises(ValueError, match="size"):
            compare(est, other)


class TestTrainedModelAgreement:
    def test_small_trained_autoencoder(self):
        rng = np.random.default_rng(4)
        basis = rng.random((3, 10)) * (rng.random((3, 10)) < 0.5)
        x = np.clip(rng.random((300, 3)) @ basis, 0.0, None)
        x /= x.max()
        model, _ = train(x, [10, 5], TrainConfig(batch_size=50, max_iterations=300, seed=0))
        net = compile_sim(model, x[0])
        est = run(net, 1_000_000, seed=0)
        diffs = compare(est, forward(model, x[0].reshape(1, -1)))
        assert max(d.max_abs_diff for d in diffs) < 0.03
