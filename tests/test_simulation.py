"""Spiking simulation: compilation, the layer-sweep engine and its
cross-check against the event-by-event reference, estimation."""

import tracemalloc

import numpy as np
import pytest

from oracles import gillespie_run, new_state, routing_lists, run_ensemble, step_event
from lrnn import (
    DeadNetworkError,
    LrnnModel,
    QEstimate,
    SimNetwork,
    compare,
    compile_sim,
    forward,
    init_weights,
    run,
    train,
    TrainConfig,
)
from lrnn import simulation
from lrnn.simulation import _departures


def scalar_model(w=0.8, wb=0.9):
    return LrnnModel([np.array([[w]])], [np.array([[wb]])])


class TestCompileSim:
    def test_leak_probabilities_by_hand(self):
        net = compile_sim(scalar_model(), [0.7])
        leak = [1.0 - (cum[-1] if cum else 0.0) for cum in routing_lists(net)[1]]
        np.testing.assert_allclose(leak, [0.2, 0.1, 1.0])
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

    def test_non_finite_arrival_rates_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="layer visual has NaN or infinite"):
                SimNetwork([], [0.5, bad], ["visual"])
            with pytest.raises(ValueError, match="layer visual has NaN or infinite"):
                compile_sim(scalar_model(), [bad])

    def test_non_finite_routing_weight_rejected(self):
        for bad in (np.nan, np.inf):
            w = np.array([[bad, 0.1]])
            with pytest.raises(ValueError, match=r"visual -> enc1\) has NaN or infinite"):
                SimNetwork([w], [0.5], ["visual", "enc1"])

    def test_sizes_read_off_the_chain(self):
        net = compile_sim(init_weights([6, 4, 3], seed=0), np.full(6, 0.5))
        assert net.layer_sizes == [6, 4, 3, 4, 6]
        assert net.layer_offsets == [0, 6, 10, 13, 17, 23]
        assert net.n_neurons == 23
        assert net.layer_names == ["visual", "enc1", "enc2", "dec1", "dec2"]

    def test_names_and_rows_checked_against_the_chain(self):
        w = np.array([[0.5]])
        for names in (["visual"], ["visual", "enc1", "x"]):
            with pytest.raises(ValueError, match="1 routing matrices need 2 layer names"):
                SimNetwork([w], [0.5], names)
        with pytest.raises(ValueError, match=r"matrix 1 \(enc1 -> dec1\) has 1 rows, expected 2"):
            SimNetwork([np.full((1, 2), 0.4), w], [0.5], ["visual", "enc1", "dec1"])
        with pytest.raises(ValueError, match="instance has 2 attributes but model expects 1"):
            compile_sim(scalar_model(), [0.5, 0.5])

    def test_routing_tables_compressed(self):
        w = np.array([[0.3, 0.0, 0.4]])
        wb = np.array([[0.2], [0.0], [0.5]])
        net = compile_sim(LrnnModel([w], [wb]), [1.0])
        route_targets, route_cum = routing_lists(net)
        assert route_targets[0] == [1, 3]  # zero-weight edge dropped
        np.testing.assert_allclose(route_cum[0], [0.3, 0.7])


class TestStepEvent:
    def test_only_possible_event_is_arrival(self):
        net = SimNetwork([], [1.0], ["visual"])
        state = step_event(net, new_state(net, seed=0))
        assert state.potentials == [1]
        assert state.arrival_count == 1 and state.firing_count == 0

    def test_pure_leak_firing(self):
        net = SimNetwork([], [1.0], ["visual"])
        state = new_state(net, seed=0)
        step_event(net, state)  # arrival, potential 1
        # drive until the neuron fires; leak is 1.0 so nothing propagates
        while state.firing_count == 0:
            step_event(net, state)
        assert state.potentials[0] == state.arrival_count - state.firing_count

    def test_dead_network(self):
        net = SimNetwork([], [0.0], ["visual"])
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
        net = SimNetwork([], [0.5], ["visual"])
        counts = {"arrival": 0, "fire": 0}
        state = new_state(net, seed=0)  # one stream of draws serves every trial
        for trial in range(100_000):
            state.potentials[0] = 1
            state.active[:] = [0]
            state.active_pos[0] = 0
            arrivals = state.arrival_count
            step_event(net, state)
            counts["arrival" if state.arrival_count > arrivals else "fire"] += 1
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


class TestDepartures:
    def test_lindley_by_hand(self):
        # d_k = max(a_k, d_{k-1}) + s_k: 0+2, max(1, 2)+1, max(5, 3)+1
        d = _departures(np.array([0.0, 1.0, 5.0]), np.array([0]), np.array([0.0]),
                        np.array([2.0, 1.0, 1.0]))
        np.testing.assert_allclose(d, [2.0, 3.0, 6.0], rtol=0, atol=1e-15)

    def test_queues_restart_at_each_group(self):
        # the second queue starts busy until 1.0 and must not inherit the
        # first queue's running maximum
        a = np.array([0.0, 1.0, 5.0, 0.5, 0.7])
        s = np.array([2.0, 1.0, 1.0, 1.0, 1.0])
        d = _departures(a, np.array([0, 3]), np.array([0.0, 1.0]), s)
        np.testing.assert_allclose(d, [2.0, 3.0, 6.0, 2.0, 3.0], rtol=0, atol=1e-15)

    def test_carried_across_slab_boundary(self):
        # arrivals 0, 1, 2.8 with services 2, 1, 1 leave at 2, 3, 4; split at
        # 2.5, the second slab sees the arrival at 0.3 and a queue busy until
        # 3 - 2.5 = 0.5
        first = _departures(np.array([0.0, 1.0]), np.array([0]), np.array([0.0]),
                            np.array([2.0, 1.0]))
        np.testing.assert_allclose(first, [2.0, 3.0], rtol=0, atol=1e-15)
        second = _departures(np.array([2.8 - 2.5]), np.array([0]), np.array([first[-1] - 2.5]),
                             np.array([1.0]))
        np.testing.assert_allclose(second + 2.5, [4.0], rtol=0, atol=1e-15)


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
        net = SimNetwork([], [0.5], ["visual"])
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

    def test_first_windows_by_hand(self, monkeypatch):
        # The first event is an external arrival.  A window closed by it saw
        # the empty network; a window from it to the next event saw exactly
        # one spike, waiting at the visual neuron.  Slabs of about one
        # arrival make that window span slab boundaries.
        net = compile_sim(scalar_model(), [0.7])
        for slab in (simulation._SLAB_EVENTS, 2):
            monkeypatch.setattr(simulation, "_SLAB_EVENTS", slab)
            for seed in range(5):
                est = run(net, 1, observe_every=1, seed=seed)
                np.testing.assert_array_equal(est.mean_potential, [0.0, 0.0, 0.0])
                est = run(net, 2, observe_every=1, burn_in=1, seed=seed)
                np.testing.assert_allclose(est.mean_potential, [1.0, 0.0, 0.0], rtol=1e-12, atol=0)

    def test_needs_at_least_one_observation(self):
        net = compile_sim(scalar_model(), [0.7])
        with pytest.raises(ValueError, match="no observation"):
            run(net, 500, observe_every=1000)

    def test_negative_burn_in_rejected(self):
        net = compile_sim(scalar_model(), [0.7])
        with pytest.raises(ValueError, match="burn_in"):
            run(net, 10_000, observe_every=1000, burn_in=-5)

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

    def test_overloaded_neuron_backlog_across_slabs(self):
        # arrivals at 2 against service at 1: the backlog grows without bound
        # and is carried through every slab; q approaches 1 from below
        net = SimNetwork([], [2.0], ["visual"])
        qs = [run(net, n, seed=0).q[0] for n in (10_000, 100_000, 400_000)]
        assert qs[0] < qs[1] < qs[2] < 1.0, qs
        assert 1.0 - qs[2] < 1e-4, qs

    def test_memory_bounded_in_event_budget(self):
        net = compile_sim(scalar_model(), [0.7])
        peaks = []
        for n in (100_000, 1_000_000):
            tracemalloc.start()
            try:
                run(net, n, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_q_in_unit_interval(self):
        model = init_weights([4, 2], seed=3)
        net = compile_sim(model, [0.9, 0.8, 0.2, 0.6])
        est = run(net, 100_000, seed=5)
        assert est.q.min() >= 0.0
        assert est.q.max() < 1.0


class TestEnsembleAndCompare:
    def test_ensemble_pools_observations(self):
        net = SimNetwork([], [0.5], ["visual"])
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


class TestGillespieCrossCheck:
    """The sweep against the event-by-event reference engine
    (tests/oracles.py): both simulate the same network with the same
    estimator, so each neuron's mean potential must agree within the
    across-seed standard errors."""

    @staticmethod
    def mean_and_se(simulate, seeds):
        k = np.array([simulate(seed).mean_potential for seed in seeds])
        return k.mean(axis=0), k.std(axis=0, ddof=1) / np.sqrt(len(seeds))

    @pytest.mark.parametrize(
        "net",
        [
            compile_sim(scalar_model(), [0.7]),
            compile_sim(init_weights([3, 2], seed=1), [0.5, 0.1, 0.3]),
        ],
        ids=["scalar_chain", "3-2-3"],
    )
    def test_mean_potentials_agree(self, net, monkeypatch):
        ref, ref_se = self.mean_and_se(
            lambda s: gillespie_run(net, 20_000, seed=s), range(1000, 1024)
        )
        # default slabs, and slabs so small that each run crosses dozens of
        # slab boundaries: where the slabs end must not change the law
        for slab in (simulation._SLAB_EVENTS, 1 << 9):
            monkeypatch.setattr(simulation, "_SLAB_EVENTS", slab)
            sweep, sweep_se = self.mean_and_se(lambda s: run(net, 20_000, seed=s), range(24))
            z = (sweep - ref) / np.hypot(sweep_se, ref_se)
            assert np.abs(z).max() < 4.0, (slab, sweep, ref, z)
