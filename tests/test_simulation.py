"""Spiking simulation: compilation, the layer-sweep engine and its
cross-check against the event-by-event reference, estimation."""

import re
import tracemalloc

import numpy as np
import pytest

from oracles import (
    DeadNetworkError,
    gillespie_run,
    new_state,
    ordered_slab_accounting,
    routing_lists,
    run_ensemble,
    step_event,
)
from lrnn import (
    LrnnModel,
    QEstimate,
    SimNetwork,
    compare,
    compile_sim,
    feed_forward_spec,
    forward,
    init_weights,
    run,
    solve_steady_state,
    train,
    TrainConfig,
)
from lrnn import simulation
from lrnn.simulation import _departures


def test_leak_pre_test_equals_a_full_search():
    """A spike leaks when its needle reaches its row's last key: the same
    decision, and the same targets, as searching every needle."""
    rows = np.array([
        [0.0, 0.0, 0.0, 0.0],  # a zero row: every spike leaks
        [0.25, 0.25, 0.25, 0.25],  # sums to exactly 1
        [0.0, 0.5, 0.0, 0.3],  # zero weights among nonzero ones
        [0.1, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.6],
    ])
    w = np.tile(rows, (20, 1))  # shifts 2j up to 198
    keys, tails = simulation._route_keys(w)
    rng = np.random.default_rng(12)
    j = rng.integers(0, w.shape[0], 100_000)
    u = rng.random(j.size)
    u[:8] = [0.0, 0.25, 0.5, 0.75, 0.8, 0.1, 0.6, 1.0 - 2.0**-53]  # on the keys, and the top
    routed, k = simulation._route(keys, tails, j, u)
    full = np.searchsorted(keys, 2.0 * j + u, side="right") - j * w.shape[1]
    np.testing.assert_array_equal(routed, full < w.shape[1])
    np.testing.assert_array_equal(k, full[routed])
    assert not routed[j % 5 == 0].any()
    assert (w[j[routed], k] > 0.0).all()  # a zero weight is never drawn


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
        for w, fault in (([0.7, 0.7], "a row sum above 1"), ([np.nan, 0.1], "NaN or infinite")):
            bad = LrnnModel([np.array([w])], [np.array([[0.5], [0.5]])])
            message = f"routing matrix 0 (visual -> enc1) has {fault}"
            with pytest.raises(ValueError, match=re.escape(message)):
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

    def test_row_sum_above_one_refused(self):
        w = np.array([[0.7, 0.6]])
        with pytest.raises(ValueError, match=r"visual -> enc1\) has a row sum above 1"):
            SimNetwork([w], [0.5], ["visual", "enc1"])

    def test_layer_without_neurons(self):
        net = SimNetwork([np.zeros((0, 2))], [], ["v", "h"])
        assert net.layer_sizes == [0, 2] and net.n_neurons == 2

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
    def test_all_zero_observations(self):
        est = QEstimate(np.zeros(3), 5, [3], ["visual"])
        np.testing.assert_array_equal(est.q, np.zeros(3))

    def test_isolated_neuron_occupancy_oracle(self):
        # M/M/1 with arrival 0.5 and service 1: busy probability is 0.5
        net = SimNetwork([], [0.5], ["visual"])
        est = run(net, 1_000_000, observe_every=1000, seed=0)
        assert est.observation_count == 1000
        assert abs(est.q[0] - 0.5) <= 0.02

    def test_subnormal_total_arrival_rate_refused(self):
        """A slab of arrivals at a total rate of 5e-309 would outlast the largest float."""
        net = SimNetwork([], np.array([5e-309]), ["v"])
        with pytest.raises(ValueError, match=re.escape("total arrival rate 5e-309 is too small")):
            run(net, 10_000, observe_every=1000)

    def test_deterministic(self):
        net = compile_sim(scalar_model(), [0.7])
        e1 = run(net, 50_000, seed=3)
        e2 = run(net, 50_000, seed=3)
        np.testing.assert_array_equal(e1.q, e2.q)
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
        # The first event is an external arrival, so a window closed by it
        # saw no firing.  The next event is an arrival or the visual neuron
        # firing, so over the window between them enc1 and dec1 never fire.
        # Slabs of about one arrival make that window span slab boundaries.
        net = compile_sim(scalar_model(), [0.7])
        for slab in (simulation._SLAB_EVENTS, 2):
            monkeypatch.setattr(simulation, "_SLAB_EVENTS", slab)
            for seed in range(5):
                est = run(net, 1, observe_every=1, seed=seed)
                np.testing.assert_array_equal(est.q, [0.0, 0.0, 0.0])
                est = run(net, 2, observe_every=1, burn_in=1, seed=seed)
                np.testing.assert_array_equal(est.q[1:], [0.0, 0.0])

    def test_needs_at_least_one_observation(self):
        net = compile_sim(scalar_model(), [0.7])
        with pytest.raises(ValueError, match="no observation"):
            run(net, 500, observe_every=1000)

    def test_negative_burn_in_rejected(self):
        net = compile_sim(scalar_model(), [0.7])
        with pytest.raises(ValueError, match="burn_in"):
            run(net, 10_000, observe_every=1000, burn_in=-5)

    @pytest.mark.parametrize("name, value, least", [
        ("n_events", 5000.0, 1), ("n_events", 1e6, 1), ("observe_every", 2.5, 1),
        ("observe_every", 0, 1), ("burn_in", 10.5, 0),
    ])
    def test_counts_that_are_not_integers_refused(self, name, value, least):
        net = compile_sim(scalar_model(), [0.7])
        message = f"{name} must be an integer >= {least}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run(net, **{"n_events": 5000, name: value})

    def test_network_with_no_arrivals_is_never_excited(self):
        # q = lambda+ / (r + lambda-) is exactly 0 without excitatory input
        model = init_weights([6, 4, 3], seed=0)
        row = np.zeros(6)
        est = run(compile_sim(model, row), 10_000, seed=3)
        assert est.observation_count == 0
        assert est.layer_sizes == [6, 4, 3, 4, 6]
        np.testing.assert_array_equal(est.q, np.zeros(23))
        numeric = forward(model, row.reshape(1, -1))
        for layer in [numeric.q_hat, *numeric.q_enc, *numeric.q_dec]:
            np.testing.assert_array_equal(layer, 0.0)
        np.testing.assert_array_equal(solve_steady_state(feed_forward_spec(model, row)), 0.0)
        with pytest.raises(ValueError, match="no observation"):  # the count checks come first
            run(compile_sim(model, row), 500, observe_every=1000)

    @pytest.mark.parametrize("slab, layouts", [
        (simulation._SLAB_EVENTS, [(200_000, 0, 1000), (200_000, 70_000, 9_000),
                                   (100_000, 99_000, 1000), (65_536, 0, 65_536)]),
        (512, [(20_000, 0, 100), (20_000, 5_000, 700), (20_000, 19_990, 3), (3_333, 0, 3_333)]),
        (2, [(2_000, 0, 10), (2_000, 601, 70), (2_000, 1_999, 1), (777, 0, 777)]),
    ])
    def test_whole_slabs_counted_as_ordered_ones(self, monkeypatch, slab, layouts):
        """run sorts no slab: cutting the span by time changes no bit of q from a cut by rank."""
        monkeypatch.setattr(simulation, "_SLAB_EVENTS", slab)
        sweep = simulation._sweep_slab
        slabs = []

        def recording(net, end, *args):
            times, fired = sweep(net, end, *args)
            slabs.append((end, [t.copy() for t in times], [j.copy() for j in fired]))
            return times, fired

        monkeypatch.setattr(simulation, "_sweep_slab", recording)
        net = compile_sim(init_weights([5, 3, 2], seed=2), [0.9, 0.1, 0.6, 0.0, 0.4])
        # The sweep draws the same events whatever the layout, so a first run
        # gives the slab ends; one layout then cuts exactly at two of them.
        n_events = layouts[0][0]
        run(net, n_events, observe_every=n_events, seed=7)
        ends = np.cumsum([sum(t.size for t in times) for _, times, _ in slabs])
        burn_in, last_close = int(ends[ends.size // 4]), int(ends[ends <= n_events][-1])
        assert (n_events - burn_in) // (last_close - burn_in) == 1
        for n_events, burn_in, observe_every in [*layouts,
                                                 (n_events, burn_in, last_close - burn_in)]:
            slabs.clear()
            est = run(net, n_events, observe_every=observe_every, seed=7, burn_in=burn_in)
            q, observations = ordered_slab_accounting(
                slabs, net.layer_sizes, n_events, observe_every, burn_in)
            assert est.q.tobytes() == q.tobytes()
            assert est.observation_count == observations

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
        # and is carried through every slab, so the neuron fires at rate 1;
        # over 400k events one Poisson standard deviation is about 0.003
        net = SimNetwork([], [2.0], ["visual"])
        q = run(net, 400_000, seed=0).q[0]
        assert abs(q - 1.0) < 0.01, q

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
        assert not np.array_equal(single.q, pooled.q)

    def test_compare_identity(self):
        model = scalar_model()
        numeric = forward(model, [[0.7]])
        est = QEstimate(np.array([0.7, 0.56, 0.504]), 1, [1, 1, 1], ["visual", "enc1", "dec1"])
        diffs = compare(est, numeric)
        assert all(d.max_abs_diff < 1e-12 for d in diffs)

    def test_compare_arithmetic(self):
        numeric = forward(scalar_model(), [[0.7]])
        est = QEstimate(np.array([0.4, 0.56, 0.504]), 1, [1, 1, 1], ["visual", "enc1", "dec1"])
        diffs = compare(est, numeric)
        assert diffs[0].max_abs_diff == pytest.approx(0.3, abs=1e-12)

    def test_compare_layer_count_mismatch(self):
        est = QEstimate(np.zeros(3), 1, [1, 1, 1], ["visual", "enc1", "dec1"])
        other = forward(init_weights([1, 1, 1], seed=0), [[0.5]])
        with pytest.raises(ValueError, match="3 simulated layers vs 5 numeric layers"):
            compare(est, other)

    def test_compare_needs_one_instance(self):
        est = QEstimate(np.zeros(3), 1, [1, 1, 1], ["visual", "enc1", "dec1"])
        two = forward(scalar_model(), [[0.7], [0.5]])
        with pytest.raises(ValueError, match="numeric activations must hold exactly one instance"):
            compare(est, two)

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
    estimator, so each neuron's q must agree within the across-seed
    standard errors."""

    @staticmethod
    def mean_and_se(samples):
        samples = np.asarray(samples)
        return samples.mean(axis=0), samples.std(axis=0, ddof=1) / np.sqrt(len(samples))

    @pytest.mark.parametrize("burn_in", [0, 2000])
    @pytest.mark.parametrize(
        "net",
        [
            compile_sim(scalar_model(), [0.7]),
            compile_sim(init_weights([3, 2], seed=1), [0.5, 0.1, 0.3]),
        ],
        ids=["scalar_chain", "3-2-3"],
    )
    def test_q_agrees(self, net, burn_in, monkeypatch):
        runs = [gillespie_run(net, 20_000, seed=s, burn_in=burn_in) for s in range(1000, 1024)]
        ref, ref_se = self.mean_and_se([est.q for est, _ in runs])
        # The product form's occupancy relation q = k / (1 + k), which the
        # library's estimate does not rely on, holds on the reference's own
        # runs: the two agree run by run within the paired standard error.
        gap, gap_se = self.mean_and_se([k / (1.0 + k) - est.q for est, k in runs])
        assert np.abs(gap / gap_se).max() < 4.0, (gap, gap_se)
        # default slabs, and slabs so small that each run crosses dozens of
        # slab boundaries, so that with a burn-in the span opens mid-run:
        # where the slabs end must not change the law
        for slab in (simulation._SLAB_EVENTS, 1 << 9):
            monkeypatch.setattr(simulation, "_SLAB_EVENTS", slab)
            sweep, sweep_se = self.mean_and_se(
                [run(net, 20_000, seed=s, burn_in=burn_in).q for s in range(24)]
            )
            z = (sweep - ref) / np.hypot(sweep_se, ref_se)
            assert np.abs(z).max() < 4.0, (slab, sweep, ref, z)
