"""The pair update on both sides of the Gram/factored switch (B >= V / B < V).

Minibatches with fewer rows than columns take the factored form
A^T (A M) of the update rules; the other tests of the rules use B >= V.
``_pair_step`` runs over the live visible units only (a nonzero W row or
WB column), so the switch there sees B against the live count.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lrnn import (
    LrnnModel,
    clamp_unit,
    init_weights,
    project_rows,
    rescale_saturation,
    update_decode,
    update_encode,
)
from lrnn import training
from lrnn.model import ROW_SUM_SLACK
from lrnn.training import EPS_FLOOR, _LivePair, _pair_step

from oracles import scalar_update_decode, scalar_update_encode


def assert_matches_oracles(model, m, a, rtol=1e-12):
    w = model.encode_weights[m - 1]
    wb = model.decode_weights[model.depth - m]
    np.testing.assert_allclose(
        update_encode(model, m, a), scalar_update_encode(a, w, wb, EPS_FLOOR), rtol=rtol
    )
    np.testing.assert_allclose(
        update_decode(model, m, a), scalar_update_decode(a, w, wb, EPS_FLOOR), rtol=rtol
    )


class TestFactoredRules:
    def test_matches_scalar_oracle_shallow(self):
        rng = np.random.default_rng(31)
        a = rng.random((3, 6))
        model = LrnnModel([rng.random((6, 2)) * 0.3], [rng.random((2, 6)) * 0.3])
        assert_matches_oracles(model, 1, a)

    def test_matches_scalar_oracle_deep_layer(self):
        rng = np.random.default_rng(37)
        model = init_weights([7, 6, 2], seed=37)
        a = rng.random((3, 6))  # activations of encode layer 1
        assert_matches_oracles(model, 2, a)

    def test_zero_entries_locked(self):
        rng = np.random.default_rng(41)
        w = rng.random((6, 2))
        w[4, 1] = 0.0
        wb = rng.random((2, 6))
        wb[1, 3] = 0.0
        model = LrnnModel([w], [wb])
        a = rng.random((3, 6))
        assert update_encode(model, 1, a)[4, 1] == 0.0
        assert update_decode(model, 1, a)[1, 3] == 0.0

    def test_fixed_point_identity_weights(self):
        a = np.random.default_rng(43).random((3, 6)) + 0.05
        model = LrnnModel([np.eye(6)], [np.eye(6)])
        np.testing.assert_allclose(update_encode(model, 1, a), np.eye(6), rtol=1e-12)
        np.testing.assert_allclose(update_decode(model, 1, a), np.eye(6), rtol=1e-12)

    def test_eps_floor_rescues_zero_denominators(self):
        # A zero column of a zeroes a row of the encode denominator, a zero
        # column of WB a column of the decode denominator.
        rng = np.random.default_rng(47)
        a = rng.random((2, 5))
        a[:, 1] = 0.0
        w = rng.random((5, 2)) * 0.3
        wb = rng.random((2, 5)) * 0.3
        wb[:, 3] = 0.0
        model = LrnnModel([w], [wb])
        new_w, new_wb = update_encode(model, 1, a), update_decode(model, 1, a)
        assert np.isfinite(new_w).all() and np.isfinite(new_wb).all()
        assert not new_w[1].any() and not new_wb[:, 3].any()
        assert_matches_oracles(model, 1, a)


def public_pair_step(a, w, wb):
    """The pair update as the public calls make it, in ``_pair_step``'s order."""
    model = LrnnModel([w], [wb])
    w = rescale_saturation(project_rows(update_encode(model, 1, a)), a)
    model.encode_weights[0] = w
    wb = project_rows(update_decode(model, 1, a))
    h = clamp_unit(a @ w)
    return w, rescale_saturation(wb, h), h


class TestPairStep:
    def check_against_public_sequence(self, batch, v_dim, h_dim):
        rng = np.random.default_rng(batch * 1000 + v_dim)
        model = init_weights([v_dim, h_dim], seed=v_dim)
        w, wb = model.encode_weights[0], model.decode_weights[0]
        ref_w, ref_wb = w, wb
        for _ in range(3):
            a = rng.random((batch, v_dim)) * (rng.random((batch, v_dim)) < 0.5)
            w, wb, h, _ = _pair_step(a, w, wb)
            ref_w, ref_wb, ref_h = public_pair_step(a, ref_w, ref_wb)
            for got, want in ((w, ref_w), (wb, ref_wb), (h, ref_h)):
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    def test_factored_side_equals_public_sequence(self):
        self.check_against_public_sequence(batch=20, v_dim=50, h_dim=10)

    def test_gram_side_equals_public_sequence(self):
        self.check_against_public_sequence(batch=60, v_dim=12, h_dim=5)

    @pytest.mark.parametrize(
        "batch, v_dim, h_dim, dead",
        [
            (20, 50, 10, [0, 17, 49]),  # factored: B < live count
            (60, 12, 5, [3]),  # Gram: B >= V
            (20, 30, 6, list(range(0, 30, 2))),  # factored for V, Gram for the live units
        ],
    )
    def test_dead_units_equal_public_sequence(self, batch, v_dim, h_dim, dead):
        rng = np.random.default_rng(batch * 1000 + v_dim + 7)
        model = init_weights([v_dim, h_dim], seed=v_dim + 1)
        w, wb = model.encode_weights[0], model.decode_weights[0]
        w[dead] = 0.0
        wb[:, dead] = 0.0
        ref_w, ref_wb = w, wb
        for _ in range(3):
            a = rng.random((batch, v_dim)) * (rng.random((batch, v_dim)) < 0.5)
            w, wb, h, q = _pair_step(a, w, wb)
            ref_w, ref_wb, ref_h = public_pair_step(a, ref_w, ref_wb)
            for got, want in ((w, ref_w), (wb, ref_wb), (h, ref_h)):
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
                np.testing.assert_array_equal(got == 0.0, want == 0.0)
            np.testing.assert_allclose(q, clamp_unit(h @ wb), rtol=1e-12, atol=0)
            assert not w[dead].any() and not wb[:, dead].any()

    def test_live_set_shrinks_to_the_surviving_units(self):
        rng = np.random.default_rng(59)
        model = init_weights([8, 3], seed=59)
        pair = _LivePair(model.encode_weights[0], model.decode_weights[0])
        assert pair.live is None  # every unit live: the weights as given
        a = rng.random((5, 8))
        a[:, [1, 6]] = 0.0  # zero throughout the batch: both units die
        pair.step(pair.gather(a))
        np.testing.assert_array_equal(pair.live, [0, 2, 3, 4, 5, 7])
        assert pair.w.shape == (6, 3) and pair.wb.shape == (3, 6)
        assert pair.w.all() and pair.wb.all()
        a[:, 1] = 1.0  # the dead unit's pixel lights up again
        pair.step(pair.gather(a))
        np.testing.assert_array_equal(pair.live, [0, 2, 3, 4, 5, 7])
        w, wb = pair.weights()
        assert not w[[1, 6]].any() and not wb[:, [1, 6]].any()

    def test_factored_side_forms_no_gram_matrix(self):
        # (B, V, H) = (100, 784, 100): a V x V float64 Gram matrix alone is
        # V * V * 8 bytes, more than the whole factored step needs.
        batch, v_dim, h_dim = 100, 784, 100
        a = np.random.default_rng(53).random((batch, v_dim))
        model = init_weights([v_dim, h_dim], seed=53)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _pair_step(a, model.encode_weights[0], model.decode_weights[0])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < v_dim * v_dim * 8


unit_entries = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def pair_cases(draw):
    """A feasible (a, w, wb) with B < V or B >= V, zero rows and columns,
    dead visible units (a zero W row and the matching zero WB column) and
    entries exactly 0 or 1."""
    v_dim = draw(st.integers(2, 7))
    h_dim = draw(st.integers(1, 5))
    if draw(st.booleans()):
        batch = draw(st.integers(1, v_dim - 1))
    else:
        batch = draw(st.integers(v_dim, v_dim + 5))
    a = draw(arrays(np.float64, (batch, v_dim), elements=unit_entries))
    w = draw(arrays(np.float64, (v_dim, h_dim), elements=unit_entries))
    wb = draw(arrays(np.float64, (h_dim, v_dim), elements=unit_entries))
    a[draw(st.integers(0, batch - 1))] = 0.0
    a[:, draw(st.integers(0, v_dim - 1))] = 0.0
    w[:, draw(st.integers(0, h_dim - 1))] *= draw(st.sampled_from([0.0, 1.0]))
    wb[:, draw(st.integers(0, v_dim - 1))] = 0.0
    dead = draw(st.lists(st.integers(0, v_dim - 1), max_size=v_dim))
    w[dead] = 0.0
    wb[:, dead] = 0.0
    return a, project_rows(w), project_rows(wb)


@given(pair_cases())
@settings(max_examples=60, deadline=None)
def test_pair_step_keeps_constraints(case):
    a, w0, wb0 = case
    w, wb, h, _ = _pair_step(a, w0, wb0)
    for weights in (w, wb):
        assert np.isfinite(weights).all()
        assert weights.min() >= 0.0
        assert (weights.sum(axis=1) <= 1.0 + ROW_SUM_SLACK).all()
    # every unit's peak batch pre-activation sits on or below saturation
    assert ((a @ w).max(axis=0) <= 1.0 + ROW_SUM_SLACK).all()
    assert ((h @ wb).max(axis=0) <= 1.0 + ROW_SUM_SLACK).all()
    np.testing.assert_allclose(h, clamp_unit(a @ w), rtol=1e-12, atol=0)
    # a dead visible unit stays dead
    dead = ~(w0.any(axis=1) | wb0.any(axis=0))
    assert not w[dead].any() and not wb[:, dead].any()


def saturating_case(v_dim, h_dim):
    """Ones for inputs and weights (rows projected) and one dead visible unit."""
    a = np.ones((3, v_dim + 1))
    a[0, 0] = 0.5
    w, wb = project_rows(np.ones((v_dim + 1, h_dim))), project_rows(np.ones((h_dim, v_dim + 1)))
    w[v_dim] = 0.0
    wb[:, v_dim] = 0.0
    return a, w, wb


ENCODE_SATURATES, DECODE_SATURATES = saturating_case(3, 2), saturating_case(2, 4)


def public_peaks(a, w, wb):
    """Each rescale's peak batch pre-activation, as the public sequence meets it."""
    model = LrnnModel([w], [wb])
    w = project_rows(update_encode(model, 1, a))
    encode_peak = (a @ w).max()
    model.encode_weights[0] = rescale_saturation(w, a)
    wb = project_rows(update_decode(model, 1, a))
    return encode_peak, (clamp_unit(a @ model.encode_weights[0]) @ wb).max()


def test_examples_saturate():
    assert public_peaks(*ENCODE_SATURATES)[0] > 1.0
    assert public_peaks(*DECODE_SATURATES)[1] > 1.0


@given(pair_cases())
@example(ENCODE_SATURATES)
@example(DECODE_SATURATES)
@settings(max_examples=100, deadline=None)
def test_step_outputs_need_no_clamp(case):
    """The rescales leave h and the decode output at or below 1 exactly,
    so the step clamps neither."""
    _, _, h, q = _pair_step(*case)
    assert h.max() <= 1.0 and q.max() <= 1.0


#: Peaks above 1 only in the last row, after 62 whole groups of 16 rows.
_TAIL_PEAK = np.vstack([np.full((1003, 16), 0.5), np.linspace(1.0, 2.0, 16)])


@st.composite
def peak_blocks(draw):
    """Pre-activations: B of 0, 1 or up to 1100 rows, H of 1 to 300 units,
    entries exactly 0 and 1 among values below 2, at times a column slice
    that is not contiguous."""
    b = draw(st.one_of(st.sampled_from([0, 1]), st.integers(256, 1100), st.integers(0, 1100)))
    h = draw(st.one_of(st.integers(1, 64), st.integers(1, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pre = rng.random((b, 2 * h)) * 2.0
    pre[rng.random(pre.shape) < 0.2] = 0.0
    pre[rng.random(pre.shape) < 0.2] = 1.0
    return pre[:, ::2] if draw(st.booleans()) else pre[:, :h].copy()


@given(peak_blocks())
@example(_TAIL_PEAK)
@example(_TAIL_PEAK[:, 1::2])
@settings(max_examples=80, deadline=None)
def test_saturation_scale_is_the_column_peak(pre):
    """Regrouped or not, the peaks have the bits of one max over each column."""
    want = pre.max(axis=0, initial=1.0)
    assert training._saturation_scale(pre).tobytes() == want.tobytes()


def objective(a, w, wb):
    r = a - (a @ w) @ wb
    return float(np.sum(r * r))


#: An objective of exactly 0, which the encode rule leaves at 3.08e-31 by rounding.
_EXACT_FIT = (
    np.vstack([np.zeros(6), np.tile([0.0, 1, 1, 1, 1, 1], (5, 1))]),
    np.tile([0.0, 1.0], (6, 1)),
    np.tile([0.0, 0.2, 0.2, 0.2, 0.2, 0.2], (2, 1)),
)


@given(pair_cases())
@example(_EXACT_FIT)
@settings(max_examples=100, deadline=None)
def test_each_rule_alone_descends(case):
    """With the other weights fixed, neither rule raises ||A - A W WB||²_F:
    Lee and Seung's auxiliary-function argument, on both forms of each rule.
    The bound allows rounding: relative, and eps² ||A||²_F V absolute, for
    an objective of 0."""
    a, w, wb = case
    model = LrnnModel([w], [wb])
    eps = np.finfo(np.float64).eps
    bound = objective(a, w, wb) * (1.0 + 1e-9) + eps**2 * float(np.sum(a * a)) * a.shape[1]
    assert objective(a, update_encode(model, 1, a), wb) <= bound
    assert objective(a, w, update_decode(model, 1, a)) <= bound


def full_pair_update(a, w, wb):
    """The pair update with every rescale taken whole: each product and its peak."""
    gram = training._gram(a)
    w = training._encode_rule(a, w, wb, gram)
    w = w / training._row_scale(w)
    h = a @ w
    scale = training._saturation_scale(h)
    w, h = w / scale, h / scale
    wb = training._decode_rule(a, w, wb, gram, h)
    wb = wb / training._row_scale(wb)
    q = h @ wb
    scale = training._saturation_scale(q)
    return w, wb / scale, h, q / scale


_BOUND = 1.0 - 4 * 2 * EPS_FLOOR  # the column-sum bound of an H = 2 decode layer


@pytest.mark.parametrize(
    "decoded, idle, fires",
    [
        ([[0.25, 0.125], [0.25, 0.5]], True, False),  # column sums well below the bound
        ([[_BOUND - 0.5, 0.5], [0.5, _BOUND - 0.5]], False, False),  # exactly at it
        ([[0.9, 0.1], [0.9, 0.1]], False, True),  # 1.8: the rescale fires
    ],
    ids=["below", "at the bound", "above 1"],
)
def test_skipped_decode_product_changes_no_bit(monkeypatch, decoded, idle, fires):
    """The update gives the full step's bits; the decode product, and with
    it the decode output, is skipped only below the bound."""
    decoded = np.array(decoded)
    assert (decoded.sum(axis=0) < _BOUND).all() == idle
    monkeypatch.setattr(training, "_decode_rule", lambda a, w, wb, gram, pre=None: decoded.copy())
    a = np.random.default_rng(67).random((5, 2)) + 0.5
    model = init_weights([2, 2], seed=67)
    w, wb = model.encode_weights[0], model.decode_weights[0]
    want = full_pair_update(a, w, wb)
    assert (want[1].tobytes() != decoded.tobytes()) == fires
    got = training._pair_update(a, w.copy(), wb.copy(), None)
    for g, x in zip(got[:3], want[:3]):
        assert g.tobytes() == x.tobytes()
    assert (got[3] is None) == idle
    if not idle:
        assert got[3].tobytes() == want[3].tobytes()
