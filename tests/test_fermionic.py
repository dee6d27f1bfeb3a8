import hashlib
import itertools
import math
import pickle
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import POLY_ORDER, nsequence_battery
from reference import N1, N2, shift

from fstchar import fermionic
from fstchar.admissible import character_oracle
from fstchar.charseries import CharSeries
from fstchar.fermionic import (
    NSequences,
    a_coefficient,
    character_fermionic,
    flip_first,
    flip_last,
    linear_term,
    n_sequence_pairs,
    pattern_le,
    patterns,
    pos,
)
from fstchar.qseries import QSeries, inv_pochhammer
from fstchar.recurrence import level_weights
from fstchar.reporting import CheckReport


def mono(e, q_order=POLY_ORDER):
    return QSeries({e: 1}, q_order)


def one(q_order=POLY_ORDER):
    return QSeries.one(q_order)


# the variant pattern sums are template generators, evaluated here as
# `linear_term` evaluates its own
ALT = fermionic._linear_term_alt_summands
STAR = fermionic._linear_term_star_summands
M_TERM = fermionic._m_term_summands
N_TERM = fermionic._n_term_summands


def pattern_sum(summands, w, N, q_order):
    return fermionic._evaluate(fermionic._plan(summands, w), N, q_order)


class TestPatternBasics:
    def test_le_reflexive(self):
        p = (1, 0, 1)
        assert pattern_le(p, p)

    def test_le_examples(self):
        assert pattern_le((1, 0), (0, 1))
        assert not pattern_le((0, 1), (1, 0))
        assert pattern_le((1, 0, 1), (0, 1, 1))

    def test_le_length_mismatch(self):
        with pytest.raises(ValueError):
            pattern_le((1,), (1, 0))

    def test_patterns_counts(self):
        assert len(patterns(5, 2)) == 10
        assert patterns(3, 0) == [(0, 0, 0)]
        assert patterns(3, 4) == []

    @pytest.mark.parametrize("k, ones", [(0, 0), (0, 1), (-1, 0)])
    def test_patterns_need_length(self, k, ones):
        with pytest.raises(ValueError, match="length k >= 1"):
            patterns(k, ones)

    def test_flip_last_one(self):
        assert flip_last(1, 1, (1, 0, 1)) == (1, 0, 0)

    def test_flip_first_two_zeros(self):
        assert flip_first(2, 0, (0, 1, 0, 0)) == (1, 1, 1, 0)

    def test_flip_zero_is_identity(self):
        p = (0, 1, 1)
        assert flip_first(0, 1, p) == p
        assert flip_last(0, 0, p) == p

    def test_flip_insufficient_raises(self):
        with pytest.raises(ValueError, match="fewer than 2 entries"):
            flip_first(2, 1, (1, 0))

    def test_flip_round_trip_on_suffix(self):
        p = (1, 0, 1, 1)
        assert flip_last(2, 0, flip_last(2, 1, p)) == p

    def test_bit_count_changes(self):
        p = (1, 0, 1, 1)
        assert sum(flip_last(2, 1, p)) == sum(p) - 2
        assert sum(flip_first(1, 0, p)) == sum(p) + 1

    def test_pos(self):
        assert pos(1, 1, (0, 1, 1)) == 2
        assert pos(0, 2, (0, 1, 0)) == 3
        with pytest.raises(ValueError, match="fewer than 3 entries"):
            pos(1, 3, (0, 1, 1))


class TestNSequences:
    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            NSequences((1, 2), (0, 0))
        with pytest.raises(ValueError):
            NSequences((2, 1), (1, 0))

    def test_phantoms(self):
        N = NSequences((3, 1), (2, 5))
        assert N1(N, 3) == 0 and N2(N, 0) == 0
        assert N1(N, 1) == 3 and N2(N, 2) == 5

    def test_immutable(self):
        # the derived slots; n1, n2 and any other name are VALUES cases
        N = NSequences((3, 1), (2, 5))
        for name in ("entries", "factors"):
            with pytest.raises(AttributeError):
                setattr(N, name, (0, 0))
            with pytest.raises(AttributeError):
                delattr(N, name)
        assert N.entries == (3, 1, 2, 5) and N.factors == (2, 1, 2, 3, 2, 5)

    def test_pickle_round_trip(self):
        # pickled by (n1, n2) alone, so unpickling builds the derived slots
        N = NSequences((3, 1), (2, 5))
        back = pickle.loads(pickle.dumps(N))
        assert (back.entries, back.factors) == (N.entries, N.factors)


# the frozen value types, by name: a value, an equal one built apart, an
# unequal one, the field names, the repr text and whether it is hashable
VALUES = {
    "QSeries": (
        QSeries({0: 1, 2: -3}, 5), QSeries({0: 1, 1: 0, 2: -3, 7: 4}, 5),
        QSeries({0: 1, 2: -3}, 6), ("coeffs", "trunc"),
        "QSeries(1 - 3*q^2; O(q^6))", False,
    ),
    "CharSeries": (
        CharSeries((2, 2), 3, {(1, 0): (1, 0, 2, 0)}),
        CharSeries([2, 2], 3, {(1, 0): [1, 0, 2, 0], (0, 0): [0, 0, 0, 0]}),
        CharSeries((2, 3), 3, {(1, 0): (1, 0, 2, 0)}), ("caps", "q_order", "coeffs"),
        "CharSeries(l=2, caps=(2, 2), q_order=3, 1 terms)", False,
    ),
    "NSequences": (
        NSequences([3, 1], [2, 5]), NSequences((3, 1), (2, 5)),
        NSequences((3, 1), (2, 6)), ("n1", "n2"),
        "NSequences(n1=(3, 1), n2=(2, 5))", True,
    ),
}


@pytest.mark.parametrize("name", VALUES)
class TestValueTypes:
    """The `Frozen` protocol: equality, hash, repr, immutability, pickling."""

    def test_equality_and_hash(self, name):
        value, same, other, fields, _, hashable = VALUES[name]
        assert value == same and value != other
        assert value != tuple(getattr(value, f) for f in fields)
        if hashable:
            assert hash(value) == hash(same)
            assert len({value, same, other}) == 2
        else:
            with pytest.raises(TypeError):
                hash(value)

    def test_repr(self, name):
        value, *_, text, _ = VALUES[name]
        assert repr(value) == text

    def test_immutable(self, name):
        value, same, _, fields, _, _ = VALUES[name]
        for attr in (*fields, "other"):
            with pytest.raises(AttributeError):
                setattr(value, attr, (0, 0))
            with pytest.raises(AttributeError):
                delattr(value, attr)
        assert value == same

    def test_pickle_round_trip(self, name):
        value, *_, hashable = VALUES[name]
        back = pickle.loads(pickle.dumps(value))
        assert back == value and repr(back) == repr(value)
        if hashable:
            assert hash(back) == hash(value)


def test_report_pickle_round_trip():
    # pool workers send their reports back pickled
    report = CheckReport("r[1]", {"q_order": 3})
    report.check({"n": [1, 0]}, QSeries({0: 1}, 3), QSeries({1: 1}, 3))
    report.check({"n": [0, 1]}, 2, 2)
    back = pickle.loads(pickle.dumps(report))
    assert not back.ok and back.checked == 2
    assert back.to_json() == report.to_json()
    assert back.render_text() == report.render_text()


class TestTerms:
    """Hand examples of l^axis_p and d^axis_p as `_evaluate` sums them."""

    N = NSequences((5, 2), (3, 7))
    ZERO = (0, 0)

    def term(self, p1, p2, axis, p_delta, N=None, edge=0):
        template = fermionic._summand(p1, p2, axis, p_delta, edge=edge)
        return fermionic._evaluate([template], N or self.N, POLY_ORDER)

    def test_l_term_all_zero_pattern(self):
        assert self.term(self.ZERO, self.ZERO, 1, self.ZERO) == one()

    def test_l_terms_by_hand(self):
        # l^1_{10} l^2_{01} = q^{N_{1,1} + N_{2,2}}
        assert self.term((1, 0), (0, 1), 1, self.ZERO) == mono(5 + 7)

    def test_delta_axis1_example(self):
        # fires on the 01 descent: 1 - q^{N_{1,1}-N_{1,2}}
        assert self.term(self.ZERO, self.ZERO, 1, (0, 1)) == one() - mono(3)

    def test_delta_axis2_default_boundary(self):
        assert self.term(self.ZERO, self.ZERO, 2, (0, 1)) == one()

    def test_delta_axis2_left_boundary_fires(self):
        # the edge bit stands in for p_0 on axis 2
        assert self.term(self.ZERO, self.ZERO, 2, (0, 1), edge=1) == (
            one() - mono(3))

    def test_delta_axis1_right_boundary_fires(self):
        # the edge bit stands in for p_{k+1} on axis 1
        assert self.term(self.ZERO, self.ZERO, 1, (1, 0), edge=1) == (
            one() - mono(2))

    def test_zero_gap_kills_factor(self):
        N = NSequences((4, 4), (0, 0))
        assert self.term(self.ZERO, self.ZERO, 1, (0, 1), N).is_zero()

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_axis2_bit_reads_its_own_entry(self, j):
        # six distinct entries, so a bit read at any other index shows; the
        # order is the exponent itself, so the term sits at the truncation edge
        N = NSequences((9, 6, 4), (1, 2, 7))
        zero = (0, 0, 0)
        p2 = tuple(int(i == j) for i in range(1, 4))
        template = fermionic._summand(zero, p2, 1, zero)
        q_order = N2(N, j)
        assert fermionic._evaluate([template], N, q_order) == mono(q_order, q_order)


LEVEL2_WEIGHTS = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


def expected_level2_linear_term(w, N, q_order):
    """The six worked closed forms, including the stated cancellation."""
    n11, n12 = N.n1
    n21, n22 = N.n2
    return {
        (2, 0, 0): QSeries.one(q_order),
        (1, 1, 0): mono(n12, q_order),
        (1, 0, 1): mono(n11 + n21, q_order)
        + mono(n12 + n22, q_order) * (one(q_order) - mono(n11 - n12, q_order)),
        (0, 2, 0): mono(n11 + n12, q_order),
        (0, 1, 1): mono(n11 + n12 + n21, q_order),
        (0, 0, 2): mono(n11 + n12 + n21 + n22, q_order),
    }[w]


class TestLinearTerm:
    @pytest.mark.parametrize("w", LEVEL2_WEIGHTS)
    def test_level2_closed_forms(self, w):
        for N in nsequence_battery(2):
            assert linear_term(w, N, POLY_ORDER) == expected_level2_linear_term(
                w, N, POLY_ORDER
            )

    def test_two_forms_agree(self):
        for k in range(1, 6):
            for N in nsequence_battery(k, count=5):
                for k0 in range(k + 1):
                    for k1 in range(k - k0 + 1):
                        w = (k0, k1, k - k0 - k1)
                        assert linear_term(w, N, POLY_ORDER) == pattern_sum(
                            ALT, w, N, POLY_ORDER), (w, N)

    def test_no_second_axis_block(self):
        # k_2 = 0 collapses to the single power q^{N_{1,k_0+1}+...+N_{1,k}}
        for k0 in range(4):
            k1 = 3 - k0
            for N in nsequence_battery(3, count=5):
                expected = mono(sum(N.n1[k0:]))
                assert pattern_sum(ALT, (k0, k1, 0), N, POLY_ORDER) == expected

    def test_no_first_entry(self):
        # k_0 = 0 collapses to q^{sum N_{1,*} + N_{2,1}+...+N_{2,k_2}}
        for k2 in range(4):
            k1 = 3 - k2
            for N in nsequence_battery(3, count=5):
                expected = mono(sum(N.n1) + sum(N.n2[:k2]))
                assert linear_term((0, k1, k2), N, POLY_ORDER) == expected


class TestStarAndFlippedSums:
    def test_four_term_difference(self):
        for k in range(3, 6):
            for N in nsequence_battery(k, count=5):
                for k0 in range(1, k - 1):
                    for k1 in range(1, k - k0):
                        k2 = k - k0 - k1
                        if k2 < 1:
                            continue
                        lhs = (
                            linear_term((k0, k1, k2), N, POLY_ORDER)
                            - linear_term((k0 - 1, k1 + 1, k2), N, POLY_ORDER)
                            - linear_term((k0, k1 - 1, k2 + 1), N, POLY_ORDER)
                            + linear_term((k0 - 1, k1, k2 + 1), N, POLY_ORDER)
                        )
                        assert lhs == pattern_sum(
                            STAR, (k0, k1, k2), N, POLY_ORDER), (k0, k1, k2, N)

    def test_star_all_zero_sequences_vanish(self):
        # the extra factor is 1 - q^0 = 0 for every summand
        N = NSequences((0, 0, 0), (0, 0, 0))
        assert pattern_sum(STAR, (1, 1, 1), N, POLY_ORDER).is_zero()

    def test_star_boundary_factor(self):
        # at k=3, w=(1,1,1): the pattern (1,1,0) has p_3 = 0 and picks up
        # (1 - q^{N_{1,3}}) from the bumped right boundary
        N = NSequences((6, 5, 3), (2, 4, 9))
        total = QSeries.zero(POLY_ORDER)
        for p in patterns(3, 2):
            factor = _product_delta_term(1, p, N, POLY_ORDER, edge=1)
            plain = _product_delta_term(1, p, N, POLY_ORDER)
            if p[-1] == 0:
                assert factor == plain * (one() - mono(N1(N, 3)))
            else:
                assert factor == plain
            total = total + factor
        assert not total.is_zero()

    def test_flipped_sums_agree(self):
        for k in range(3, 6):
            for N in nsequence_battery(k, count=5):
                for k0 in range(1, k - 1):
                    for k1 in range(1, k - k0):
                        k2 = k - k0 - k1
                        if k2 < 1:
                            continue
                        w = (k0, k1, k2)
                        assert pattern_sum(M_TERM, w, N, POLY_ORDER) == (
                            pattern_sum(N_TERM, w, N, POLY_ORDER)), w

    def test_flipped_sums_single_patterns_by_hand(self):
        # k=3, w=(1,1,1): expand both sums explicitly
        N = NSequences((4, 2, 1), (1, 3, 8))
        got_m = pattern_sum(M_TERM, (1, 1, 1), N, POLY_ORDER)
        expected = QSeries.zero(POLY_ORDER)
        for p in patterns(3, 2):
            term = _product_l_term(1, flip_first(1, 1, p), N, POLY_ORDER)
            term = term * _product_l_term(2, p, N, POLY_ORDER)
            term = term * _product_delta_term(2, p, N, POLY_ORDER, edge=1)
            expected = expected + term
        assert got_m == expected

    def test_degenerate_all_zero(self):
        N = NSequences((0, 0, 0), (0, 0, 0))
        m = pattern_sum(M_TERM, (1, 1, 1), N, POLY_ORDER)
        n = pattern_sum(N_TERM, (1, 1, 1), N, POLY_ORDER)
        assert m == n
        assert all(e == 0 for e in m.coeffs)


@lru_cache(maxsize=None)
def _monotone_rows(k, total):
    """Weakly decreasing k-tuples summing to total, filtered from all k-tuples."""
    return [
        t for t in itertools.product(range(total + 1), repeat=k)
        if sum(t) == total and all(t[i] >= t[i + 1] for i in range(k - 1))
    ]


def _all_pairs(k, n1, n2):
    """Every NSequences with the given row sums, whatever its quadratic form."""
    return [
        NSequences(f, tuple(reversed(s)))
        for f in _monotone_rows(k, n1) for s in _monotone_rows(k, n2)
    ]


def _base(N):
    return sum(a * a + b * b + a * b for a, b in zip(N.n1, N.n2))


def _a_coefficient_full_order(w, n1, n2, q_order):
    """The unpruned sum: every NSequences built, each product at full order."""
    k = sum(w)
    total = QSeries.zero(q_order)
    for N in _all_pairs(k, n1, n2):
        base = _base(N)
        if base > q_order:
            continue
        term = QSeries({base: 1}, q_order) * linear_term(w, N, q_order)
        for i in range(1, k + 1):
            term = term * inv_pochhammer(N1(N, i) - N1(N, i + 1), q_order)
            term = term * inv_pochhammer(N2(N, i) - N2(N, i - 1), q_order)
        total = total + term
    return total


class TestNSequencePairs:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 7), st.integers(0, 7),
           st.integers(-1, 40))
    def test_matches_filtered_enumeration(self, k, n1, n2, q_order):
        got = [(N.n1, N.n2) for N in n_sequence_pairs(k, n1, n2, q_order)]
        expected = [
            (N.n1, N.n2) for N in _all_pairs(k, n1, n2) if _base(N) <= q_order
        ]
        assert len(set(got)) == len(got)
        assert sorted(got) == sorted(expected)

    def test_window_edges(self):
        assert n_sequence_pairs(3, 0, 0, -1) == []
        assert n_sequence_pairs(3, 0, 0, 0) == [NSequences((0,) * 3, (0,) * 3)]
        # q_order above every form: all pairs, p_3(6)^2 = 7^2 of them
        assert len(n_sequence_pairs(3, 6, 6, 200)) == 49
        assert n_sequence_pairs(2, -1, 0, 10) == []

    def test_rejects_empty_sequences(self):
        with pytest.raises(ValueError):
            n_sequence_pairs(0, 0, 0, 5)


class TestACoefficient:
    def test_vacuum(self):
        for w in LEVEL2_WEIGHTS:
            assert a_coefficient(w, 0, 0, 8) == QSeries.one(8)

    def test_level1_explicit(self):
        expected = QSeries({1: 1}, 6) * inv_pochhammer(1, 6)
        assert a_coefficient((1, 0, 0), 1, 0, 6) == expected

    @pytest.mark.parametrize("w", LEVEL2_WEIGHTS)
    def test_level2_matches_oracle(self, w):
        oracle = character_oracle(w, 14, (6, 6))
        for n1 in range(7):
            for n2 in range(7):
                assert a_coefficient(w, n1, n2, 14) == QSeries.from_row(
                    oracle.coeffs.get((n1, n2), (0,) * 15)
                ), (w, n1, n2)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            a_coefficient((1, 0, 0), -1, 0, 5)

    @pytest.mark.parametrize("q_order", [-1, -3])
    def test_negative_order_is_kept(self, q_order):
        for n1, n2 in [(0, 0), (1, 0), (0, 2)]:
            assert a_coefficient((1, 1, 0), n1, n2, q_order) == QSeries.zero(q_order)

    @pytest.mark.parametrize("w, q_order", [
        ((1, 1, 1), 30), ((3, 0, 0), 30), ((0, 1, 2), 30),
        ((2, 1, 1), 28), ((0, 4, 0), 28), ((1, 0, 3), 28),
    ])
    def test_matches_unpruned_full_order_sum(self, w, q_order):
        for n1 in range(8):
            for n2 in range(8):
                assert a_coefficient(w, n1, n2, q_order) == (
                    _a_coefficient_full_order(w, n1, n2, q_order)
                ), (w, n1, n2)


def _grouped_terms(w, n1, n2, q_order):
    """The sparse dicts `a_coefficient` merges, by sorted nonzero-gap key."""
    k = sum(w)
    templates = fermionic._plan(fermionic._linear_term_summands, w)
    grouped = {}
    for N in n_sequence_pairs(k, n1, n2, q_order):
        key = tuple(sorted(g for g in N.factors[:2 * k] if g))
        fermionic._expand(templates, N.entries, N.factors, q_order, _base(N),
                          grouped.setdefault(key, {}))
    return grouped


class TestGroupedSum:
    """Summands grouped by denominator key against the unpruned product sum."""

    def test_merged_coefficient_two(self):
        # both summands of N = ((1, 0), (0, 1)) land on q^3: the slice-add
        # for a coefficient other than +-1 runs
        w, q_order = (1, 0, 1), 12
        assert _grouped_terms(w, 1, 1, q_order) == {(1, 1): {3: 2, 4: -1}}
        assert a_coefficient(w, 1, 1, q_order) == (
            _a_coefficient_full_order(w, 1, 1, q_order))

    @pytest.mark.parametrize("w, n1, n2", [
        ((1, 1, 1), 0, 0), ((1, 1, 1), 3, 0), ((1, 1, 1), 0, 3),
        ((2, 1, 1), 4, 4), ((0, 3, 0), 6, 3), ((2, 0, 1), 3, 3),
    ])
    def test_zero_gap_cells(self, w, n1, n2):
        q_order = 24
        grouped = _grouped_terms(w, n1, n2, q_order)
        # some N of the cell has a zero gap, so its key is shorter than 2k
        assert any(len(key) < 2 * sum(w) for key in grouped)
        assert a_coefficient(w, n1, n2, q_order) == (
            _a_coefficient_full_order(w, n1, n2, q_order))

    def test_empty_key_cell(self):
        # the only N of cell (0, 0) has no nonzero gap: its row is 1
        assert _grouped_terms((1, 1, 1), 0, 0, 6) == {(): {0: 1}}
        assert a_coefficient((1, 1, 1), 0, 0, 6) == QSeries.one(6)


# one a_coefficient call: a weight of level 1-4, a cell and a window, drawn
# from few cells and windows so that calls meet at one level, cell or window
coefficient_calls = st.tuples(
    st.integers(1, 4).flatmap(lambda level: st.sampled_from(_triples(level))),
    st.integers(0, 3), st.integers(0, 3), st.sampled_from([3, 8, 14]))


class TestSequenceTable:
    """The NSequences records that every weight of a level and window shares."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(coefficient_calls, min_size=1, max_size=8))
    # a table keyed by the level alone would hand the q_order-3 records of
    # cell (2, 2), which are none, to the q_order-14 call
    @example([((1, 1, 0), 2, 2, 3), ((0, 1, 1), 2, 2, 14)])
    # a table keyed by q_order alone would hand level-1 records to level 2
    # and back
    @example([((1, 0, 0), 1, 1, 8), ((2, 0, 0), 1, 1, 8), ((0, 0, 1), 1, 1, 8)])
    def test_interleaved_calls_match_cold_ones(self, calls):
        fermionic._sequence_table.cache_clear()
        warm = [a_coefficient(w, n1, n2, q) for w, n1, n2, q in calls]
        for (w, n1, n2, q_order), got in zip(calls, warm):
            fermionic._sequence_table.cache_clear()
            assert got == a_coefficient(w, n1, n2, q_order), (w, n1, n2, q_order)
            assert got == _a_coefficient_full_order(w, n1, n2, q_order)

    def test_one_walk_per_level_and_order(self, monkeypatch):
        # shared by every weight and cell of the level
        walk, walks = fermionic._walk_records, []

        def counted(k, caps, q_order):
            walks.append((k, caps, q_order))
            return walk(k, caps, q_order)

        def unused(*args):
            raise AssertionError("a_coefficient reads the table, not n_sequence_pairs")

        monkeypatch.setattr(fermionic, "_walk_records", counted)
        monkeypatch.setattr(fermionic, "n_sequence_pairs", unused)
        fermionic._sequence_table.cache_clear()
        for w in LEVEL2_WEIGHTS:
            for n1, n2 in [(2, 1), (0, 0), (9, 9)]:
                a_coefficient(w, n1, n2, 12)
        assert walks == [(2, (12, 12), 12)]
        a_coefficient((1, 1, 0), 2, 1, 10)
        assert walks[1:] == [(2, (10, 10), 10)]

    def test_one_table_is_kept(self):
        a_coefficient((1, 1, 0), 2, 1, 10)
        a_coefficient((1, 0, 1), 2, 1, 12)
        a_coefficient((2, 1, 0), 2, 1, 12)
        assert fermionic._sequence_table.cache_info().currsize <= 1

    def test_records_are_tuples_without_nsequences(self):
        cells = fermionic._sequence_table(3, 20)
        records = cells[(3, 2)]
        assert records and all(type(r) is tuple for r in records)
        assert not any(isinstance(x, NSequences) for r in records for x in r)
        # equal keys are one shared tuple
        shared = {}
        for cell in cells.values():
            for _, key, _, _ in cell:
                assert shared.setdefault(key, key) is key

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(-1, 30))
    @example(4, 30)
    @example(1, -1)
    def test_matches_filtered_enumeration(self, k, q_order):
        # a row sum s needs Q(N) >= s^2 / k, so larger cells hold nothing
        top = math.isqrt(k * max(q_order, 0))
        expected = {}
        for n1 in range(top + 1):
            for n2 in range(top + 1):
                records = sorted(
                    (_base(N), tuple(sorted(g for g in N.factors[:2 * k] if g)),
                     N.entries, N.factors)
                    for N in _all_pairs(k, n1, n2) if _base(N) <= q_order)
                if records:
                    expected[(n1, n2)] = records
        cells = fermionic._sequence_table(k, q_order)
        assert {cell: sorted(records) for cell, records in cells.items()} == expected


class TestCharacterFermionic:
    def test_requires_weight_triple(self):
        with pytest.raises(ValueError):
            character_fermionic((1, 0), 5, (2, 2))

    def test_requires_two_caps(self):
        with pytest.raises(ValueError):
            character_fermionic((1, 0, 0), 5, (2, 2, 2))

    def test_matches_oracle_level1(self):
        for w in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            assert character_fermionic(w, 12, (5, 5)) == character_oracle(
                w, 12, (5, 5)
            )


# -- the series-product forms, kept here as references ------------------------
#
# These are the QSeries product loops the closed formula used before it was
# evaluated on coefficient lists; the tests compare the dense code with them.


def _product_l_term(axis, p, N, q_order):
    seq = N.n1 if axis == 1 else N.n2
    return QSeries({sum(b * x for b, x in zip(p, seq)): 1}, q_order)


def _product_one_minus_q(exponent, q_order):
    return QSeries.one(q_order) - QSeries({exponent: 1}, q_order)


def _product_delta_term(axis, p, N, q_order, edge=0):
    """d^axis_p, with `edge` as p_{k+1} on axis 1 and as p_0 on axis 2."""
    k = len(p)
    out = QSeries.one(q_order)
    for i in range(1, k + 1):
        here = p[i - 1]
        if axis == 1:
            neighbor = p[i] if i < k else edge
            gap = N1(N, i) - N1(N, i + 1)
        else:
            neighbor = p[i - 2] if i >= 2 else edge
            gap = N2(N, i) - N2(N, i - 1)
        if here == 0 and neighbor == 1:
            out = out * _product_one_minus_q(gap, q_order)
    return out


def _product_linear_term(w, N, q_order):
    k0, k1, k2 = w
    total = QSeries.zero(q_order)
    for p in patterns(sum(w), k1 + k2):
        term = _product_l_term(1, p, N, q_order) * _product_delta_term(
            1, p, N, q_order)
        total = total + term * _product_l_term(2, flip_last(k1, 1, p), N, q_order)
    return total


def _product_linear_term_alt(w, N, q_order):
    k0, k1, k2 = w
    total = QSeries.zero(q_order)
    for p in patterns(sum(w), k2):
        term = _product_l_term(1, flip_last(k1, 0, p), N, q_order)
        term = term * _product_l_term(2, p, N, q_order)
        total = total + term * _product_delta_term(2, p, N, q_order)
    return total


def _product_linear_term_star(w, N, q_order):
    k0, k1, k2 = w
    total = QSeries.zero(q_order)
    for p in patterns(sum(w), k1 + k2):
        extra = _product_one_minus_q(N2(N, pos(1, k2 + 1, p)), q_order)
        term = _product_l_term(1, p, N, q_order) * _product_delta_term(
            1, p, N, q_order, edge=1)
        term = term * _product_l_term(2, flip_last(k1, 1, p), N, q_order)
        total = total + term * extra
    return total


def _product_m_term(w, N, q_order):
    k0, k1, k2 = w
    total = QSeries.zero(q_order)
    for p in patterns(sum(w), k0 + k2):
        term = _product_l_term(1, flip_first(k2, 1, p), N, q_order)
        term = term * _product_l_term(2, p, N, q_order)
        total = total + term * _product_delta_term(2, p, N, q_order, edge=1)
    return total


def _product_n_term(w, N, q_order):
    k0, k1, k2 = w
    total = QSeries.zero(q_order)
    for p in patterns(sum(w), k0):
        flipped = flip_first(k2, 0, p)
        extra = _product_one_minus_q(N2(N, pos(0, 1, flipped)), q_order)
        term = _product_l_term(1, p, N, q_order) * _product_delta_term(
            1, p, N, q_order)
        term = term * _product_l_term(2, flipped, N, q_order)
        total = total + term * extra
    return total


def _product_a_coefficient(w, n1, n2, q_order):
    """linear term times prod inv_pochhammer at order q - b, shifted by q^b."""
    k = sum(w)
    total = QSeries.zero(q_order)
    for N in n_sequence_pairs(k, n1, n2, q_order):
        base = _base(N)
        order = q_order - base
        term = _product_linear_term(w, N, order)
        if term.is_zero():
            continue
        for i in range(1, k + 1):
            term = term * inv_pochhammer(N1(N, i) - N1(N, i + 1), order)
            term = term * inv_pochhammer(N2(N, i) - N2(N, i - 1), order)
        total = total + shift(term, base)
    return total


def _triples(level):
    return [(k0, k1, level - k0 - k1)
            for k0 in range(level + 1) for k1 in range(level - k0 + 1)]


WEIGHTS_1_TO_4 = [w for level in range(1, 5) for w in _triples(level)]
POSITIVE_WEIGHTS = [w for w in WEIGHTS_1_TO_4 if min(w) >= 1]


@st.composite
def weight_and_sequences(draw, weights=WEIGHTS_1_TO_4, entry_max=6):
    """A weight and NSequences of its level; small entries make zero gaps common."""
    w = draw(st.sampled_from(weights))
    k = sum(w)
    rows = st.lists(st.integers(0, entry_max), min_size=k, max_size=k)
    n1 = tuple(sorted(draw(rows), reverse=True))
    n2 = tuple(sorted(draw(rows)))
    return w, NSequences(n1, n2)


# q_order: below every exponent, at zero, or anywhere up to past the largest
orders = st.one_of(st.sampled_from([-1, 0]), st.integers(-1, 70))


class TestAgainstSeriesProducts:
    ZERO_GAPS = ((1, 1, 1), NSequences((3, 3, 0), (0, 2, 2)))

    @settings(max_examples=300, deadline=None)
    @given(weight_and_sequences(), orders)
    @example(ZERO_GAPS, 40)
    @example(ZERO_GAPS, -1)
    def test_linear_term_and_alt(self, wN, q_order):
        w, N = wN
        assert linear_term(w, N, q_order) == _product_linear_term(w, N, q_order)
        assert pattern_sum(ALT, w, N, q_order) == _product_linear_term_alt(
            w, N, q_order)

    @settings(max_examples=200, deadline=None)
    @given(weight_and_sequences(POSITIVE_WEIGHTS), orders)
    @example(ZERO_GAPS, 40)
    def test_star_m_and_n_terms(self, wN, q_order):
        w, N = wN
        assert pattern_sum(STAR, w, N, q_order) == _product_linear_term_star(
            w, N, q_order)
        assert pattern_sum(M_TERM, w, N, q_order) == _product_m_term(w, N, q_order)
        assert pattern_sum(N_TERM, w, N, q_order) == _product_n_term(w, N, q_order)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(WEIGHTS_1_TO_4), st.integers(0, 6), st.integers(0, 6),
           orders)
    @example((1, 1, 1), 0, 0, 0)
    @example((1, 1, 1), 0, 0, -1)
    @example((2, 1, 1), 3, 3, 0)
    def test_a_coefficient(self, w, n1, n2, q_order):
        assert a_coefficient(w, n1, n2, q_order) == _product_a_coefficient(
            w, n1, n2, q_order)

    @settings(max_examples=100, deadline=None)
    @given(weight_and_sequences(entry_max=4), st.integers(0, 3))
    def test_a_coefficient_at_base_equal_to_order(self, wN, slack):
        """Order q_order - b is 0 (or a little more) for the N that sets it."""
        w, N = wN
        q_order = _base(N) + slack
        n1, n2 = sum(N.n1), sum(N.n2)
        assert a_coefficient(w, n1, n2, q_order) == _product_a_coefficient(
            w, n1, n2, q_order)


@lru_cache(maxsize=None)
def _patterns_of_length(k):
    """Any pattern of length k, read off the bits of one drawn integer.

    One draw per pattern, not one per bit, and one strategy per k: drawing
    dominates the time of the tests that use it.
    """
    return st.integers(0, (1 << k) - 1).map(
        lambda v: tuple(v >> i & 1 for i in range(k)))


@st.composite
def summand_args(draw, k):
    """p1, p2, axis, p_delta, extra and edge of one `_summand` of length k."""
    p1, p2, p_delta = (draw(_patterns_of_length(k)) for _ in range(3))
    axis = draw(st.sampled_from([1, 2]))
    extra = draw(st.one_of(st.none(), st.integers(1, k)))
    edge = draw(st.integers(0, 1))
    return p1, p2, axis, p_delta, extra, edge


@st.composite
def single_summands(draw):
    """N, then p1, p2, axis, p_delta, extra and edge of one `_summand` on it."""
    _, N = draw(weight_and_sequences())
    return (N, *draw(summand_args(N.k)))


@st.composite
def template_sides(draw):
    """N and two lists of `_summand` templates on it, drawn with repeats.

    Both lists draw from a pool of a few templates, so they often hold the
    same templates in another order.  Half the time the left list also
    gains a cancelling pair, t (1 - q^{N_{2,j}}) and t q^{N_{2,j}}, and the
    right list gains t, their sum, for a t of the pool with no `extra`
    factor and no one at N_{2,j}: both are `_summand` templates again.
    """
    N, *first = draw(single_summands())
    k = N.k
    pool = [fermionic._summand(*first)] + [
        fermionic._summand(*args)
        for args in draw(st.lists(summand_args(k), max_size=3))]
    lhs = draw(st.lists(st.sampled_from(pool), max_size=6))
    rhs = draw(st.lists(st.sampled_from(pool), max_size=6))
    if draw(st.booleans()):
        ones, slots = draw(st.sampled_from(pool))
        j = draw(st.integers(1, k))
        if k + j - 1 not in ones and max(slots, default=0) < 2 * k:
            lhs += [(ones, slots + (2 * k + j - 1,)),
                    (tuple(sorted(ones + (k + j - 1,))), slots)]
            rhs += [(ones, slots)]
    return N, lhs, rhs


def gap_polynomial(side, k):
    """The sum of the templates of `side` as packed gap polynomials, and the width."""
    width, entries, factors = fermionic._gap_vectors(k)
    total = {}
    for template in side:
        for x, c in fermionic._gap_polynomial(template, entries, factors).items():
            total[x] = total.get(x, 0) + c
    return {x: c for x, c in total.items() if c}, width


def at_gaps(side, N, q_order):
    """`side` through its gap polynomial, at the gaps of N."""
    poly, width = gap_polynomial(side, N.k)
    return fermionic._at_gaps(poly, N.factors[:2 * N.k], width, q_order)


def gap_vector_terms(template, k):
    """The terms of a template over unpacked gap vectors, expanded by subsets.

    Written from the definitions of N.entries and N.factors over the gaps
    g_s = N.factors[s], s < 2k, not from `_gap_vectors`.
    """
    def entry(i):  # N_{1,i+1} for i < k, N_{2,i-k+1} after
        span = range(i, k) if i < k else range(k, i + 1)
        return [int(s in span) for s in range(2 * k)]

    def factor(s):
        return [int(s == t) for t in range(2 * k)] if s < 2 * k else entry(s - k)

    ones, slots = template
    base = [sum(col) for col in zip([0] * (2 * k), *map(entry, ones))]
    terms = {}
    for r in range(len(slots) + 1):
        for chosen in itertools.combinations(slots, r):
            vec = tuple(sum(col) for col in zip(base, *map(factor, chosen)))
            terms[vec] = terms.get(vec, 0) + (-1) ** r
    return {vec: c for vec, c in terms.items() if c}


ZERO3 = (0, 0, 0)
ONES3 = (1, 1, 1)


class TestEvaluator:
    """One `_summand` template evaluated by `_evaluate` is its product form."""

    ZERO_GAPS = TestAgainstSeriesProducts.ZERO_GAPS[1]
    SPREAD = NSequences((9, 4, 1), (2, 3, 8))

    @settings(max_examples=300, deadline=None)
    @given(single_summands(), orders)
    @example((SPREAD, ZERO3, ZERO3, 1, ZERO3, None, 0), 40)
    @example((SPREAD, ZERO3, ZERO3, 2, ZERO3, 1, 0), 40)
    @example((SPREAD, ONES3, ZERO3, 1, ZERO3, None, 1), 40)
    @example((SPREAD, ZERO3, ONES3, 2, ZERO3, 3, 1), 40)
    @example((ZERO_GAPS, ONES3, ONES3, 2, ZERO3, 1, 1), 40)
    @example((SPREAD, ONES3, ONES3, 1, ZERO3, 2, 1), -1)
    def test_single_template(self, summand, q_order):
        N, p1, p2, axis, p_delta, extra, edge = summand
        template = fermionic._summand(p1, p2, axis, p_delta, extra, edge)
        expected = (
            _product_l_term(1, p1, N, q_order)
            * _product_l_term(2, p2, N, q_order)
            * _product_delta_term(axis, p_delta, N, q_order, edge)
        )
        if extra is not None:
            expected = expected * _product_one_minus_q(N2(N, extra), q_order)
        assert fermionic._evaluate([template], N, q_order) == expected


class TestPackedEvaluation:
    """Gap polynomials (`_gap_polynomial`) at N's gaps against `_evaluate`.

    A template's polynomial in x_s = q^{g_s}, its exponent vectors packed
    into ints by `_gap_vectors`, read at the gaps of N by `_at_gaps`.
    """

    ZERO_GAPS = TestAgainstSeriesProducts.ZERO_GAPS[1]
    SPREAD = TestEvaluator.SPREAD

    # drawing takes most of its time; every template the battery reads is
    # checked below at fixed instances instead
    @settings(max_examples=100, deadline=None)
    @given(template_sides(), orders)
    # q^{N_{1,1}} (1 - q^{N_{2,2}}) + q^{N_{1,1} + N_{2,2}} = q^{N_{1,1}}, with
    # a summand that a zero gap drops, then cut at order -1, then unequal
    @example((ZERO_GAPS, [((1,), (0,)), ((0,), (7,)), ((0, 4), ())], [((0,), ())]),
             40)
    @example((SPREAD, [((0,), (7,)), ((0, 4), ())], [((0,), ())]), -1)
    @example((SPREAD, [((0,), (5,))], [((0,), ())]), 40)
    def test_sides_agree_with_evaluate(self, sides, q_order):
        N, lhs, rhs = sides
        left, right = (gap_polynomial(side, N.k)[0] for side in (lhs, rhs))
        # equal polynomials agree at N; POLY_ORDER lies above every exponent
        # these small entries reach
        if left == right:
            assert fermionic._evaluate(lhs, N, POLY_ORDER) == fermionic._evaluate(
                rhs, N, POLY_ORDER)
        for side in (lhs, rhs):
            assert at_gaps(side, N, q_order) == fermionic._evaluate(side, N, q_order)

    @pytest.mark.parametrize("copies", [1, 2, 3, 4, 7, 8, 9, 255, 256])
    def test_side_at_the_bound(self, copies):
        # all of axis 2 at `ones`, the gap g_{2,1} fired and N_{2,1} as the
        # extra factor: x_{k} reaches k + 2, the largest coordinate the
        # width must hold, in a term of coefficient +1, repeated
        template = fermionic._summand(ZERO3, ONES3, 2, ZERO3, extra=1, edge=1)
        assert template == ((3, 4, 5), (3, 6))
        side = [template] * copies
        poly, width = gap_polynomial(side, 3)
        top = max(poly, key=lambda x: x >> width * 3 & (1 << width) - 1)
        assert top >> width * 3 & (1 << width) - 1 == 3 + 2
        assert poly[top] == copies
        for q_order in (40, 200):
            assert at_gaps(side, self.SPREAD, q_order) == fermionic._evaluate(
                side, self.SPREAD, q_order)

    @pytest.mark.parametrize("k", range(1, 5))
    def test_battery_templates_at_sampled_N(self, k):
        # every template the battery reads, at instances with zero gaps and
        # spread ones; from k = 3 on, the star and n terms read the `extra` slot
        templates = {t for _, _, lhs, rhs in fermionic._battery_sides(k)
                     for t in (*lhs, *rhs)}
        assert any(max(slots, default=0) >= 2 * k
                   for _, slots in templates) == (k >= 3)
        for N in nsequence_battery(k, count=3, seed=k):
            for template in templates:
                assert at_gaps([template], N, POLY_ORDER) == fermionic._evaluate(
                    [template], N, POLY_ORDER), (N, template)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_packed_vectors_are_the_gap_vectors(self, k):
        # the packed ints decode to the terms expanded over unpacked
        # vectors, and no coordinate passes k + 2, so no field carries
        width, entries, factors = fermionic._gap_vectors(k)
        mask = (1 << width) - 1
        assert k + 2 <= mask
        templates = {t for _, _, lhs, rhs in fermionic._battery_sides(k)
                     for t in (*lhs, *rhs)}
        for template in templates:
            expected = gap_vector_terms(template, k)
            assert max(map(max, expected)) <= k + 2
            packed = fermionic._gap_polynomial(template, entries, factors)
            assert {tuple(x >> width * s & mask for s in range(2 * k)): c
                    for x, c in packed.items()} == expected, template

    def test_battery_calls_neither_expand_nor_evaluate(self, monkeypatch):
        # the battery's polynomials share no evaluator with the closed
        # formula, on the passing path and on the path that reports
        def forbidden(*args):
            raise AssertionError("the battery evaluated a template on N")

        monkeypatch.setattr(fermionic, "_expand", forbidden)
        monkeypatch.setattr(fermionic, "_evaluate", forbidden)
        assert fermionic.identity_battery(3).ok
        fermionic._plan.cache_clear()
        monkeypatch.setattr(fermionic, "flip_last", flip_first)
        try:
            assert not fermionic.identity_battery(2).ok
        finally:
            fermionic._plan.cache_clear()


class TestBatterySides:
    """What the battery's template lists and truncation order promise."""

    @pytest.mark.parametrize("k", range(1, 6))
    def test_order_above_every_exponent(self, k):
        # the packed comparison truncates nothing, so it agrees with the
        # truncated series only under this bound
        q_order = fermionic._battery_order(k)
        templates = {t for _, _, lhs, rhs in fermionic._battery_sides(k)
                     for t in (*lhs, *rhs)}
        for N in fermionic.random_instances(k):
            for ones, slots in templates:
                top = (sum(N.entries[i] for i in ones)
                       + sum(N.factors[s] for s in slots))
                assert top <= q_order, (N, ones, slots)

    # sha256 of repr(_battery_sides(k)) when each comparable pair built its
    # own patterns and delta templates
    SIDES_SHA256 = {
        1: "1c8841da1a9cd4b6991ea6701f5957abb7ae422e3f76a2e44a4bb0b5b2b48001",
        2: "c7d3d69e3ccd636b6a576168c70ea0e73be5b3950c5cca9387be0026fa3a3da3",
        3: "132f824c9c98ab4d429adeb2532b5ac446883917807372d8b8613381ff229df9",
        4: "dca9ae0aad1ba56fd7436436934ffdbe35c550bf95940110e01df6657f0d5efa",
        5: "536eac1c025a978b438d10f48c581b13761595ea806166b9038d908d57386bf2",
    }

    @pytest.mark.parametrize("k", range(1, 6))
    def test_sides_equal_the_per_pair_construction(self, k):
        # the prefix-sum sides as each pair (p, p2) built them, then the
        # whole list, in check order, against its recorded digest
        zero = (0,) * k
        expected = []
        for i in range(k + 1):
            for p in patterns(k, i):
                expected += [
                    ("prefix-sum-expansion-axis1", {"p": p},
                     [fermionic._summand(p, zero, 1, zero)],
                     [fermionic._summand(p2, zero, 1, p2)
                      for p2 in patterns(k, i) if pattern_le(p2, p)]),
                    ("prefix-sum-expansion-axis2", {"p": p},
                     [fermionic._summand(zero, p, 2, zero)],
                     [fermionic._summand(zero, p2, 2, p2)
                      for p2 in patterns(k, i) if pattern_le(p, p2)])]
        sides = fermionic._battery_sides(k)
        assert sides[:len(expected)] == expected
        digest = hashlib.sha256(repr(sides).encode()).hexdigest()
        assert digest == self.SIDES_SHA256[k]

    @pytest.mark.parametrize("k", range(1, 6))
    def test_two_forms_repeat_the_axis_interchange(self, k):
        # `linear-term-two-forms` at w checks, template for template, what
        # `axis-interchange` checks at (i, j) = (k1, k2); dropping the copy
        # changes the reports' `checked` counts
        interchange = {(where["i"], where["j"]): (lhs, rhs)
                       for tag, where, lhs, rhs in fermionic._battery_sides(k)
                       if tag == "axis-interchange"}
        for w in level_weights(k, 2):
            lhs, rhs = interchange[w[1:]]
            assert list(fermionic._plan(fermionic._linear_term_summands, w)) == lhs
            assert list(fermionic._plan(ALT, w)) == rhs


class TestBatteryCanFail:
    """A broken pattern order, flip or summand shows up in the battery's report."""

    @pytest.fixture(autouse=True)
    def fresh_plans(self):
        # the pattern sums cache templates built with the patched functions
        fermionic._plan.cache_clear()
        yield
        fermionic._plan.cache_clear()

    def test_reversed_pattern_order(self, monkeypatch):
        monkeypatch.setattr(fermionic, "pattern_le", lambda p, p2: pattern_le(p2, p))
        report = fermionic.identity_battery(2)
        assert not report.ok
        first = report.violations[0]["where"]["identity"]
        assert first.startswith("prefix-sum-expansion-axis")

    def test_wrong_flip(self, monkeypatch):
        monkeypatch.setattr(fermionic, "flip_last", flip_first)
        report = fermionic.identity_battery(2)
        assert not report.ok
        # a violation shows both sides as series, however they were compared
        assert report.violations[0] == {
            "where": {"identity": "axis-interchange", "i": 1, "j": 0},
            "expected": "QSeries(q^18; O(q^197))",
            "actual": "QSeries(q^9; O(q^197))",
        }

    def test_wrong_linear_term_fails_both_checks_that_read_it(self, monkeypatch):
        # one linear-term template list feeds two identities: a bad one
        # must show in both
        original = fermionic._linear_term_summands

        def bumped(k0, k1, k2):
            yield from original(k0, k1, k2)
            if (k0, k1, k2) == (1, 1, 1):
                yield (), ()

        monkeypatch.setattr(fermionic, "_linear_term_summands", bumped)
        report = fermionic.identity_battery(3)
        tags = {v["where"]["identity"] for v in report.violations}
        assert {"linear-term-two-forms", "four-term-difference"} <= tags

    def test_star_without_its_last_summand(self, monkeypatch):
        original = fermionic._linear_term_star_summands
        monkeypatch.setattr(fermionic, "_linear_term_star_summands",
                            lambda *w: list(original(*w))[:-1])
        report = fermionic.identity_battery(3)
        tags = {v["where"]["identity"] for v in report.violations}
        assert "four-term-difference" in tags

    def test_m_term_without_left_boundary_bit(self, monkeypatch):
        def unbounded(k0, k1, k2):
            for p in patterns(k0 + k1 + k2, k0 + k2):
                yield fermionic._summand(flip_first(k2, 1, p), p, 2, p)

        monkeypatch.setattr(fermionic, "_m_term_summands", unbounded)
        report = fermionic.identity_battery(3)
        tags = {v["where"]["identity"] for v in report.violations}
        assert "flip-expansion-match" in tags
