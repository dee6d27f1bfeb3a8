import itertools
import json
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import colored_partitions, is_admissible, row

from fstchar import fermionic
from fstchar.admissible import (
    KERNEL,
    character_oracle,
    degree_weight,
    energy,
    enumerate_configs,
    weight_degree_counts,
    weight_parts,
)
from fstchar.charseries import CharSeries
from fstchar.fermionic import NSequences, a_coefficient, character_fermionic
from fstchar.qseries import QSeries
from fstchar.recurrence import build_equation
from fstchar.specialize import (
    chi_fjmmt2_alternating,
    verify_spec2,
    verify_union_identity,
)


def weight_of(level, init_bounds):
    """The weight whose initial bounds are init_bounds clipped to the level.

    A bound above the level bounds nothing that the window sum
    a_0 + ... + a_l <= level does not bound already.
    """
    clipped = [min(b, level) for b in init_bounds]
    return tuple(b - a for a, b in zip([0] + clipped, clipped + [level]))


def as_call(case):
    """(l, weight, window) of a case given by its level and initial bounds;
    a case with init_prefix takes the weight (level, 0, ..., 0)."""
    window = dict(case)
    l, level = window.pop("l"), window.pop("level")
    bounds = window.pop("init_bounds", None)
    weight = (level,) + (0,) * l if bounds is None else weight_of(level, bounds)
    return l, weight, window


def stream(case):
    l, weight, window = as_call(case)
    return list(enumerate_configs(l, weight, **window))


def counts(case):
    l, weight, window = as_call(case)
    return weight_degree_counts(weight, **window)


def streamed_histogram(case):
    """Reference histogram: count the configurations that the walk streams."""
    out = {}
    for c in stream(case):
        d, n = degree_weight(c, case["l"])
        out[n + (d,)] = out.get(n + (d,), 0) + 1
    return out


class TestWeightParts:
    """The highest weight (k_0, ..., k_l) as `weight_parts` checks it."""

    def test_level(self):
        assert weight_parts([1, 0, 2], 2) == (1, 0, 2)
        assert weight_parts(range(4), 3) == (0, 1, 2, 3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="entries must be >= 0"):
            weight_parts((1, -1, 0), 2)

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError, match="level >= 1"):
            weight_parts((0, 0, 0), 2)

    @pytest.mark.parametrize("weight", [(1, 0), (1, 0, 0, 0)])
    def test_rejects_wrong_length(self, weight):
        with pytest.raises(ValueError, match="weight must have 3 entries for l=2"):
            weight_parts(weight, 2)

    @pytest.mark.parametrize("weight", [(1.5, 0, 0), (2.0, 0, 0), ("1", 0, 0)])
    def test_rejects_non_integers_without_rounding(self, weight):
        with pytest.raises(TypeError):
            weight_parts(weight, 2)

    def test_rejects_l_below_1(self):
        with pytest.raises(ValueError, match="need l >= 1"):
            weight_parts((1,), 0)

    def test_initial_bounds(self):
        # a_0 <= k_0 = 1 and a_0 + a_1 <= k_0 + k_1 = 3
        assert is_admissible((1,), 2, (1, 2, 3))
        assert is_admissible((1, 2), 2, (1, 2, 3))
        assert not is_admissible((2,), 2, (1, 2, 3))
        assert not is_admissible((1, 3), 2, (1, 2, 3))


BAD_WEIGHTS = {
    "negative-entry": (2, -1, 0),
    "level-0": (0, 0, 0),
    "too-short": (1, 1),
    "too-long": (1, 0, 0, 0),
    "entry-1.5": (1.5, 0, 0),
}

_N = NSequences((1,), (1,))  # the length of a level-1 weight

# every public function of the package that takes a weight, at l = 2
WEIGHT_CALLS = {
    "enumerate_configs": lambda w: enumerate_configs(2, w, q_order=4),
    "weight_degree_counts": lambda w: weight_degree_counts(w, 4, (2, 2)),
    "character_oracle": lambda w: character_oracle(w, 4, (2, 2)),
    "linear_term": lambda w: fermionic.linear_term(w, _N, 4),
    "a_coefficient": lambda w: a_coefficient(w, 1, 0, 4),
    "character_fermionic": lambda w: character_fermionic(w, 4, (2, 2)),
    "chi_fjmmt2_alternating": lambda w: chi_fjmmt2_alternating(w, 4),
    "verify_spec2": lambda w: verify_spec2(w, 4),
    "verify_union_identity": lambda w: verify_union_identity(w, 4),
    "build_equation": lambda w: build_equation(w, 2),
}


@pytest.mark.parametrize("weight", BAD_WEIGHTS.values(), ids=BAD_WEIGHTS)
@pytest.mark.parametrize("call", WEIGHT_CALLS.values(), ids=WEIGHT_CALLS)
def test_bad_weight_rejected_everywhere(call, weight):
    # the message names the weight or the integer type, so an error that
    # some later step happens to raise (such as a failed unpacking) fails
    with pytest.raises((ValueError, TypeError), match="weight|integer"):
        call(weight)


class TestIsAdmissible:
    def test_vacuum(self):
        assert is_admissible((), 2, (1, 0, 0))

    def test_level1_examples(self):
        assert is_admissible((1,), 2, (1, 0, 0))
        assert not is_admissible((1, 1), 2, (1, 0, 0))  # window sum 2 > 1

    def test_initial_condition_example(self):
        assert not is_admissible((1,), 2, (0, 2, 0))  # a_0 <= k_0 = 0 fails

    def test_window_beyond_initial_segment(self):
        assert not is_admissible((0, 0, 2, 0, 2), 2, (2, 0, 0))  # window sum 4


class TestDegreeWeight:
    def test_empty(self):
        assert degree_weight((), 2) == (0, (0, 0))

    def test_colors_alternate(self):
        assert degree_weight((1, 0, 1), 2) == (3, (2, 0))
        assert degree_weight((0, 1), 2) == (1, (0, 1))

    def test_general_l(self):
        # l=3: positions 0,1,2 are time -1; positions 3,4,5 are time -2
        assert degree_weight((1, 1, 1, 1), 3) == (1 + 1 + 1 + 2, (2, 1, 1))

    def test_energy(self):
        assert energy((1, 0, 2)) == 4
        assert energy(()) == 0


class TestEnumerate:
    def test_level1_weight_10(self):
        configs = [
            c
            for c in enumerate_configs(2, (1, 0, 0), q_order=3, caps=(1, 0))
            if c
        ]
        assert configs == [(1,), (0, 0, 1), (0, 0, 0, 0, 1)]
        assert [degree_weight(c, 2)[0] for c in configs] == [1, 2, 3]

    def test_q_order_zero(self):
        assert list(enumerate_configs(2, (1, 0, 0), q_order=0, caps=(5, 5))) == [()]

    def test_init_prefix_pinned(self):
        got = list(
            enumerate_configs(2, (2, 0, 0), q_order=2, init_prefix=(0, 0))
        )
        assert got == [(), (0, 0, 1), (0, 0, 0, 1)]

    def test_init_prefix_nonzero(self):
        for c in enumerate_configs(2, (2, 0, 0), q_order=6, init_prefix=(1, 1)):
            assert c[:2] == (1, 1)

    # a bad window raises at the call, before the stream yields anything

    def test_negative_prefix_rejected(self):
        with pytest.raises(ValueError):
            enumerate_configs(2, (2, 0, 0), q_order=6, init_prefix=(-1, 0))

    def test_init_prefix_needs_l_entries(self):
        for l, init_prefix in [(1, ()), (1, (0, 0)), (2, (0,)), (3, (0, 0)),
                               (3, (0, 0, 0, 0))]:
            with pytest.raises(ValueError, match=f"must have {l} entries"):
                enumerate_configs(l, (1,) + (0,) * l, q_order=2,
                                  init_prefix=init_prefix)

    # 2.0 and 1.5 are refused, not read as the ints they equal or round to
    @pytest.mark.parametrize("window", [
        dict(q_order=3, init_prefix=(2.0, 0.0)),
        dict(q_order=3, init_prefix=(1.0, 0)),
        dict(q_order=3.5),
        dict(q_order=3, caps=(1.5, 2)),
        dict(energy_max=4.0),
    ], ids=["prefix", "prefix-mixed", "q_order", "caps", "energy_max"])
    def test_non_integer_window_rejected_at_the_call(self, window):
        with pytest.raises(TypeError):
            enumerate_configs(2, (2, 0, 0), **window)

    def test_unbounded_window_rejected(self):
        with pytest.raises(ValueError):
            enumerate_configs(2, (1, 0, 0), caps=(2, 2))

    @pytest.mark.parametrize("window", [
        dict(q_order=3, caps=(2,)),
        dict(q_order=3, init_prefix=(0,)),
        dict(q_order=3, init_prefix=(0, 0, 0)),
    ])
    def test_bad_window_rejected_at_the_call(self, window):
        with pytest.raises(ValueError):
            enumerate_configs(2, (2, 0, 0), **window)

    def test_l_zero_rejected(self):
        with pytest.raises(ValueError, match="need l >= 1"):
            enumerate_configs(0, (1,), q_order=3)
        with pytest.raises(ValueError, match="need l >= 1"):
            weight_degree_counts((1,), q_order=3, caps=())

    def test_each_config_admissible_and_unique(self):
        seen = set()
        for c in enumerate_configs(2, (1, 1, 1), q_order=9, caps=(4, 4)):
            assert is_admissible(c, 2, (1, 1, 1))
            assert c not in seen
            seen.add(c)
            assert all(a <= 3 for a in c)  # per-entry bound from window sums

    def test_energy_window(self):
        for c in enumerate_configs(2, (2, 0, 0), energy_max=6, init_prefix=(1, 0)):
            assert energy(c) <= 6

    def test_negative_energy_max_is_empty(self):
        assert list(enumerate_configs(2, (1, 1, 0), energy_max=-1)) == []

    def test_negative_q_order_is_empty(self):
        assert list(
            enumerate_configs(2, (1, 0, 0), q_order=-1, caps=(2, 2))
        ) == []


class TestCharacterOracle:
    def test_vacuum_coefficient(self):
        ch = character_oracle((1, 0, 0), 6, (3, 3))
        assert ch.coeffs[(0, 0)] == row({0: 1}, 6)

    def test_negative_q_order_is_zero(self):
        # the closed formula gives the zero series on the same window
        for q_order in (-1, -3):
            ch = character_oracle((1, 0, 0), q_order, (2, 2))
            assert ch == CharSeries((2, 2), q_order, {})
            assert ch == character_fermionic((1, 0, 0), q_order, (2, 2))

    @pytest.mark.parametrize("count", [character_oracle, weight_degree_counts])
    def test_rank_is_read_off_the_caps(self, count):
        # three caps state rank 3, so a weight of rank 2 is refused by its arity
        with pytest.raises(ValueError, match="weight must have 4 entries for l=3"):
            count((1, 0, 0), 4, (2, 2, 2))

    def test_level1_coefficient(self):
        ch = character_oracle((1, 0, 0), 3, (3, 3))
        assert ch.coeffs[(1, 0)] == (0, 1, 1, 1)

    def test_six_weight_golden(self):
        golden = json.loads(
            (Path(__file__).parent / "data" / "char_l2_k2_low.json").read_text()
        )
        q_order = golden["q_order"]
        caps = tuple(golden["caps"])
        for key, entries in golden["weights"].items():
            weight = tuple(int(x) for x in key.split(","))
            ch = character_oracle(weight, q_order, caps)
            for nkey, expected in entries.items():
                n = tuple(int(x) for x in nkey.split(","))
                got = QSeries.from_row(ch.coeffs[n])
                assert got == QSeries.from_json(expected), (key, nkey)

    def test_monotone_truncation_consistency(self):
        small = character_oracle((1, 1, 0), 8, (3, 3))
        large = character_oracle((1, 1, 0), 14, (5, 5))
        for n, coeffs in small.coeffs.items():
            assert large.coeffs[n][:9] == coeffs

    def test_degree_reconciliation(self):
        # 2d - 2n_1 - n_2 equals the first moment for every configuration
        for c in enumerate_configs(2, (1, 1, 0), q_order=12, caps=(6, 6)):
            d, (n1, n2) = degree_weight(c, 2)
            assert 2 * d - 2 * n1 - n2 == energy(c)


class TestKernels:
    """The DP on the oracle's window: initial bounds, q_order and caps."""

    CASES = [
        dict(l=2, level=1, init_bounds=(1, 1), q_order=10, caps=(5, 5)),
        dict(l=2, level=2, init_bounds=(1, 2), q_order=9, caps=(9, 9)),
        dict(l=3, level=2, init_bounds=(0, 1, 2), q_order=8, caps=(4, 4, 4)),
        dict(l=1, level=3, init_bounds=(2,), q_order=8, caps=(8,)),
    ]

    BAD_CASES = [
        dict(l=2, level=2, init_bounds=(1, 2), q_order=6, caps=(3,)),
    ]

    def test_pure_counts_match_stream(self):
        for case in self.CASES:
            assert counts(case) == streamed_histogram(case), case
        for case in self.BAD_CASES:
            with pytest.raises(ValueError):
                counts(case)
            with pytest.raises(ValueError):
                stream(case)

    def test_edge_windows(self):
        # each result is also checked against the stream in the examples of
        # test_dp_matches_stream_on_random_windows
        assert weight_degree_counts((1, 1, 0), q_order=0,
                                    caps=(3, 3)) == {(0, 0, 0): 1}
        # (0, 0, 2) places 2 units at tf = 2 and lands exactly on q_order
        assert weight_degree_counts((0, 0, 2), q_order=4,
                                    caps=(4, 4))[2, 0, 4] == 1
        # a negative bound holds not even the vacuum
        assert weight_degree_counts((1, 0, 0), q_order=-1,
                                    caps=(2, 2)) == {}
        assert weight_degree_counts((1, 0, 0), q_order=3,
                                    caps=(2, -1)) == {}

    def test_colored_partitions_reference(self):
        assert [colored_partitions(1, d) for d in range(8)] == [
            1, 1, 2, 3, 5, 7, 11, 15]
        assert colored_partitions(1, 60) == 966467
        assert [colored_partitions(2, d) for d in range(6)] == [
            1, 2, 5, 10, 20, 36]

    @pytest.mark.parametrize("l, q_max", [(1, 60), (2, 30), (3, 16)])
    def test_slot_width_holds_the_largest_count(self, l, q_max):
        # with level and caps >= q_order only the degree binds, so the
        # histogram summed over n at degree d is p_l(d).  The slot width
        # comes from p_l(q_order), which overstates the largest count of
        # one (n, d) by 4 to 7 bits at q_max but by 1 to 3 bits at orders
        # below 12, so the small orders are where a narrow slot shows
        weight, caps = (q_max,) + (0,) * l, (q_max,) * l
        for q_order in (*range(12), q_max):
            hist = weight_degree_counts(weight, q_order, caps)
            by_degree = [0] * (q_order + 1)
            for key, count in hist.items():
                by_degree[key[-1]] += count
            assert by_degree == [colored_partitions(l, d)
                                 for d in range(q_order + 1)], q_order

    @pytest.mark.parametrize("l", [1, 2, 4])
    def test_caps_beyond_any_table(self, l):
        # n_2..n_l in mixed radix range over 10**(6 (l - 1)) values, so a
        # table indexed by them could not be built; and n_1 <= degree
        # <= q_order must clamp the degree list to 7 blocks of n_1, not
        # 10**6 + 1, or the DP stalls rather than fails
        case = dict(l=l, level=2, init_bounds=(1, 1, 2, 2)[:l], q_order=6,
                    caps=(10**6,) * l)
        assert counts(case) == streamed_histogram(case)

    def test_kernel_reports_kind(self):
        assert KERNEL == "pure"

    def test_counts_back_the_oracle(self):
        counts = weight_degree_counts((2, 0, 0), q_order=8, caps=(4, 4))
        ch = character_oracle((2, 0, 0), 8, (4, 4))
        total = sum(counts.values())
        assert total == sum(sum(coeffs) for coeffs in ch.coeffs.values())


@st.composite
def random_windows(draw):
    """An oracle window: initial bounds, q_order from -1 and caps."""
    l = draw(st.integers(1, 4))
    level = draw(st.integers(1, 4))
    parts = draw(st.lists(st.integers(0, level), min_size=l, max_size=l))
    acc, bounds = 0, []
    for p in parts:
        acc += p
        bounds.append(acc)
    return dict(
        l=l, level=level, init_bounds=tuple(bounds),
        q_order=draw(st.integers(-1, 9)),
        caps=tuple(draw(st.lists(st.integers(0, 6), min_size=l, max_size=l))),
    )


@settings(max_examples=120, deadline=None)
@given(random_windows())
@example(dict(l=2, level=2, init_bounds=(1, 2), q_order=0, caps=(3, 3)))
@example(dict(l=2, level=2, init_bounds=(0, 0), q_order=4, caps=(4, 4)))
@example(dict(l=3, level=2, init_bounds=(1, 2, 2), q_order=10,
              caps=(10, 10, 10)))
@example(dict(l=2, level=1, init_bounds=(1, 1), q_order=-1, caps=(2, 2)))
@example(dict(l=4, level=3, init_bounds=(1, 1, 2, 3), q_order=7,
              caps=(4, 3, 5, 2)))
# color 2 has radix 1, so colors 2 and 3 share one mixed-radix stride
@example(dict(l=3, level=3, init_bounds=(2, 2, 3), q_order=9,
              caps=(3, 0, 2)))
# the edges of the n_1 blocks: one block (cap_1 = 0), cap_1 + 1 blocks
# (cap_1 = q_order) and q_order + 1 blocks, clamped (cap_1 > q_order)
@example(dict(l=1, level=3, init_bounds=(2,), q_order=6, caps=(0,)))
@example(dict(l=1, level=3, init_bounds=(2,), q_order=6, caps=(6,)))
@example(dict(l=1, level=3, init_bounds=(2,), q_order=6, caps=(9,)))
@example(dict(l=2, level=3, init_bounds=(2, 3), q_order=6, caps=(0, 4)))
@example(dict(l=2, level=3, init_bounds=(2, 3), q_order=6, caps=(6, 4)))
@example(dict(l=2, level=3, init_bounds=(2, 3), q_order=6, caps=(9, 4)))
def test_dp_matches_stream_on_random_windows(kwargs):
    hist = counts(kwargs)
    # the degree lists carry zero counts; none may reach the histogram
    assert all(hist.values())
    assert hist == streamed_histogram(kwargs)


# -- the stream against brute force on every window shape ---------------------

REACH = 6  # no window below places a unit at a position >= REACH


@lru_cache(maxsize=None)
def short_configs(l, level):
    """Every tuple of entries <= level, no trailing zeros, length <= REACH,
    admissible for the weight (level, 0, ..., 0): its window sums are all
    <= level, which bounds its initial sums too."""
    weight = (level,) + (0,) * l
    out = []
    for t in itertools.product(range(level + 1), repeat=REACH):
        c = list(t)
        while c and c[-1] == 0:
            c.pop()
        if is_admissible(c, l, weight):
            out.append(tuple(c))
    return out


def brute_force(l, level, init_bounds=None, init_prefix=None, q_order=None,
                caps=None, energy_max=None):
    """The configurations of a window, filtered from `short_configs`."""
    reach = []  # one past the last position a unit can reach
    if q_order is not None:
        reach.append(l * q_order)  # a unit at t has degree t // l + 1
    if energy_max is not None:
        reach.append(energy_max + 1)  # and energy t
    assert max(min(reach), l if init_prefix else 0) <= REACH
    out = []
    for c in short_configs(l, level):
        if init_prefix is not None:
            if (c + (0,) * l)[:l] != tuple(init_prefix):
                continue
        elif any(sum(c[:r + 1]) > init_bounds[r] for r in range(l)):
            continue
        d, n = degree_weight(c, l)
        if q_order is not None and d > q_order:
            continue
        if energy_max is not None and energy(c) > energy_max:
            continue
        if caps is not None and any(x > cap for x, cap in zip(n, caps)):
            continue
        out.append(c)
    return out


def stream_windows():
    """Windows of all 12 shapes: {bounds, prefix} x {q, energy, both} x caps."""
    for l in (1, 2, 3, 4):
        q_top = REACH // l
        for level in (1, 2, 3):
            starts = [dict(init_bounds=(level,) * l),
                      dict(init_bounds=tuple(min(r, level) for r in range(l)))]
            # exact prefixes at every rank; (1, ..., 1) passes the level
            # at l > level
            prefixes = [(0,) * l, (1,) * l, (level,) + (0,) * (l - 1),
                        (0,) * (l - 1) + (level,)]
            starts += [dict(init_prefix=p) for p in dict.fromkeys(prefixes)]
            bounds = [dict(q_order=q) for q in (-1, 0, q_top)]
            bounds += [dict(energy_max=e) for e in (-1, 0, REACH - 1)]
            bounds += [dict(q_order=q_top, energy_max=3),
                       dict(q_order=-1, energy_max=3),
                       dict(q_order=q_top, energy_max=-1)]
            for start in starts:
                for bound in bounds:
                    for caps in (None, (1,) * l, tuple(range(l, 0, -1))):
                        yield dict(l=l, level=level, caps=caps, **start, **bound)


class TestStreamAgainstBruteForce:
    def test_every_window_shape(self):
        shapes = set()
        for case in stream_windows():
            got = stream(case)
            assert sorted(got) == sorted(brute_force(**case)), case
            shapes.add((
                "init_prefix" in case,
                case.get("q_order") is not None,
                case.get("energy_max") is not None,
                case["caps"] is not None,
            ))
        assert len(shapes) == 12
