import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import char_sum, dilate, row, scale_by_monomial, shift

from fstchar.admissible import character_oracle
from fstchar.charseries import CharSeries, specialize
from fstchar.qseries import QSeries
from fstchar.recurrence import level_weights
from fstchar.specialize import spec2

SPEC1 = ((-2, "z"), (-1, "z"))
SPEC2 = ((-2, "one"), (-1, "one"))


def constant_one(caps=(4, 4), q_order=10):
    return CharSeries(caps, q_order, {(0, 0): row({0: 1}, q_order)})


class TestWindowInvariants:
    def test_rejects_vectors_outside_caps(self):
        with pytest.raises(ValueError):
            CharSeries((2, 2), 5, {(3, 0): row({0: 1}, 5)})
        with pytest.raises(ValueError):
            CharSeries((2, 2), 5, {(-1, 0): row({0: 1}, 5)})

    @pytest.mark.parametrize("length", [0, 5, 7])
    def test_rejects_rows_of_the_wrong_length(self, length):
        # a short row would leave coefficients unknown, a long one holds
        # coefficients beyond the truncation order
        with pytest.raises(ValueError, match="has length"):
            CharSeries((2, 2), 5, {(1, 0): [1] * length})

    def test_stores_rows_as_tuples(self):
        c = CharSeries((2, 2), 3, {(1, 0): [0, 1, 0, 2]})
        assert c.coeffs == {(1, 0): (0, 1, 0, 2)}

    def test_drops_zero_series(self):
        c = CharSeries((2, 2), 5, {(1, 1): (0,) * 6})
        assert c.coeffs == {}

    def test_window_mismatch_raises(self):
        with pytest.raises(ValueError):
            char_sum(constant_one(), constant_one(q_order=9))

    def test_json_round_trip(self):
        c = character_oracle((1, 1, 0), 8, (3, 3))
        assert CharSeries.from_json(c.to_json()) == c

    @pytest.mark.parametrize("exponent", [-1, 9])
    def test_from_json_rejects_exponents_outside_the_row(self, exponent):
        # a row has no slot for them; row[-1] would land in the top slot
        obj = character_oracle((1, 1, 0), 8, (3, 3)).to_json()
        obj["terms"][0][1]["terms"].append([exponent, "1"])
        with pytest.raises(ValueError, match="outside 0..8"):
            CharSeries.from_json(obj)

    def test_from_json_rejects_a_series_trusted_below_q_order(self):
        obj = character_oracle((1, 1, 0), 8, (3, 3)).to_json()
        obj["terms"][0][1]["trunc"] = 7
        with pytest.raises(ValueError, match="trusted only to 7"):
            CharSeries.from_json(obj)

    def test_from_json_rejects_a_repeated_exponent_vector(self):
        # a dict would keep only the last row given for the vector
        obj = character_oracle((1, 1, 0), 8, (3, 3)).to_json()
        obj["terms"].append(obj["terms"][0])
        with pytest.raises(ValueError, match="vector is given twice"):
            CharSeries.from_json(obj)

    def test_from_json_rejects_a_repeated_exponent(self):
        # the row would keep only the last coefficient given for it
        obj = character_oracle((1, 1, 0), 8, (3, 3)).to_json()
        terms = obj["terms"][0][1]["terms"]
        terms.append([terms[0][0], "7"])
        with pytest.raises(ValueError, match="given twice"):
            CharSeries.from_json(obj)

    @pytest.mark.parametrize("rank", [1, 3])
    def test_from_json_rejects_a_rank_other_than_the_caps(self, rank):
        # the rank is len(caps); the file states it once more as "l"
        obj = character_oracle((1, 1, 0), 8, (3, 3)).to_json()
        obj["l"] = rank
        with pytest.raises(ValueError, match="disagrees with caps"):
            CharSeries.from_json(obj)


# the process pool returns both value types by pickling, through __reduce__
@pytest.mark.parametrize("value", [
    CharSeries((3,), 5, {(1,): row({0: 1, 2: -3}, 5)}),
    character_oracle((1, 1, 0), 8, (3, 3)),
    CharSeries((2, 2, 2), 5, {(0, 1, 0): row({0: 1}, 5),
                              (2, 2, 2): row({5: 4}, 5)}),
    QSeries({-3: 2, 0: 1, 4: -1}, 6),
], ids=["rank-1", "rank-2", "rank-3", "qseries-negative-exponent"])
def test_pickle_round_trip(value):
    assert pickle.loads(pickle.dumps(value)) == value


class TestOperations:
    """The reference operations of `reference`, which the equation below uses."""

    def test_scale_constant_by_z1q_squared(self):
        scaled = scale_by_monomial(constant_one(), 2, (2, 0))
        assert scaled.coeffs == {(2, 0): row({2: 1}, 10)}

    def test_sub_self_is_zero(self):
        c = character_oracle((2, 0, 0), 8, (3, 3))
        assert char_sum(c, c, -1).coeffs == {}

    def test_dilate_constant(self):
        assert dilate(constant_one()) == constant_one()

    def test_dilate_single_term(self):
        c = CharSeries((2, 2), 10, {(1, 1): row({0: 1}, 10)})
        assert dilate(c).coeffs == {(1, 1): row({2: 1}, 10)}

    def test_dilate_matches_weighted_oracle(self):
        c = character_oracle((1, 0, 0), 10, (4, 4))
        dilated = dilate(c)
        for n, coeffs in c.coeffs.items():
            expected = shift(QSeries.from_row(coeffs), sum(n)).truncate(10)
            assert QSeries.from_row(dilated.coeffs.get(n, (0,) * 11)) == expected

    def test_first_level2_equation_from_oracle(self):
        # lhs chi(2,0,0) - chi(1,1,0) equals (z1 q)^2 chi(0,2,0)(z1 q, z2 q)
        caps, q_order = (6, 6), 14
        c200 = character_oracle((2, 0, 0), q_order, caps)
        c110 = character_oracle((1, 1, 0), q_order, caps)
        c020 = character_oracle((0, 2, 0), q_order, caps)
        lhs = char_sum(c200, c110, -1)
        rhs = scale_by_monomial(dilate(c020), 2, (2, 0))
        assert lhs == rhs


def _minimal_shift(offsets, caps, z_vars, one_vars, z_total):
    """Most negative achievable sum n_i*offset_i within the cap window."""
    shift = 0
    for i in one_vars:
        shift += min(0, offsets[i] * caps[i])
    remaining = z_total
    for i in sorted(z_vars, key=lambda i: offsets[i]):
        take = min(remaining, caps[i])
        shift += take * offsets[i]
        remaining -= take
    return shift


def generic_specialize(char, q_scale, spec_vars):
    """Reference: q -> q^{q_scale}, z_i -> q^{offset_i} * target_i.

    A general map of which spec_1 and spec_2 are two fixed cases: any
    offsets, any mix of "z" (merging into one surviving z) and "one"
    targets, any q_scale.
    """
    offsets = [off for off, _ in spec_vars]
    z_vars = [i for i, (_, t) in enumerate(spec_vars) if t == "z"]
    one_vars = [i for i, (_, t) in enumerate(spec_vars) if t == "one"]
    buckets = {}
    for n, coeffs in char.coeffs.items():
        z_exp = sum(n[i] for i in z_vars)
        moved = sum(n[i] * offsets[i] for i in range(len(char.caps)))
        bucket = buckets.setdefault(z_exp, {})
        for e, c in enumerate(coeffs):
            out_e = q_scale * e + moved
            bucket[out_e] = bucket.get(out_e, 0) + c

    def valid_order(z_exp):
        return q_scale * char.q_order + _minimal_shift(
            offsets, char.caps, z_vars, one_vars, z_exp
        )

    if z_vars:
        max_exp = sum(char.caps[i] for i in z_vars)
        return {
            z: QSeries(buckets.get(z, {}), valid_order(z))
            for z in range(max_exp + 1)
        }
    return QSeries(buckets.get(0, {}), valid_order(0))


class TestSpecialize:
    def test_spec1_of_q_z1(self):
        c = CharSeries((2, 2), 8, {(1, 0): row({1: 1}, 8)})
        out = specialize(c)
        assert isinstance(out, dict)
        assert out[1].coeffs == {0: 1}  # q^{2*1 - 2} = 1 at z^1

    def test_spec2_of_q_z2(self):
        c = CharSeries((2, 2), 8, {(0, 1): row({1: 1}, 8)})
        out = spec2(c)
        assert isinstance(out, QSeries)
        assert out.coeffs == {1: 1}  # q^{2*1 - 1}

    def test_rejects_other_variable_counts(self):
        for c in (CharSeries((3,), 5, {(1,): row({0: 1}, 5)}),
                  CharSeries((2, 2, 2), 5, {(0, 1, 0): row({0: 1}, 5)})):
            for spec in (specialize, spec2):
                with pytest.raises(ValueError):
                    spec(c)

    def test_valid_orders_track_offsets(self):
        c = constant_one(caps=(3, 3), q_order=10)
        graded = specialize(c)
        # z^n coefficients are trusted to 2Q - 2n while n fits one variable
        assert graded[0].trunc == 20
        assert graded[2].trunc == 16
        scalar = spec2(c)
        assert scalar.trunc == 20 - 2 * 3 - 3


@pytest.mark.parametrize("weight", level_weights(2, 2))
def test_specialize_is_exact_to_its_stated_orders(weight):
    # cells beyond caps (1, 1), such as (2, 0), feed z^2 at q^0: every
    # returned z^n must agree with a window that holds all of its cells
    narrow = specialize(character_oracle(weight, 10, (1, 1)))
    wide = specialize(character_oracle(weight, 20, (6, 6)))
    for n, series in narrow.items():
        assert series == wide[n].truncate(series.trunc)
    assert list(narrow) == [0, 1]


def char_strategy():
    """Random two-variable CharSeries: caps 0..4, q_order -1..10."""

    @st.composite
    def build(draw):
        caps = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
        q_order = draw(st.integers(-1, 10))
        vectors = st.tuples(st.integers(0, caps[0]), st.integers(0, caps[1]))
        rows = st.lists(st.integers(-5, 5), min_size=q_order + 1,
                        max_size=q_order + 1)
        return CharSeries(caps, q_order,
                          draw(st.dictionaries(vectors, rows, max_size=8)))

    return build()


@settings(max_examples=100, deadline=None)
@given(char_strategy())
@example(CharSeries((0, 4), 5, {(0, 4): (1, 0, 0, 0, 0, -2)}))
@example(CharSeries((4, 0), 5, {(4, 0): (0, 3, 0, 0, 0, 0)}))
def test_specialize_matches_generic_map(c):
    # spec_1 is returned only for the z^n whose cells all lie within the caps
    reference = generic_specialize(c, 2, SPEC1)
    assert specialize(c) == {n: reference[n] for n in range(min(c.caps) + 1)}
    assert spec2(c) == generic_specialize(c, 2, SPEC2)


coeff_strategy = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.lists(st.integers(-5, 5), min_size=9, max_size=9),
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(coeff_strategy, coeff_strategy)
def test_specialize_is_linear(ca, cb):
    a = CharSeries((2, 2), 8, ca)
    b = CharSeries((2, 2), 8, cb)
    total = char_sum(a, b)
    assert spec2(total) == spec2(a) + spec2(b)
    left, right_a, right_b = (specialize(c) for c in (total, a, b))
    for n, series in left.items():
        assert series == right_a[n] + right_b[n]
