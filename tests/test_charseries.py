import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstchar.admissible import character_oracle
from fstchar.charseries import CharSeries, specialize
from fstchar.qseries import QSeries

SPEC1 = ((-2, "z"), (-1, "z"))
SPEC2 = ((-2, "one"), (-1, "one"))


def constant_one(caps=(4, 4), q_order=10):
    return CharSeries(2, caps, q_order, {(0, 0): QSeries.one(q_order)})


class TestWindowInvariants:
    def test_rejects_vectors_outside_caps(self):
        with pytest.raises(ValueError):
            CharSeries(2, (2, 2), 5, {(3, 0): QSeries.one(5)})
        with pytest.raises(ValueError):
            CharSeries(2, (2, 2), 5, {(-1, 0): QSeries.one(5)})

    def test_drops_zero_series(self):
        c = CharSeries(2, (2, 2), 5, {(1, 1): QSeries.zero(5)})
        assert c.coeffs == {}

    def test_window_mismatch_raises(self):
        with pytest.raises(ValueError):
            constant_one() + constant_one(q_order=9)

    def test_json_round_trip(self):
        c = character_oracle(2, (1, 1, 0), 8, (3, 3))
        assert CharSeries.from_json(c.to_json()) == c


class TestOperations:
    def test_scale_constant_by_z1q_squared(self):
        scaled = constant_one().scale_by_monomial(2, (2, 0))
        assert scaled.coeffs == {(2, 0): QSeries.monomial(2, 10)}

    def test_sub_self_is_zero(self):
        c = character_oracle(2, (2, 0, 0), 8, (3, 3))
        assert (c - c).coeffs == {}

    def test_dilate_constant(self):
        assert constant_one().dilate() == constant_one()

    def test_dilate_single_term(self):
        c = CharSeries(2, (2, 2), 10, {(1, 1): QSeries.one(10)})
        assert c.dilate().coeffs == {(1, 1): QSeries.monomial(2, 10)}

    def test_dilate_matches_weighted_oracle(self):
        c = character_oracle(2, (1, 0, 0), 10, (4, 4))
        dilated = c.dilate()
        for n, series in c.coeffs.items():
            expected = series.shift(sum(n)).truncate(10)
            assert dilated.coefficient(n) == expected

    def test_first_level2_equation_from_oracle(self):
        # lhs chi(2,0,0) - chi(1,1,0) equals (z1 q)^2 chi(0,2,0)(z1 q, z2 q)
        caps, q_order = (6, 6), 14
        c200 = character_oracle(2, (2, 0, 0), q_order, caps)
        c110 = character_oracle(2, (1, 1, 0), q_order, caps)
        c020 = character_oracle(2, (0, 2, 0), q_order, caps)
        lhs = c200 - c110
        rhs = c020.dilate().scale_by_monomial(2, (2, 0))
        assert lhs == rhs


class TestSpecialize:
    def test_spec1_of_q_z1(self):
        c = CharSeries(2, (2, 2), 8, {(1, 0): QSeries.monomial(1, 8)})
        out = specialize(c, 2, SPEC1)
        assert isinstance(out, dict)
        assert out[1].coeffs == {0: 1}  # q^{2*1 - 2} = 1 at z^1

    def test_spec2_of_q_z2(self):
        c = CharSeries(2, (2, 2), 8, {(0, 1): QSeries.monomial(1, 8)})
        out = specialize(c, 2, SPEC2)
        assert isinstance(out, QSeries)
        assert out.coeffs == {1: 1}  # q^{2*1 - 1}

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            specialize(constant_one(), 0, SPEC1)

    def test_valid_orders_track_offsets(self):
        c = constant_one(caps=(3, 3), q_order=10)
        graded = specialize(c, 2, SPEC1)
        # z^n coefficients are trusted to 2Q - 2n while n fits one variable
        assert graded[0].trunc == 20
        assert graded[2].trunc == 16
        scalar = specialize(c, 2, SPEC2)
        assert scalar.trunc == 20 - 2 * 3 - 3


coeff_strategy = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.builds(
        QSeries,
        st.dictionaries(st.integers(0, 8), st.integers(-5, 5), max_size=4),
        st.just(8),
    ),
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(coeff_strategy, coeff_strategy)
def test_specialize_is_linear(ca, cb):
    a = CharSeries(2, (2, 2), 8, ca)
    b = CharSeries(2, (2, 2), 8, cb)
    for spec in (SPEC1, SPEC2):
        left = specialize(a + b, 2, spec)
        right_a = specialize(a, 2, spec)
        right_b = specialize(b, 2, spec)
        if spec is SPEC2:
            assert left == right_a + right_b
        else:
            for n, series in left.items():
                assert series == right_a[n] + right_b[n]
