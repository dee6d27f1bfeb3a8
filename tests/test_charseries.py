import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import char_sum, dilate, scale_by_monomial

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
            char_sum(constant_one(), constant_one(q_order=9))

    def test_json_round_trip(self):
        c = character_oracle(2, (1, 1, 0), 8, (3, 3))
        assert CharSeries.from_json(c.to_json()) == c


class TestOperations:
    """The reference operations of `reference`, which the equation below uses."""

    def test_scale_constant_by_z1q_squared(self):
        scaled = scale_by_monomial(constant_one(), 2, (2, 0))
        assert scaled.coeffs == {(2, 0): QSeries.monomial(2, 10)}

    def test_sub_self_is_zero(self):
        c = character_oracle(2, (2, 0, 0), 8, (3, 3))
        assert char_sum(c, c, -1).coeffs == {}

    def test_dilate_constant(self):
        assert dilate(constant_one()) == constant_one()

    def test_dilate_single_term(self):
        c = CharSeries(2, (2, 2), 10, {(1, 1): QSeries.one(10)})
        assert dilate(c).coeffs == {(1, 1): QSeries.monomial(2, 10)}

    def test_dilate_matches_weighted_oracle(self):
        c = character_oracle(2, (1, 0, 0), 10, (4, 4))
        dilated = dilate(c)
        for n, series in c.coeffs.items():
            expected = series.shift(sum(n)).truncate(10)
            assert dilated.coefficient(n) == expected

    def test_first_level2_equation_from_oracle(self):
        # lhs chi(2,0,0) - chi(1,1,0) equals (z1 q)^2 chi(0,2,0)(z1 q, z2 q)
        caps, q_order = (6, 6), 14
        c200 = character_oracle(2, (2, 0, 0), q_order, caps)
        c110 = character_oracle(2, (1, 1, 0), q_order, caps)
        c020 = character_oracle(2, (0, 2, 0), q_order, caps)
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
    for n, series in char.coeffs.items():
        z_exp = sum(n[i] for i in z_vars)
        shift = sum(n[i] * offsets[i] for i in range(char.num_z))
        bucket = buckets.setdefault(z_exp, {})
        for e, c in series.coeffs.items():
            out_e = q_scale * e + shift
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
        c = CharSeries(2, (2, 2), 8, {(1, 0): QSeries.monomial(1, 8)})
        out = specialize(c, True)
        assert isinstance(out, dict)
        assert out[1].coeffs == {0: 1}  # q^{2*1 - 2} = 1 at z^1

    def test_spec2_of_q_z2(self):
        c = CharSeries(2, (2, 2), 8, {(0, 1): QSeries.monomial(1, 8)})
        out = specialize(c, False)
        assert isinstance(out, QSeries)
        assert out.coeffs == {1: 1}  # q^{2*1 - 1}

    def test_rejects_other_variable_counts(self):
        for c in (CharSeries(1, (3,), 5, {(1,): QSeries.one(5)}),
                  CharSeries(3, (2, 2, 2), 5, {(0, 1, 0): QSeries.one(5)})):
            for graded in (True, False):
                with pytest.raises(ValueError):
                    specialize(c, graded)

    def test_valid_orders_track_offsets(self):
        c = constant_one(caps=(3, 3), q_order=10)
        graded = specialize(c, True)
        # z^n coefficients are trusted to 2Q - 2n while n fits one variable
        assert graded[0].trunc == 20
        assert graded[2].trunc == 16
        scalar = specialize(c, False)
        assert scalar.trunc == 20 - 2 * 3 - 3


def char_strategy():
    """Random two-variable CharSeries: caps 0..4, q_order -1..10."""

    @st.composite
    def build(draw):
        caps = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
        q_order = draw(st.integers(-1, 10))
        vectors = st.tuples(st.integers(0, caps[0]), st.integers(0, caps[1]))
        series = st.dictionaries(
            st.integers(-3, max(q_order, -3)), st.integers(-5, 5), max_size=5
        ).map(lambda coeffs: QSeries(coeffs, q_order))
        return CharSeries(2, caps, q_order,
                          draw(st.dictionaries(vectors, series, max_size=8)))

    return build()


@settings(max_examples=100, deadline=None)
@given(char_strategy())
@example(CharSeries(2, (0, 0), 3, {(0, 0): QSeries({-1: 2, 3: 1}, 3)}))
@example(CharSeries(2, (0, 4), 5, {(0, 4): QSeries({0: 1, 5: -2}, 5)}))
@example(CharSeries(2, (4, 0), 5, {(4, 0): QSeries({1: 3}, 5)}))
def test_specialize_matches_generic_map(c):
    assert specialize(c, True) == generic_specialize(c, 2, SPEC1)
    assert specialize(c, False) == generic_specialize(c, 2, SPEC2)

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
    total = char_sum(a, b)
    assert specialize(total, False) == specialize(a, False) + specialize(b, False)
    left, right_a, right_b = (specialize(c, True) for c in (total, a, b))
    for n, series in left.items():
        assert series == right_a[n] + right_b[n]
