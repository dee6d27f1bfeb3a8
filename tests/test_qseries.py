import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import gaussian_binomial
from reference import index_walk as reference_walk

from fstchar.qseries import (
    QSeries,
    denominator_row,
    divide_pochhammer,
    index_walk,
    inv_pochhammer,
    pochhammer,
)


def series(d, trunc=20):
    return QSeries(d, trunc)


class TestArithmetic:
    def test_add_cancellation(self):
        assert series({0: 1, 1: 1}) + series({0: -1, 2: 1}) == series({1: 1, 2: 1})

    def test_add_identity(self):
        x = series({-2: 3, 5: 7})
        assert x + QSeries.zero(20) == x

    def test_add_pochhammer_doubles(self):
        assert pochhammer(1, 20) + pochhammer(1, 20) == series({0: 2, 1: -2})

    def test_mul_difference_of_squares(self):
        assert series({0: 1, 1: -1}) * series({0: 1, 1: 1}) == series({0: 1, 2: -1})

    def test_mul_negative_exponents(self):
        assert series({-2: 1}) * series({3: 1}) == series({1: 1})

    def test_pochhammer_two(self):
        assert pochhammer(2, 20) == series({0: 1, 1: -1, 2: -1, 3: 1})

    def test_trunc_is_min_of_operands(self):
        a = QSeries({0: 1}, 10)
        b = QSeries({0: 1}, 7)
        assert (a + b).trunc == 7
        assert (a * b).trunc == 7
        assert (a - b).trunc == 7

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_non_series_operand_raises_type_error(self, op):
        # each operator returns NotImplemented, so Python raises TypeError
        with pytest.raises(TypeError):
            op(series({0: 1}), "x")

    def test_mul_drops_beyond_trunc(self):
        a = QSeries({5: 1}, 8)
        assert (a * a).is_zero()

    def test_no_zero_coefficients_stored(self):
        x = series({0: 1}) - series({0: 1})
        assert x.coeffs == {}

    def test_scalar_multiplication(self):
        assert series({1: 2}) * 3 == series({1: 6})
        assert 0 * series({1: 2}) == QSeries.zero(20)

    def test_from_row(self):
        # the row's length fixes the truncation; its zeros are not stored
        assert QSeries.from_row([1, 0, -2]) == QSeries({0: 1, 2: -2}, 2)
        assert QSeries.from_row((0, 0)).coeffs == {}
        assert QSeries.from_row([]) == QSeries.zero(-1)
        # every negative order has the empty row, so it is passed explicitly
        assert QSeries.from_row([], -3) == QSeries.zero(-3)

    def test_truncate_cannot_extend(self):
        with pytest.raises(ValueError):
            QSeries({0: 1}, 5).truncate(6)

    def test_json_round_trip(self):
        x = QSeries({-1: 3, 4: -12345678901234567890}, 9)
        assert QSeries.from_json(x.to_json()) == x
        assert x.to_json()["terms"] == [[-1, "3"], [4, "-12345678901234567890"]]

    def test_from_json_rejects_a_term_above_trunc(self):
        # QSeries would drop it as untrusted, hiding the malformed input
        with pytest.raises(ValueError, match="exponent 10 above trunc 9"):
            QSeries.from_json({"trunc": 9, "terms": [[1, "3"], [10, "1"]]})

    def test_from_json_rejects_a_repeated_exponent(self):
        # a dict would keep only the last coefficient given for it
        with pytest.raises(ValueError, match="given twice"):
            QSeries.from_json({"trunc": 9, "terms": [[1, "3"], [1, "4"]]})


laurent_series = st.builds(
    QSeries,
    st.dictionaries(st.integers(-6, 12), st.integers(-9, 9), max_size=6),
    st.just(12),
)

# multiplicative axioms need nonnegative supports: with negative exponents a
# truncated product can pull an operand's unknown tail below the shared
# truncation order, so associativity only holds where valuations are >= 0
power_series = st.builds(
    QSeries,
    st.dictionaries(st.integers(0, 12), st.integers(-9, 9), max_size=6),
    st.just(12),
)


class TestRingAxioms:
    @settings(max_examples=150, deadline=None)
    @given(power_series, power_series, power_series)
    def test_ring_axioms_nonnegative_support(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=100, deadline=None)
    @given(laurent_series, laurent_series, laurent_series)
    def test_additive_axioms_laurent(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert a - a == QSeries.zero(12)
        assert a - (a - a) == a


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(0, 10) == QSeries.one(10)
        assert inv_pochhammer(0, 10) == QSeries.one(10)

    def test_single_factor(self):
        assert pochhammer(1, 10) == QSeries({0: 1, 1: -1}, 10)

    def test_three_factors(self):
        assert pochhammer(3, 10) == QSeries(
            {0: 1, 1: -1, 2: -1, 4: 1, 5: 1, 6: -1}, 10
        )

    def test_geometric_series(self):
        assert inv_pochhammer(1, 3) == QSeries({0: 1, 1: 1, 2: 1, 3: 1}, 3)

    @pytest.mark.parametrize("n", range(21))
    def test_inverse_up_to_trunc(self, n):
        q_order = 30
        assert pochhammer(n, q_order) * inv_pochhammer(n, q_order) == QSeries.one(
            q_order
        )

    def test_inverse_coefficients_nonnegative(self):
        for n in range(8):
            assert all(c > 0 for c in inv_pochhammer(n, 25).coeffs.values())

    def test_scaled_pochhammer(self):
        # (1 - q^2)(1 - q^4)
        assert pochhammer(2, 10, scale=2) == QSeries({0: 1, 2: -1, 4: -1, 6: 1}, 10)

    @pytest.mark.parametrize("fn", [pochhammer, inv_pochhammer])
    def test_cache_is_bounded(self, fn):
        maxsize = fn.cache_info().maxsize
        assert maxsize is not None and maxsize > 0

    @pytest.mark.parametrize("fn", [pochhammer, inv_pochhammer])
    def test_cache_evicts_and_recomputes(self, fn):
        maxsize = fn.cache_info().maxsize
        orders = range(maxsize + 20)
        first = [fn(3, q) for q in orders]
        assert fn.cache_info().currsize <= maxsize
        # the early orders were evicted; recomputing them gives the same values
        assert [fn(3, q) for q in orders] == first
        assert fn.cache_info().currsize <= maxsize
        assert first == [fn.__wrapped__(3, q) for q in orders]


def dense(series):
    """Coefficient list of a series with nonnegative support, up to its trunc."""
    return [series.coeffs.get(e, 0) for e in range(series.trunc + 1)]


class TestDividePochhammer:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 12), st.integers(-1, 40), st.integers(1, 3))
    def test_undoes_pochhammer(self, n, q_order, scale):
        coeffs = dense(pochhammer(n, q_order, scale))
        divide_pochhammer(coeffs, n, scale)
        assert coeffs == dense(QSeries.one(q_order))

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.integers(0, 30), st.integers(-9, 9), max_size=8),
           st.integers(0, 12), st.integers(-1, 30), st.integers(1, 3))
    def test_equals_product_with_inverse(self, terms, n, q_order, scale):
        a = QSeries(terms, q_order)
        coeffs = dense(a)
        divide_pochhammer(coeffs, n, scale)
        assert coeffs == dense(a * inv_pochhammer(n, q_order, scale))

    def test_zero_factors_leave_the_list(self):
        coeffs = [3, -1, 4]
        divide_pochhammer(coeffs, 0)
        assert coeffs == [3, -1, 4]
        divide_pochhammer(coeffs, 5, scale=3)  # every step reaches past q^2
        assert coeffs == [3, -1, 4]

    def test_inv_pochhammer_below_order_zero(self):
        assert inv_pochhammer(3, -1) == QSeries.zero(-1)
        assert inv_pochhammer(3, -3) == QSeries.zero(-3)
        assert inv_pochhammer(3, 0) == QSeries.one(0)


class TestDenominatorRow:
    """Rows of 1/prod (q^s; q^s)_m against products of `pochhammer`."""

    @staticmethod
    def times_pochhammers(row, key, q_order, scale):
        out = QSeries.from_row(row)
        for m in key:
            out = out * pochhammer(m, q_order, scale)
        return out

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(1, 12), max_size=5).map(lambda key: tuple(sorted(key))),
           st.integers(0, 30), st.sampled_from([1, 2]))
    def test_inverts_the_product(self, key, q_order, scale):
        row = denominator_row(key, q_order, scale)
        assert isinstance(row, tuple) and len(row) == q_order + 1
        assert self.times_pochhammers(row, key, q_order, scale) == QSeries.one(q_order)

    @pytest.mark.parametrize("scale", [1, 2])
    def test_equals_product_of_inverses(self, scale):
        key, q_order = (1, 2, 2, 5), 24
        expected = QSeries.one(q_order)
        for m in key:
            expected = expected * inv_pochhammer(m, q_order, scale)
        assert QSeries.from_row(denominator_row(key, q_order, scale)) == expected

    def test_empty_key_is_one(self):
        assert denominator_row((), 6) == (1, 0, 0, 0, 0, 0, 0)
        assert denominator_row((), 6, 2) == (1, 0, 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("scale", [1, 2])
    def test_entries_at_or_above_the_order(self, scale):
        # (q^s; q^s)_m is 1 + O(q^s): only its factors below q^{q_order} count
        q_order = 5
        assert denominator_row((5, 9), q_order, scale) == (
            denominator_row((5, 5), q_order, scale))
        assert denominator_row((6, 40), q_order) == denominator_row((5, 5), q_order)
        assert self.times_pochhammers(
            denominator_row((5, 9), q_order, scale), (5, 9), q_order, scale,
        ) == QSeries.one(q_order)

    @pytest.mark.parametrize("key", [(), (1,), (3, 7)])
    def test_order_zero(self, key):
        assert denominator_row(key, 0) == (1,)
        assert denominator_row(key, 0, 2) == (1,)

    def test_rows_are_shared_and_read_only(self):
        row = denominator_row((2, 3), 10)
        assert denominator_row((2, 3), 10) is row
        with pytest.raises(TypeError):
            row[0] = 5


@st.composite
def walk_data(draw, rows):
    """A symmetric matrix >= 0 with diagonal >= 1, steps, `rows` size rows and caps."""
    d = draw(st.integers(1, 4))
    entry = st.integers(0, 3)
    upper = {(i, j): draw(st.integers(1, 3) if i == j else entry)
             for i in range(d) for j in range(i, d)}
    matrix = [[upper[min(i, j), max(i, j)] for j in range(d)] for i in range(d)]
    steps = draw(st.lists(entry, min_size=d, max_size=d))
    sizes = tuple(draw(st.lists(entry, min_size=d, max_size=d)) for _ in range(rows))
    caps = tuple(draw(st.integers(-1, 6)) for _ in range(rows))
    return matrix, steps, sizes, caps, draw(st.integers(-1, 6))


# per row count, a window whose walk visits m = (2, 1): a key left unsorted
# reads (2, 1) there, where the draws above may give no such vector
OUT_OF_ORDER = {
    0: ([[1, 0], [0, 1]], [0, 0], (), (), 2),
    1: ([[1, 0], [0, 1]], [0, 0], ([1, 1],), (3,), 2),
    2: ([[1, 0], [0, 1]], [0, 0], ([1, 0], [0, 1]), (2, 1), 2),
}


class TestIndexWalk:
    """`index_walk` against every vector of a box that holds its window."""

    @pytest.mark.parametrize("rows", [0, 1, 2])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_visits_each_vector_once(self, rows, data):
        self.check(*data.draw(walk_data(rows)))

    @pytest.mark.parametrize("rows", [0, 1, 2])
    def test_visits_entries_out_of_order(self, rows):
        self.check(*OUT_OF_ORDER[rows])

    @pytest.mark.parametrize("rows", [0, 1, 2])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_same_visits_in_order_as_reference(self, rows, data):
        walk = data.draw(walk_data(rows))
        visits = []
        for run in (index_walk, reference_walk):
            seen = []
            run(*walk, lambda m, n, expo, key: seen.append(
                (tuple(m), tuple(n), expo, key)))
            visits.append(seen)
        assert visits[0] == visits[1]

    # with no entries the one vector is m = (), at exponent 0
    @pytest.mark.parametrize("q_order, expected", [(-1, []), (0, [((), (), 0, ())])])
    def test_no_entries(self, q_order, expected):
        seen = []
        index_walk([], [], (), (), q_order, lambda m, n, expo, key: seen.append(
            (tuple(m), tuple(n), expo, key)))
        assert seen == expected

    @staticmethod
    def check(matrix, steps, sizes, caps, q_order):
        d = len(steps)
        seen = []

        def visit(m, n, expo, key):
            # the denominator key: the sorted nonzero entries of m
            assert key == tuple(sorted(x for x in m if x))
            seen.append((tuple(m), tuple(n), expo))

        index_walk(matrix, steps, sizes, caps, q_order, visit)
        # t units of one entry cost at least t(t - 1)/2 > q_order for
        # t = q_order + 2, so the box holds every vector within the bounds
        expected = {}
        for m in itertools.product(range(max(q_order, 0) + 2), repeat=d):
            form = sum(m[i] * matrix[i][j] * m[j] for i in range(d) for j in range(d))
            expo = (form - sum(matrix[i][i] * m[i] for i in range(d))) // 2 + sum(
                map(operator.mul, steps, m))
            n = tuple(sum(map(operator.mul, row, m)) for row in sizes)
            if expo <= q_order and all(map(operator.le, n, caps)):
                expected[m] = (n, expo)
        assert len({m for m, _, _ in seen}) == len(seen)
        assert {m: (n, expo) for m, n, expo in seen} == expected


class TestGaussianBinomial:
    def test_out_of_range_is_zero(self):
        assert gaussian_binomial(3, -1, 10).is_zero()
        assert gaussian_binomial(3, 4, 10).is_zero()
        assert gaussian_binomial(-2, 0, 10).is_zero()

    def test_two_choose_one(self):
        assert gaussian_binomial(2, 1, 10) == QSeries({0: 1, 1: 1}, 10)

    def test_four_choose_two(self):
        assert gaussian_binomial(4, 2, 10) == QSeries(
            {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}, 10
        )

    def test_pascal_recurrence(self):
        q_order = 24
        assert gaussian_binomial(0, 0, q_order) == QSeries.one(q_order)
        for m in range(1, 13):
            for n in range(m + 1):
                expected = (gaussian_binomial(m - 1, n - 1, q_order)
                            + QSeries({n: 1}, q_order) * gaussian_binomial(m - 1, n, q_order))
                assert gaussian_binomial(m, n, q_order) == expected, (m, n)

    def test_stabilizes_to_inverse_pochhammer(self):
        q_order = 18
        for n in range(7):
            for m in (n + q_order, n + q_order + 5, n + 10 * q_order):
                assert gaussian_binomial(m, n, q_order) == inv_pochhammer(n, q_order)

