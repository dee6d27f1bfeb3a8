import itertools
import json
from collections import Counter
from operator import add
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import bounded_census, gaussian_binomial, shift

from fstchar import specialize
from fstchar.admissible import character_oracle, energy, enumerate_configs
from fstchar.charseries import CharSeries
from fstchar.cli import main
from fstchar.fermionic import a_coefficient
from fstchar.qseries import (
    CACHE_SIZE,
    QSeries,
    denominator_row,
    inv_pochhammer,
    pochhammer,
)
from fstchar.specialize import (
    chi_fjmmt,
    chi_fjmmt2,
    chi_fjmmt2_alternating,
    fjmmt2_matrix,
    fjmmt2_r_vector,
    fjmmt_matrix,
    fjmmt_r_vector,
    prefix_census,
    spec2,
    verify_spec1,
    verify_spec2,
    verify_union_identity,
)


class TestExponentData:
    def test_level2_golden(self):
        golden = json.loads(
            (Path(__file__).parent / "data" / "fjmmt_k2.json").read_text()
        )
        matrix = fjmmt_matrix(2)
        assert matrix == golden["matrix"]
        for key, coeffs in golden["linear"].items():
            r = fjmmt_r_vector(2, int(key.split(",")[0]))
            assert [r[i] - matrix[i][i] for i in range(4)] == coeffs

    def test_matrix_symmetry(self):
        for k in (1, 2, 3):
            m = fjmmt_matrix(k)
            assert all(m[i][j] == m[j][i] for i in range(2 * k) for j in range(2 * k))

    def test_level_k_matrix(self):
        assert fjmmt2_matrix(2) == [[2, 3], [3, 6]]
        assert fjmmt2_matrix(1) == [[3]]

    def test_r_vector_blocks(self):
        assert fjmmt2_r_vector(3, 1, 1) == (0, 1, 3)
        assert fjmmt2_r_vector(3, 0, 0) == (2, 4, 6)
        assert fjmmt2_r_vector(2, 1, 0) == (0, 2)
        assert fjmmt2_r_vector(4, 1, 2) == (0, 1, 2, 4)

    def test_r_vector_validates(self):
        with pytest.raises(ValueError):
            fjmmt2_r_vector(2, 2, 1)


def _parts_by_multiplicity(total, k):
    """All (m_1, ..., m_k) >= 0 with sum j*m_j = total."""
    return [
        m for m in itertools.product(range(total + 1), repeat=k)
        if sum((j + 1) * x for j, x in enumerate(m)) == total
    ]


def _chi_fjmmt_unpruned(k0, k1, z_cap, q_order):
    """Every exponent vector m with sum_j j*m_j = l_i built, then filtered."""
    k = k0 + k1
    matrix = fjmmt_matrix(k)
    c = [0] * k0 + list(range(1, k1 + 1)) + [0] * k
    terms = {}
    for n in range(z_cap + 1):
        total = QSeries.zero(q_order)
        for l1 in range(n + 1):
            for m1 in _parts_by_multiplicity(l1, k):
                for m2 in _parts_by_multiplicity(n - l1, k):
                    m = m1 + m2
                    expo = sum(
                        matrix[i][j] * m[i] * m[j]
                        for i in range(2 * k) for j in range(2 * k)
                    ) + sum(
                        (2 * c[i] - matrix[i][i]) * m[i] for i in range(2 * k)
                    ) + n - l1
                    if expo > q_order:
                        continue
                    term = QSeries({expo: 1}, q_order)
                    for mi in m:
                        term = term * inv_pochhammer(mi, q_order, scale=2)
                    total = total + term
        terms[n] = total
    return terms


def _chi_fjmmt_products(k0, k1, z_cap, q_order):
    """Terms of the pruned principal sum, built by series products.

    Each term adds shift(denom, expo).truncate(q_order), the form chi_fjmmt
    took before its terms were kept as coefficient lists.
    """
    k = k0 + k1
    matrix = fjmmt_matrix(k)
    sizes = [j % k + 1 for j in range(2 * k)]
    steps = fjmmt_r_vector(k, k0)
    terms = {n: QSeries.zero(q_order) for n in range(z_cap + 1)}
    denominators = {(): QSeries.one(q_order)}
    m = [0] * (2 * k)

    def denominator(key):
        denom = denominators.get(key)
        if denom is None:
            denom = denominator(key[:-1]) * inv_pochhammer(key[-1], q_order, scale=2)
            denominators[key] = denom
        return denom

    def extend(i, n, expo):
        if i == 2 * k:
            denom = denominator(tuple(sorted(x for x in m if x)))
            terms[n] = terms[n] + shift(denom, expo).truncate(q_order)
            return
        row = matrix[i]
        while n <= z_cap and expo <= q_order:
            extend(i + 1, n, expo)
            expo += 2 * sum(row[j] * m[j] for j in range(i + 1)) + steps[i]
            m[i] += 1
            n += sizes[i]
        m[i] = 0

    extend(0, 0, 0)
    return terms


def _fjmmt2_terms(k, a, b, q_order):
    """Contributing m-vectors with their base exponents Q(m) + r.m <= q_order."""
    matrix = fjmmt2_matrix(k)
    r = fjmmt2_r_vector(k, a, b)

    def base(m):
        quad = sum(
            matrix[i][j] * m[i] * m[j] for i in range(k) for j in range(k)
        ) - sum(matrix[j][j] * m[j] for j in range(k))
        return quad // 2 + sum(r[i] * m[i] for i in range(k))

    found = []
    m = [0] * k

    def rec(j):
        if j == k:
            found.append((tuple(m), base(m)))
            return
        v = 0
        while True:
            m[j] = v
            if base(m) > q_order:
                m[j] = 0
                break
            rec(j + 1)
            v += 1
        m[j] = 0

    rec(0)
    return matrix, r, found


def _stabilization_sites(k, a, b, q_order):
    """Smallest site count N making every contributing binomial q_order-stable.

    Stability means the binomial's top argument exceeds its bottom one by at
    least q_order, at which point it agrees with 1/(q)_m to the working order.
    """
    matrix, r, found = _fjmmt2_terms(k, a, b, q_order)
    needed = 0
    for m, _ in found:
        for j in range(k):
            if m[j]:
                num = q_order + sum(matrix[j][i] * m[i] for i in range(k))
                num += r[j] - matrix[j][j]
                needed = max(needed, -(-num // (j + 1)))
    return needed


def _chi_fjmmt2_products(a, b, k, n_sites, q_order):
    """The level-k Gaussian-binomial sum, built by series products.

    Each vector's base exponent is recomputed from the quadratic form, and
    n_sites = None evaluates the binomials at `_stabilization_sites`: the
    form chi_fjmmt2 took before its terms were kept as coefficient lists.
    """
    if a + b > k:
        b = k - a
    if n_sites is None:
        n_sites = _stabilization_sites(k, a, b, q_order)
    matrix, r, found = _fjmmt2_terms(k, a, b, q_order)
    total = QSeries.zero(q_order)
    for m, base in found:
        term = QSeries({base: 1}, q_order)
        for j in range(k):
            if m[j]:
                top = (
                    (j + 1) * n_sites
                    - sum(matrix[j][i] * m[i] for i in range(k))
                    + matrix[j][j]
                    - r[j]
                    + m[j]
                )
                term = term * gaussian_binomial(top, m[j], q_order)
                if term.is_zero():
                    break
        total = total + term
    return total


class TestChiFjmmt:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 4).flatmap(
               lambda level: st.tuples(st.integers(0, level), st.just(level))),
           st.integers(0, 6), st.integers(-1, 40))
    @example((0, 1), 0, -1)
    @example((0, 1), 2, -3)  # an empty row of order -3 at each z-degree
    @example((2, 3), 4, 0)
    def test_matches_series_products(self, k0_level, z_cap, q_order):
        k0, level = k0_level
        k1 = level - k0
        assert chi_fjmmt(k0, k1, z_cap, q_order) == (
            _chi_fjmmt_products(k0, k1, z_cap, q_order))

    # the one test of chi_fjmmt whose exponent data is built apart from
    # fjmmt_r_vector, so it runs on drawn windows as well as the largest
    @pytest.mark.parametrize("k0, k1", [
        (k0, level - k0) for level in range(1, 4) for k0 in range(level + 1)
    ])
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 30))
    @example(6, 30)
    def test_matches_unpruned_sum(self, k0, k1, z_cap, q_order):
        assert chi_fjmmt(k0, k1, z_cap, q_order) == (
            _chi_fjmmt_unpruned(k0, k1, z_cap, q_order))

    # drop = d keeps z^n to order q - d*n, which is negative for n > q/d
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(
               lambda level: st.tuples(st.integers(0, level), st.just(level))),
           st.integers(0, 8), st.integers(-1, 40), st.sampled_from([0, 1, 2]))
    @example((1, 1), 8, 3, 2)
    @example((0, 4), 8, 40, 2)
    @example((2, 2), 0, -1, 1)
    def test_drop_truncates_each_degree(self, k0_level, z_cap, q_order, drop):
        k0, level = k0_level
        k1 = level - k0
        full = chi_fjmmt(k0, k1, z_cap, q_order)
        dropped = chi_fjmmt(k0, k1, z_cap, q_order, drop=drop)
        assert dropped == {n: full[n].truncate(q_order - drop * n) for n in full}

    # the drop that verify_spec1 passes, against exponent data built apart
    @pytest.mark.parametrize("k0, k1", [
        (k0, level - k0) for level in range(1, 4) for k0 in range(level + 1)
    ])
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 6), st.integers(-1, 30))
    @example(6, 30)
    @example(6, 5)
    def test_drop_two_matches_unpruned_sum(self, k0, k1, z_cap, q_order):
        unpruned = _chi_fjmmt_unpruned(k0, k1, z_cap, q_order)
        assert chi_fjmmt(k0, k1, z_cap, q_order, drop=2) == {
            n: unpruned[n].truncate(q_order - 2 * n) for n in unpruned
        }

    # chi_fjmmt adds a scale-2 row's even entries only, at stride 2, into an
    # accumulator whose slice from the term's exponent is no longer than the row
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 12), max_size=4).map(lambda key: tuple(sorted(key))),
           st.integers(0, 31), st.integers(-12, 12), st.integers(0, 12))
    @example((), 0, 0, 0)
    @example((1,), 5, -3, 1)
    @example((2, 3), 6, 4, 0)
    @example((1, 1), 9, 3, 2)
    def test_strided_add_of_scale_two_row(self, key, q_order, extra, shift):
        row = denominator_row(key, q_order, 2)
        assert not any(row[1::2])
        size = max(len(row) + extra, 0)
        expo = max(size - len(row), 0) + shift
        whole = list(range(1, size + 1))
        whole[expo:] = map(add, whole[expo:], row)
        acc = list(range(1, size + 1))
        acc[expo::2] = map(add, acc[expo::2], row[::2])
        assert acc == whole

    def test_empty_exponent_term(self):
        out = chi_fjmmt(2, 0, 3, 12)
        assert out[0] == QSeries.one(12)

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            chi_fjmmt(0, 0, 2, 8)


class TestChiFjmmt2:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda k: st.integers(0, k).flatmap(
               lambda a: st.tuples(
                   st.just(k), st.just(a), st.integers(0, k - a + 1)))),
           st.none() | st.integers(0, 8), st.integers(-1, 30))
    @example((2, 1, 0), None, -1)
    @example((2, 1, 0), 3, -1)
    @example((1, 1, 0), None, -3)  # an empty row of order -3
    @example((1, 1, 0), 1, -3)
    @example((3, 0, 2), None, 0)
    @example((3, 0, 2), 4, 0)
    @example((2, 0, 1), 0, 20)
    @example((1, 0, 1), 3, 12)  # m = (2) has top 1 < 2
    @example((2, 1, 1), 3, 12)  # m = (0, 2) has top 1 < 2
    @example((2, 2, 1), 2, 30)  # b saturates to 0
    def test_matches_series_products(self, kab, n_sites, q_order):
        k, a, b = kab
        assert chi_fjmmt2(a, b, k, n_sites, q_order) == (
            _chi_fjmmt2_products(a, b, k, n_sites, q_order))

    def test_zero_vector_term(self):
        assert chi_fjmmt2(0, 0, 2, None, 0) == QSeries.one(0)

    def test_validates_range(self):
        with pytest.raises(ValueError):
            chi_fjmmt2(-1, 0, 2, None, 8)
        with pytest.raises(ValueError):
            chi_fjmmt2(3, 0, 2, None, 8)

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_level_below_1(self, k):
        with pytest.raises(ValueError, match="level"):
            chi_fjmmt2(0, 0, k, None, 4)

    def test_level1_matches_spec2_of_oracle(self):
        # the single-term form at weight (1,0,0)
        q_order = 20
        from fstchar.specialize import spec2_window

        caps, q_in = spec2_window(1, q_order)
        left = spec2(character_oracle((1, 0, 0), q_in, caps)).truncate(q_order)
        assert left == chi_fjmmt2(1, 0, 1, None, q_order)

    @pytest.mark.parametrize("k", [1, 2])
    def test_census_oracle(self, k):
        # independent brute force for the closed sum: it counts admissible
        # configurations with a_0 <= a and a_1 <= b + 2(a - a_0)
        q_order = 16
        for a in range(k + 1):
            for b in range(k - a + 1):
                formula = chi_fjmmt2(a, b, k, None, q_order)
                census = bounded_census(k, a, b, q_order)
                assert formula == census, (k, a, b)

    def test_prefix_census_is_finer(self):
        # summing exact-prefix censuses over the bounded range reproduces
        # bounded_census by construction; spot-check one prefix directly
        got = prefix_census(1, 1, 0, 8)
        # a_0 = 1 forces gaps >= 3: one config per energy 0, 3, 4, ..., 8
        assert got == QSeries({0: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1}, 8)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_prefix_census_counts_stream_moments(self, k):
        # the walk's own moments against `energy` of the stream's tuples
        for a, b, energy_max in itertools.product(range(k + 1), range(k + 1),
                                                  (-1, 0, 5, 14)):
            if a + b > k:
                continue
            stream = enumerate_configs(2, (k, 0, 0), init_prefix=(a, b),
                                       energy_max=energy_max)
            expected = QSeries(Counter(map(energy, stream)), energy_max)
            assert prefix_census.__wrapped__(k, a, b, energy_max) == expected, (
                a, b, energy_max)

    def test_stabilization_doubling(self):
        # finite-site binomials at and past the stabilizing site count equal
        # the direct 1/(q)_m limit
        for (a, b, k) in [(1, 0, 1), (1, 1, 2), (0, 2, 2), (2, 0, 2)]:
            q_order = 16
            sites = _stabilization_sites(k, a, b, q_order)
            at_sites = chi_fjmmt2(a, b, k, sites, q_order)
            doubled = chi_fjmmt2(a, b, k, 2 * sites, q_order)
            infinite = chi_fjmmt2(a, b, k, None, q_order)
            assert at_sites == doubled == infinite

    def test_finite_site_count_truncates_census(self):
        # small site counts cut off configurations supported past them
        full = chi_fjmmt2(1, 0, 1, None, 6)
        small = chi_fjmmt2(1, 0, 1, 3, 6)
        assert small != full
        assert small.coeffs[0] == full.coeffs[0]

    def test_saturated_pairs_collapse(self):
        assert chi_fjmmt2(1, 2, 2, None, 12) == chi_fjmmt2(1, 1, 2, None, 12)


class TestSharedDenominatorRows:
    """The finite-site sum copies a shared row before it multiplies in place."""

    @pytest.mark.parametrize("a, b, k, w", [
        (0, 2, 2, (1, 0, 1)), (1, 1, 3, (1, 1, 1)), (0, 3, 3, (2, 1, 0)),
    ])
    def test_later_readers_see_fresh_rows(self, a, b, k, w):
        q_order = 16
        # memoized sums from earlier tests would skip the rows
        chi_fjmmt2.cache_clear()
        denominator_row.cache_clear()
        assert chi_fjmmt2(a, b, k, 3, q_order) == (
            _chi_fjmmt2_products(a, b, k, 3, q_order))
        # the rows the finite-site sum read are the ones read next
        assert denominator_row.cache_info().currsize > 1
        assert chi_fjmmt2(a, b, k, None, q_order) == (
            _chi_fjmmt2_products(a, b, k, None, q_order))
        oracle = character_oracle(w, q_order, (4, 4))
        for n1 in range(5):
            for n2 in range(5):
                assert a_coefficient(w, n1, n2, q_order) == QSeries.from_row(
                    oracle.coeffs.get((n1, n2), (0,) * (q_order + 1))), (n1, n2)


class TestMemo:
    """Each census and stabilized sum is computed once per process."""

    @pytest.mark.parametrize("fn, args", [
        (prefix_census, (3, 1, 1, 12)), (chi_fjmmt2, (1, 2, 3, None, 12)),
    ], ids=["prefix_census", "chi_fjmmt2"])
    def test_repeated_call_is_a_hit(self, fn, args):
        assert fn.cache_parameters()["maxsize"] == CACHE_SIZE
        first = fn(*args)
        hits = fn.cache_info().hits
        assert fn(*args) == first == fn.__wrapped__(*args)
        assert fn.cache_info().hits == hits + 1

    def test_cached_census_cannot_lose_an_attribute(self):
        # every later caller gets the same object from the cache
        for name in ("coeffs", "trunc"):
            with pytest.raises(AttributeError):
                delattr(prefix_census(2, 0, 0, 6), name)
        assert prefix_census(2, 0, 0, 6).trunc == 6
        assert prefix_census(2, 0, 0, 6) == prefix_census.__wrapped__(2, 0, 0, 6)

    @pytest.mark.parametrize("fn, args", [
        (prefix_census, (2, 0, 0, 6)), (chi_fjmmt2, (1, 2, 3, None, 12)),
        (pochhammer, (2, 5)), (inv_pochhammer, (2, 5)),
    ], ids=["prefix_census", "chi_fjmmt2", "pochhammer", "inv_pochhammer"])
    def test_cached_series_cannot_change(self, fn, args):
        # the cache hands this same QSeries to every later caller
        series = fn(*args)
        with pytest.raises(TypeError):
            series.coeffs[0] = 99
        with pytest.raises(TypeError):
            del series.coeffs[0]
        assert fn(*args) is series
        assert series == fn.__wrapped__(*args)


class TestVerifiers:
    def test_spec1_level1(self):
        report = verify_spec1(1, 0, 5, 14)
        assert report.ok, report.violations[:1]

    def test_spec1_level2_pair(self):
        report = verify_spec1(1, 1, 5, 14)
        assert report.ok, report.violations[:1]

    @pytest.mark.parametrize("k0, level", [
        (k0, level) for level in (5, 6) for k0 in range(level + 1)
    ])
    def test_spec1_levels_5_and_6(self, k0, level):
        # r's blocks run to 6 entries here; the other spec1 tests stop at 4
        report = verify_spec1(k0, level - k0, 6, 16)
        assert report.ok, report.violations[:1]

    @pytest.mark.parametrize("w", [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    def test_spec2_level1(self, w):
        report = verify_spec2(w, 14)
        assert report.ok, report.violations[:1]

    def test_spec2_alternating_mixed_weight(self):
        # both k_0 and k_2 nonzero: only the alternating form applies
        report = verify_spec2((1, 0, 1), 12)
        assert report.ok, report.violations[:1]
        assert report.checked == 1

    def test_spec2_single_term_weight(self):
        report = verify_spec2((0, 1, 1), 12)
        assert report.ok
        assert report.checked == 2  # alternating and single-term forms

    def test_union_identity_level1(self):
        for w in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            report = verify_union_identity(w, 12)
            assert report.ok, (w, report.violations[:1])

    def test_specialized_oracle_exponents_nonnegative(self):
        # every generator raises the degree enough that both collapses keep
        # all q-exponents at or above zero
        for w in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1), (0, 0, 2)]:
            ch = character_oracle(w, 12, (5, 5))
            for series in specialize.specialize(ch).values():
                assert min(series.coeffs, default=0) >= 0
            assert min(spec2(ch).coeffs, default=0) >= 0

    def test_alternating_equals_sum_of_prefixes(self):
        # directly: the alternating combination reproduces the weight's census
        q_order = 12
        for w in [(1, 1, 0), (1, 0, 1), (2, 0, 0)]:
            k0, k1, _ = w
            total = QSeries.zero(q_order)
            for a in range(k0 + 1):
                for b in range(k0 + k1 - a + 1):
                    total = total + prefix_census(sum(w), a, b, q_order).truncate(
                        q_order
                    )
            assert chi_fjmmt2_alternating(w, q_order) == total, w


def _one_config_fewer(monkeypatch):
    """Drop one node from the configuration walk that the censuses count.

    The censuses run unmemoized meanwhile: the memo would hand back the
    clean counts, and would keep the short one after the test.
    """
    real = specialize._walk
    dropped = []

    def walk(*args):
        for node in real(*args):
            if dropped:
                yield node
            else:
                dropped.append(node)

    monkeypatch.setattr(specialize, "_walk", walk)
    monkeypatch.setattr(specialize, "prefix_census",
                        specialize.prefix_census.__wrapped__)


def _bump(series):
    return series + QSeries({0: 1}, series.trunc)


def _bumped_chi_fjmmt(monkeypatch):
    """Add 1 to the constant coefficient at z^0 of the principal sum."""
    real = specialize.chi_fjmmt

    def chi(*args, **kwargs):
        terms = dict(real(*args, **kwargs))
        terms[0] = _bump(terms[0])
        return terms

    monkeypatch.setattr(specialize, "chi_fjmmt", chi)


def _bumped_chi_fjmmt2(monkeypatch):
    """Add 1 to the constant coefficient of every Gaussian-binomial sum."""
    real = specialize.chi_fjmmt2
    monkeypatch.setattr(specialize, "chi_fjmmt2", lambda *a: _bump(real(*a)))


class TestVerifiersCanFail:
    """Each specialization check reports a perturbed input as a violation."""

    @pytest.mark.parametrize("check", [verify_spec2, verify_union_identity])
    def test_short_window_raises(self, monkeypatch, check):
        # both spec_2 checks guard their window in one place
        real = specialize.spec2_window
        monkeypatch.setattr(specialize, "spec2_window",
                            lambda *a: (real(*a)[0], real(*a)[1] - 1))
        with pytest.raises(AssertionError, match="failed to reach the target"):
            check((1, 1, 0), 10)

    @staticmethod
    def _with_q0_z1(monkeypatch, name):
        """Patch the character builder `name` to add q^0 z_1 to its result.

        Both specializations send q^0 z_1 to q^-2, which no admissible
        configuration gives.
        """
        real = getattr(specialize, name)

        def character(*args):
            char = real(*args)
            rows = dict(char.coeffs)
            rows[(1, 0)] = (1,) + rows[(1, 0)][1:]
            return CharSeries(char.caps, char.q_order, rows)

        monkeypatch.setattr(specialize, name, character)

    def test_negative_exponent_in_union_report(self, monkeypatch):
        self._with_q0_z1(monkeypatch, "character_oracle")
        report = verify_union_identity((1, 1, 0), 10)
        assert report.violations[0]["where"] == {"issue": "negative exponent"}
        assert report.checked == 1

    def test_negative_exponent_in_spec1_report(self, monkeypatch):
        self._with_q0_z1(monkeypatch, "character_fermionic")
        report = verify_spec1(1, 1, 3, 8)
        assert report.violations[0]["where"] == {"z": 1, "issue": "negative exponent"}

    @pytest.mark.parametrize("perturb, check, args", [
        (_one_config_fewer, verify_union_identity, ((1, 1, 0), 10)),
        (_bumped_chi_fjmmt, verify_spec1, (1, 1, 4, 10)),
        (_bumped_chi_fjmmt2, verify_spec2, ((0, 1, 1), 10)),
    ], ids=["union-census", "spec1-fjmmt", "spec2-fjmmt2"])
    def test_violation_reported(self, monkeypatch, perturb, check, args):
        clean = check(*args)
        assert clean.ok
        perturb(monkeypatch)
        report = check(*args)
        assert not report.ok
        assert report.checked == clean.checked

    @pytest.mark.parametrize("perturb", [_one_config_fewer, _bumped_chi_fjmmt2],
                             ids=["union-census", "spec2-fjmmt2"])
    def test_fjmmt2_suite_exits_1(self, capsys, monkeypatch, perturb):
        argv = ["verify", "--suite", "fjmmt2", "--level", "1", "--qmax", "10"]
        assert main(argv) == 0
        perturb(monkeypatch)
        assert main(argv) == 1
        assert '"ok": false' in capsys.readouterr().out
