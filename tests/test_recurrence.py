from importlib import resources

import pytest

from fstchar.admissible import character_oracle
from fstchar.charseries import CharSeries
from fstchar.recurrence import (
    apply_index_set,
    build_system,
    index_sets,
    level_weights,
    render_system,
    verify_system,
)


class TestIndexSets:
    def test_single_support(self):
        assert index_sets((2, 0, 0), 2) == [(), (0,)]

    def test_full_support(self):
        assert index_sets((1, 1, 0), 2) == [(), (0,), (1,), (0, 1)]

    def test_empty_support(self):
        assert index_sets((0, 0, 2), 2) == [()]

    def test_apply_examples(self):
        assert apply_index_set((1, 1, 0), (0, 1)) == (0, 1, 1)
        assert apply_index_set((2, 0, 0), (0,)) == (1, 1, 0)
        assert apply_index_set((1, 0, 1), ()) == (1, 0, 1)

    def test_apply_rejects_unsupported_index(self):
        with pytest.raises(ValueError):
            apply_index_set((1, 0, 1), (1,))


class TestBuildSystem:
    def test_weight_counts(self):
        assert len(level_weights(1, 2)) == 3
        assert len(level_weights(2, 2)) == 6
        assert len(level_weights(2, 3)) == 10

    def test_weight_order_is_canonical(self):
        assert level_weights(2, 2) == [
            (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
        ]

    def test_lhs_term_count(self):
        for l, k in [(2, 2), (2, 3), (3, 2)]:
            for eq in build_system(k, l):
                support = sum(1 for x in eq.weight[:l] if x)
                assert len(eq.lhs) == 2 ** support

    def test_first_lhs_term_is_defining_weight(self):
        for eq in build_system(3, 2):
            sign, w = eq.lhs[0]
            assert sign == 1 and w == eq.weight

    def test_cyclic_rhs(self):
        eq = build_system(2, 2)[2]  # weight (1, 0, 1)
        assert eq.rhs_weight == (1, 1, 0)
        assert eq.rhs_shift == (1, 0)

    def test_golden_transcription(self):
        golden = (
            resources.files("fstchar.data")
            .joinpath("system_l2_k2.txt")
            .read_text(encoding="utf-8")
        )
        assert render_system(build_system(2, 2)) == golden


def oracle_provider(l, q_order, caps):
    cache = {}

    def provider(w):
        if w not in cache:
            cache[w] = character_oracle(l, w, q_order, caps)
        return cache[w]

    return provider


def corrupted_provider(n, exponent):
    """Oracle characters on (4, 4), q^10, with q^exponent z^n of A_(2,0,0) off by one.

    The corruption goes through the JSON form, which does not depend on how
    a CharSeries stores its coefficients.
    """
    base = oracle_provider(2, 10, (4, 4))

    def provider(w):
        ch = base(w)
        if w != (2, 0, 0):
            return ch
        obj = ch.to_json()
        terms = {tuple(v): s for v, s in obj["terms"]}
        series = terms.get(n, {"trunc": ch.q_order, "terms": []})
        coeffs = {e: int(c) for e, c in series["terms"]}
        coeffs[exponent] = coeffs.get(exponent, 0) + 1
        terms[n] = {"trunc": ch.q_order,
                    "terms": [[e, str(c)] for e, c in sorted(coeffs.items())]}
        obj["terms"] = [[list(v), terms[v]] for v in sorted(terms)]
        return CharSeries.from_json(obj)

    return provider


class TestVerifySystem:
    def test_oracle_level2_rank2(self):
        report = verify_system(oracle_provider(2, 12, (5, 5)), 2, 2, (5, 5), 12)
        assert report.ok, report.violations[:1]
        assert report.checked == 6 * 36

    def test_oracle_level1_rank3(self):
        report = verify_system(oracle_provider(3, 8, (3, 3, 3)), 1, 3, (3, 3, 3), 8)
        assert report.ok, report.violations[:1]

    def test_corrupted_character_is_caught(self):
        # q^3 z_1 of A_(2,0,0) is off by one: the lhs of its own equation and
        # the shifted rhs of the equation of (0,0,2) both see it
        report = verify_system(corrupted_provider((1, 0), 3), 2, 2, (4, 4), 10)
        assert report.checked == 150
        assert report.violations == [
            {
                "where": {"weight": [2, 0, 0], "n": [1, 0], "first_bad_exponent": 3},
                "expected": "QSeries(0; O(q^11))",
                "actual": "QSeries(q^3; O(q^11))",
            },
            {
                "where": {"weight": [0, 0, 2], "n": [1, 0], "first_bad_exponent": 4},
                "expected": "QSeries(q^2 + q^3 + 2*q^4 + q^5 + q^6 + q^7 + q^8"
                            " + q^9 + q^10; O(q^11))",
                "actual": "QSeries(q^2 + q^3 + q^4 + q^5 + q^6 + q^7 + q^8"
                          " + q^9 + q^10; O(q^11))",
            },
        ]

    def test_corruption_at_the_truncation_order_is_caught(self):
        # the top slot q^10 is compared; shifted into the rhs it leaves the window
        report = verify_system(corrupted_provider((1, 0), 10), 2, 2, (4, 4), 10)
        assert [v["where"] for v in report.violations] == [
            {"weight": [2, 0, 0], "n": [1, 0], "first_bad_exponent": 10},
        ]

    def test_corruption_at_the_lowest_shifted_exponent_is_caught(self):
        # q^0 z_1 z_2 of A_(2,0,0) lands on q^|n| = q^2 in the rhs of (0,0,2)
        report = verify_system(corrupted_provider((1, 1), 0), 2, 2, (4, 4), 10)
        assert [v["where"] for v in report.violations] == [
            {"weight": [2, 0, 0], "n": [1, 1], "first_bad_exponent": 0},
            {"weight": [0, 0, 2], "n": [1, 1], "first_bad_exponent": 2},
        ]

    def test_window_mismatch_rejected(self):
        provider = oracle_provider(2, 9, (4, 4))
        with pytest.raises(ValueError):
            verify_system(provider, 2, 2, (5, 5), 9)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_closed_formula_characters_satisfy_system(self, level):
        from fstchar.fermionic import character_fermionic

        cache = {}

        def provider(w):
            if w not in cache:
                cache[w] = character_fermionic(w, 10, (4, 4))
            return cache[w]

        report = verify_system(provider, level, 2, (4, 4), 10)
        assert report.ok, report.violations[:1]
