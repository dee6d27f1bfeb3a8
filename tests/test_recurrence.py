import pytest

from fstchar.admissible import character_oracle
from fstchar.charseries import CharSeries
from fstchar.recurrence import (
    LEVEL2_SYSTEM,
    build_equation,
    build_system,
    level_weights,
    render_equation,
    render_system,
    verify_system,
    verify_transcription,
)


class TestIndexSets:
    """The left side of `build_equation`: one signed term per subset I of the
    support, by size and then lexicographically, each lowering k_i and
    raising k_{i+1} for i in I."""

    def test_single_support(self):
        lhs, _, _ = build_equation((2, 0, 0), 2)
        assert lhs == ((1, (2, 0, 0)), (-1, (1, 1, 0)))

    def test_full_support(self):
        lhs, _, _ = build_equation((1, 1, 0), 2)
        assert lhs == (
            (1, (1, 1, 0)), (-1, (0, 2, 0)), (-1, (1, 0, 1)), (1, (0, 1, 1)),
        )

    def test_empty_support(self):
        lhs, _, _ = build_equation((0, 0, 2), 2)
        assert lhs == ((1, (0, 0, 2)),)

    def test_apply_examples(self):
        # k_2 is outside the index range {0, 1}, so (1, 0, 1) lowers k_0 only
        lhs, _, _ = build_equation((1, 0, 1), 2)
        assert lhs == ((1, (1, 0, 1)), (-1, (0, 1, 1)))
        lhs, _, _ = build_equation((0, 2, 0), 2)
        assert lhs == ((1, (0, 2, 0)), (-1, (0, 1, 1)))


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
            equations = build_system(k, l)
            for (lhs, _, _), weight in zip(equations, level_weights(k, l)):
                support = sum(1 for x in weight[:l] if x)
                assert len(lhs) == 2 ** support

    def test_first_lhs_term_is_defining_weight(self):
        for (lhs, _, _), weight in zip(build_system(3, 2), level_weights(3, 2)):
            assert lhs[0] == (1, weight)

    def test_cyclic_rhs(self):
        _, rhs_weight, rhs_shift = build_system(2, 2)[2]  # weight (1, 0, 1)
        assert rhs_weight == (1, 1, 0)
        assert rhs_shift == (1, 0)

    def test_render_equation_off_rank_two(self):
        assert render_equation(build_equation((2, 1), 1)) == (
            "A[2,1](n1) - A[1,2](n1) = q^(n1) * A[1,2](n1-2)")
        assert render_equation(build_equation((1, 0, 1, 1), 3)) == (
            "A[1,0,1,1](n1,n2,n3) - A[0,1,1,1](n1,n2,n3)"
            " - A[1,0,0,2](n1,n2,n3) + A[0,1,0,2](n1,n2,n3)"
            " = q^(n1+n2+n3) * A[1,1,0,1](n1-1,n2,n3-1)")

    def test_golden_transcription(self):
        assert render_system(build_system(2, 2)) == LEVEL2_SYSTEM
        report = verify_transcription()
        assert report.ok and report.checked == 1


def oracle_table(k, q_order, caps):
    return {w: character_oracle(w, q_order, caps)
            for w in level_weights(k, len(caps))}


def corrupted_table(n, exponent):
    """Level-2 oracle characters on (4, 4), q^10, with q^exponent z^n of
    A_(2,0,0) off by one.

    The corruption goes through the JSON form, which does not depend on how
    a CharSeries stores its coefficients.
    """
    chars = oracle_table(2, 10, (4, 4))
    ch = chars[(2, 0, 0)]
    obj = ch.to_json()
    terms = {tuple(v): s for v, s in obj["terms"]}
    series = terms.get(n, {"trunc": ch.q_order, "terms": []})
    coeffs = {e: int(c) for e, c in series["terms"]}
    coeffs[exponent] = coeffs.get(exponent, 0) + 1
    terms[n] = {"trunc": ch.q_order,
                "terms": [[e, str(c)] for e, c in sorted(coeffs.items())]}
    obj["terms"] = [[list(v), terms[v]] for v in sorted(terms)]
    chars[(2, 0, 0)] = CharSeries.from_json(obj)
    return chars


class TestVerifySystem:
    def test_oracle_level2_rank2(self):
        report = verify_system(oracle_table(2, 12, (5, 5)))
        assert report.name == "recurrence-system[k=2,l=2]"
        assert report.window == {"caps": [5, 5], "q_order": 12}
        assert report.ok, report.violations[:1]
        assert report.checked == 6 * 36

    def test_oracle_level1_rank3(self):
        report = verify_system(oracle_table(1, 8, (3, 3, 3)))
        assert report.name == "recurrence-system[k=1,l=3]"
        assert report.ok, report.violations[:1]
        assert report.checked == 4 * 64

    def test_corrupted_character_is_caught(self):
        # q^3 z_1 of A_(2,0,0) is off by one: the lhs of its own equation and
        # the shifted rhs of the equation of (0,0,2) both see it
        report = verify_system(corrupted_table((1, 0), 3))
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
        report = verify_system(corrupted_table((1, 0), 10))
        assert [v["where"] for v in report.violations] == [
            {"weight": [2, 0, 0], "n": [1, 0], "first_bad_exponent": 10},
        ]

    def test_corruption_at_the_lowest_shifted_exponent_is_caught(self):
        # q^0 z_1 z_2 of A_(2,0,0) lands on q^|n| = q^2 in the rhs of (0,0,2)
        report = verify_system(corrupted_table((1, 1), 0))
        assert [v["where"] for v in report.violations] == [
            {"weight": [2, 0, 0], "n": [1, 1], "first_bad_exponent": 0},
            {"weight": [0, 0, 2], "n": [1, 1], "first_bad_exponent": 2},
        ]

    @pytest.mark.parametrize("table", [
        lambda: corrupted_table((1, 0), 3), lambda: oracle_table(2, 6, (2, 2, 2)),
    ], ids=["corrupted-l2", "oracle-l3"])
    def test_key_order_does_not_change_the_report(self, table):
        # the level, rank and window are read alike off any key or character;
        # the equations still come from build_system in canonical order
        chars = table()
        forward = verify_system(chars)
        backward = verify_system(dict(reversed(list(chars.items()))))
        assert next(iter(chars)) != next(reversed(chars))
        # name, window, checked and violations, in order
        assert backward.to_json() == forward.to_json()

    def test_window_mismatch_rejected(self):
        # one character on other caps or another order, at either end of the table
        for other in (character_oracle((0, 0, 2), 9, (5, 5)),
                      character_oracle((0, 0, 2), 8, (4, 4))):
            chars = oracle_table(2, 9, (4, 4))
            chars[(0, 0, 2)] = other
            with pytest.raises(ValueError, match="not on one window"):
                verify_system(chars)
            with pytest.raises(ValueError, match="not on one window"):
                verify_system(dict(reversed(list(chars.items()))))

    def test_missing_weight_is_a_key_error(self):
        chars = oracle_table(2, 4, (2, 2))
        del chars[(0, 1, 1)]
        with pytest.raises(KeyError):
            verify_system(chars)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_closed_formula_characters_satisfy_system(self, level):
        from fstchar.fermionic import character_fermionic

        chars = {w: character_fermionic(w, 10, (4, 4))
                 for w in level_weights(level, 2)}
        report = verify_system(chars)
        assert report.ok, report.violations[:1]
