"""Acceptance suite: every criterion at its stated window, exact equality.

Each test prints one PASS/FAIL line (run pytest -s to see them).  All
comparisons are exact integer equality of truncated coefficients; there are
no tolerances anywhere.
"""

import time
from importlib import resources

from conftest import POLY_ORDER, nsequence_battery
from reference import gaussian_binomial

from fstchar.admissible import (
    character_oracle,
    degree_weight,
    energy,
    enumerate_configs,
)
from fstchar.fermionic import character_fermionic, identity_battery, linear_term
from fstchar.qseries import QSeries, inv_pochhammer, pochhammer
from fstchar.recurrence import build_system, level_weights, render_system, verify_system
from fstchar.specialize import verify_spec1, verify_spec2, verify_union_identity

from test_fermionic import expected_level2_linear_term


def report_line(number, name, ok, detail):
    print(f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_oracle_equals_fermionic():
    q_order = 20
    started = time.time()
    compared = 0
    mismatches = []
    for level, cap in ((1, 8), (2, 8), (3, 6)):
        caps = (cap, cap)
        for w in level_weights(level, 2):
            oracle = character_oracle(w, q_order, caps)
            closed = character_fermionic(w, q_order, caps)
            compared += (cap + 1) ** 2
            if oracle != closed:
                mismatches.append(w)
    elapsed = time.time() - started
    ok = not mismatches
    report_line(
        1, "oracle == closed formula",
        ok, f"k<=3, q-order {q_order}, {compared} coefficients, {elapsed:.1f}s",
    )
    assert ok, mismatches


def test_criterion_2_recurrence_system():
    windows = {
        (2, 1): ((8, 8), 20),
        (2, 2): ((8, 8), 20),
        (2, 3): ((6, 6), 20),
        (3, 1): ((5, 5, 5), 14),
        (3, 2): ((5, 5, 5), 12),
    }
    checked = 0
    bad = []
    for (l, level), (caps, q_order) in windows.items():
        report = verify_system({w: character_oracle(w, q_order, caps)
                                for w in level_weights(level, l)})
        checked += report.checked
        if not report.ok:
            bad.append(((l, level), report.violations[0]))
    golden = (
        resources.files("fstchar.data")
        .joinpath("system_l2_k2.txt")
        .read_text(encoding="utf-8")
    )
    golden_ok = render_system(build_system(2, 2)) == golden
    ok = not bad and golden_ok
    report_line(
        2, "recurrence system + golden",
        ok, f"{checked} coefficient identities, golden={'match' if golden_ok else 'DIFF'}",
    )
    assert ok, bad


def test_criterion_3_printed_linear_terms():
    weights = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    instances = nsequence_battery(2, count=20, seed=71)
    checked = 0
    bad = []
    for w in weights:
        for N in instances:
            got = linear_term(w, N, POLY_ORDER)
            want = expected_level2_linear_term(w, N, POLY_ORDER)
            checked += 1
            if got != want:
                bad.append((w, N))
    # the printed cancellation: the two-summand form collapses to one power
    for N in instances:
        want = QSeries({N.n1[1]: 1}, POLY_ORDER)
        checked += 1
        if linear_term((1, 1, 0), N, POLY_ORDER) != want:
            bad.append(((1, 1, 0), "cancellation", N))
    ok = not bad
    report_line(
        3, "printed level-2 linear terms",
        ok, f"{checked} instantiations across 6 weights",
    )
    assert ok, bad[:3]


def test_criterion_4_lemma_suite():
    started = time.time()
    reports = [identity_battery(k) for k in range(1, 6)]
    elapsed = time.time() - started
    checked = sum(r.checked for r in reports)
    ok = all(r.ok for r in reports)
    report_line(
        4, "pattern-calculus identity suite",
        ok, f"k<=5, {checked} identity instances, {elapsed:.1f}s",
    )
    assert ok, [v for r in reports for v in r.violations[:1]]


def test_criterion_5_spec1_equalities():
    q_order = 20
    cases = []
    for k0 in range(2, -1, -1):
        cases.append((k0, 2 - k0, 8))
    cases.append((1, 0, 6))
    cases.append((0, 1, 6))
    for k0 in range(3, -1, -1):
        cases.append((k0, 3 - k0, 6))
    checked = 0
    bad = []
    for k0, k1, z_cap in cases:
        report = verify_spec1(k0, k1, z_cap, q_order)
        checked += report.checked
        if not report.ok:
            bad.append(((k0, k1), report.violations[0]))
    ok = not bad
    report_line(
        5, "principal specialization equality",
        ok, f"k in {{1,2,3}}, {checked} z-coefficients",
    )
    assert ok, bad


def test_criterion_6_spec2_equalities():
    q_order = 16
    checked = 0
    bad = []
    for level in (1, 2):
        for w in level_weights(level, 2):
            for report in (
                verify_spec2(w, q_order),
                verify_union_identity(w, q_order),
            ):
                checked += report.checked
                if not report.ok:
                    bad.append((w, report.name, report.violations[0]))
    ok = not bad
    report_line(
        6, "scalar specialization equalities",
        ok, f"k<=2 at q-order {q_order}, {checked} series comparisons",
    )
    assert ok, bad


def test_criterion_7_degree_reconciliation():
    q_order = 20
    total = 0
    bad = []
    for level, cap in ((1, 8), (2, 8), (3, 6)):
        for w in level_weights(level, 2):
            for config in enumerate_configs(
                2, w, q_order=q_order, caps=(cap, cap)
            ):
                d, (n1, n2) = degree_weight(config, 2)
                total += 1
                if 2 * d - 2 * n1 - n2 != energy(config):
                    bad.append((w, config))
    ok = not bad and total > 2000
    report_line(
        7, "degree reconciliation",
        ok, f"{total} configurations, k<=3, q-order {q_order}",
    )
    assert ok, bad[:3]


def test_criterion_8_qseries_unit_properties():
    q_order = 24
    bad = []
    for n in range(13):
        if pochhammer(n, q_order) * inv_pochhammer(n, q_order) != QSeries.one(q_order):
            bad.append(("pochhammer-inverse", n))
    assert gaussian_binomial(0, 0, q_order) == QSeries.one(q_order)
    for m in range(1, 13):
        for n in range(m + 1):
            pascal = (gaussian_binomial(m - 1, n - 1, q_order)
                      + QSeries({n: 1}, q_order) * gaussian_binomial(m - 1, n, q_order))
            if gaussian_binomial(m, n, q_order) != pascal:
                bad.append(("pascal", m, n))
    for n in range(13):
        for m in (n + q_order, n + q_order + 7):
            if gaussian_binomial(m, n, q_order) != inv_pochhammer(n, q_order):
                bad.append(("stabilization", m, n))
    ok = not bad
    report_line(8, "q-series unit properties", ok, "n<=12 at q-order 24")
    assert ok, bad
