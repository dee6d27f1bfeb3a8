"""Known one-variable character forms and the specialization cross-checks.

Two specializations collapse the two-variable characters:

    spec_1:  q -> q^2,  z_1 -> q^{-2} z,  z_2 -> q^{-1} z      (z survives)
    spec_2:  q -> q^2,  z_1 -> q^{-2},    z_2 -> q^{-1}        (scalar)

Under spec_2 a configuration of degree d and weight (n_1, n_2) lands on
q^{2d - 2n_1 - n_2}, and 2d - 2n_1 - n_2 equals its first moment
sum_i i*a_i, which is why spec_2 outputs match first-moment censuses.

The comparison targets are two previously known closed forms: a principally
specialized double sum over (q^2)-Pochhammer denominators (k_2 = 0 only,
"fjmmt" below) and a level-k fermionic sum with Gaussian-binomial factors
("fjmmt2" below, finite or stabilized infinite site count).
"""

from operator import add, mul

from .admissible import character_oracle, energy, enumerate_configs, weight_parts
from .charseries import specialize
from .fermionic import character_fermionic
from .qseries import QSeries, divide_pochhammer
from .reporting import CheckReport


def spec1(char):
    """Apply spec_1 to a two-variable character; returns {z-exponent: QSeries}."""
    return specialize(char, True)


def spec2(char):
    """Apply spec_2 to a two-variable character; returns one QSeries."""
    return specialize(char, False)


# -- principal specialization sum (k_2 = 0) ---------------------------------


def fjmmt_matrix(k):
    """2k x 2k block matrix ((A2 B3) (B3 A2)), A2_ab = 2min(a,b), B3_ab = max(0, a+b-k)."""
    a2 = [[2 * min(a, b) for b in range(1, k + 1)] for a in range(1, k + 1)]
    b3 = [[max(0, a + b - k) for b in range(1, k + 1)] for a in range(1, k + 1)]
    top = [a2[i] + b3[i] for i in range(k)]
    bottom = [b3[i] + a2[i] for i in range(k)]
    return top + bottom


def fjmmt_c_vector(k, k0):
    """(0,...,0, 1, 2, ..., k-k0, 0,...,0): k0 leading zeros, then a zero block."""
    return tuple([0] * k0 + list(range(1, k - k0 + 1)) + [0] * k)


def fjmmt_linear_coeffs(k, k0):
    """Effective linear exponent per unit of m, with the overall q^{l_2} folded in."""
    matrix = fjmmt_matrix(k)
    c = fjmmt_c_vector(k, k0)
    coeffs = []
    for i in range(2 * k):
        value = -matrix[i][i] + 2 * c[i]
        if i >= k:
            value += i - k + 1  # q^{l_2} contributes the part size per unit
        coeffs.append(value)
    return tuple(coeffs)


def _denominators(q_order, scale):
    """Lookup of the coefficient lists of 1/prod_j (q^scale; q^scale)_{m_j}.

    The key is the sorted tuple of nonzero multiplicities m_j, and each list
    runs to q_order.  The returned lookup builds each list once: a copy of
    its prefix key's list divided in place by (q^scale; q^scale)_{m} for
    the key's last entry m (`divide_pochhammer`).  Callers only read the
    lists.
    """
    denominators = {(): [1] + [0] * q_order}

    def denominator(key):
        denom = denominators.get(key)
        if denom is None:
            denom = denominator(key[:-1])[:]
            divide_pochhammer(denom, key[-1], scale)
            denominators[key] = denom
        return denom

    return denominator


def chi_fjmmt(k0, k1, z_cap, q_order):
    """Principally specialized character for weights with k_2 = 0, as {n: QSeries}.

    Coefficient of z^n sums over l_1 + l_2 = n and exponent vectors m with
    sum_j j*m_{ij} = l_i the term
    q^{m.A.m - diag(A).m + 2c.m + l_2} / prod (q^2)_{m_{ij}}.

    One more unit of m_i raises the exponent by
    2 A_ii m_i + 2 sum_{j != i} A_ij m_j + 2 c_i (+ its part size on the
    second block), which is >= 0, and raises n by the part size, so the
    vectors m are enumerated entry by entry and each entry stops growing
    once the exponent exceeds q_order or n exceeds z_cap.  The denominators
    come from `_denominators` at scale 2.  Each z-degree keeps one
    accumulator list, and a term adds its denominator into it at offset
    `expo`; no series product is taken.
    """
    k0, k1, _ = weight_parts((k0, k1, 0), 2)
    k = k0 + k1
    matrix = fjmmt_matrix(k)
    linear = fjmmt_linear_coeffs(k, k0)
    sizes = [j % k + 1 for j in range(2 * k)]  # part size of m_j in l_1 or l_2
    # one more unit of m_i adds 2 sum_j A_ij m_j + A_ii + linear_i
    steps = [matrix[i][i] + linear[i] for i in range(2 * k)]
    terms = {n: [0] * (q_order + 1) for n in range(z_cap + 1)}
    # terms are reached only with 0 <= expo <= q_order
    denominator = _denominators(q_order, 2)
    m = [0] * (2 * k)

    def extend(i, n, expo):
        if i == 2 * k:
            denom = denominator(tuple(sorted(x for x in m if x)))
            acc = terms[n]
            acc[expo:] = map(add, acc[expo:], denom)
            return
        row = matrix[i]
        while n <= z_cap and expo <= q_order:
            extend(i + 1, n, expo)
            # entries after i are still 0
            expo += 2 * sum(row[j] * m[j] for j in range(i + 1)) + steps[i]
            m[i] += 1
            n += sizes[i]
        m[i] = 0

    extend(0, 0, 0)
    return {n: QSeries.from_row(acc) for n, acc in terms.items()}


# -- level-k fermionic sum with Gaussian binomials ---------------------------


def fjmmt2_matrix(k):
    """k x k matrix with entries 2min(i,j) + max(i+j-k, 0), 1-based."""
    return [
        [2 * min(i, j) + max(i + j - k, 0) for j in range(1, k + 1)]
        for i in range(1, k + 1)
    ]


def fjmmt2_r_vector(k, a, b):
    """(0,...,0 | 1,...,b | b+2, b+4, ..., 2k-2a-b): blocks of sizes a, b, k-a-b."""
    if a < 0 or b < 0 or a + b > k:
        raise ValueError(f"need a, b >= 0 with a + b <= {k}")
    return tuple(
        [0] * a + list(range(1, b + 1)) + list(range(b + 2, 2 * k - 2 * a - b + 1, 2))
    )


def chi_fjmmt2(a, b, k, n_sites, q_order):
    """The level-k fermionic sum with Gaussian-binomial factors, as a QSeries.

    The sum runs over m in N^k of
    q^{(m.A.m - diag(A).m)/2 + r.m} prod_j [top_j over m_j]_q with
    top_j = j*n_sites - (A m)_j + A_jj - r_j + m_j.  One more unit of m_j
    raises the exponent by (A m)_j + r_j >= 0, so the vectors m are
    enumerated entry by entry and each entry stops growing once the
    exponent exceeds q_order.

    n_sites = None means unbounded site count: every binomial is replaced by
    its stabilized value 1/(q)_{m_j}, so a term is its denominator from
    `_denominators` at scale 1, added into one accumulator list at its
    exponent.  For a finite n_sites a term is a copy of the denominator cut
    to the order left above its exponent, multiplied in place by the
    numerator factors (1 - q^e), e = top_j - m_j + 1 .. top_j, that fall
    within that order; a binomial with top_j < m_j drops the term.

    For a + b > k the pair is saturated to (a, k - a): the configuration
    constraint encoded by b is already slack there, and larger b values
    describe the same set.  This matches the out-of-range terms produced by
    the alternating-sum identity for weights with k_2 = 0.
    """
    if k < 1:
        raise ValueError(f"need level k >= 1, got {k}")
    if not 0 <= a <= k or b < 0:
        raise ValueError(f"need 0 <= a <= {k} and b >= 0")
    if a + b > k:
        b = k - a
    matrix = fjmmt2_matrix(k)
    r = fjmmt2_r_vector(k, a, b)
    total = [0] * (q_order + 1)
    denominator = _denominators(q_order, 1)
    m = [0] * k

    def add_term(expo):
        term = denominator(tuple(sorted(x for x in m if x)))
        if n_sites is not None:
            order = q_order - expo
            term = term[:order + 1]
            for j, mj in enumerate(m):
                if not mj:
                    continue
                row = matrix[j]
                top = (j + 1) * n_sites - sum(map(mul, row, m)) + row[j] - r[j] + mj
                if top < mj:
                    return
                for e in range(top - mj + 1, min(top, order) + 1):
                    for i in range(order, e - 1, -1):
                        term[i] -= term[i - e]
        total[expo:] = map(add, total[expo:], term)

    def extend(j, expo):
        if j == k:
            add_term(expo)
            return
        row = matrix[j]
        while expo <= q_order:
            extend(j + 1, expo)
            # entries after j are still 0
            expo += sum(row[i] * m[i] for i in range(j + 1)) + r[j]
            m[j] += 1
        m[j] = 0

    extend(0, 0)
    return QSeries.from_row(total)


def chi_fjmmt2_alternating(weight, q_order):
    """The two-diagonal alternating combination attached to a weight triple."""
    k0, k1, k2 = weight_parts(weight, 2)
    k = k0 + k1 + k2
    s = k0 + k1
    total = QSeries.zero(q_order)
    for j in range(k0 + 1):
        total = total + chi_fjmmt2(j, s - j, k, None, q_order)
    for j in range(k0):
        total = total - chi_fjmmt2(j, s + 1 - j, k, None, q_order)
    return total


# -- censuses (brute-force side of the comparisons) --------------------------


def prefix_census(k, a, b, energy_max):
    """sum q^{first moment} over admissible configs with exact prefix a_0=a, a_1=b."""
    terms = {}
    for config in enumerate_configs(
        2, (k, 0, 0), init_prefix=(a, b), energy_max=energy_max
    ):
        e = energy(config)
        terms[e] = terms.get(e, 0) + 1
    return QSeries(terms, energy_max)


# -- executable comparisons ---------------------------------------------------


def spec2_window(level, q_order):
    """Window on which spec_2 of a level-`level` character is exact to q_order.

    A configuration with weight (n_1, n_2) has first moment at least
    max(2(n_1 - level), n_2), so vectors beyond these caps only feed
    exponents above q_order; the input q-order then keeps the truncation
    guarantee at or above q_order as well.
    """
    caps = (level + q_order // 2, q_order)
    q_in = (3 * q_order + 2 * level + 1) // 2
    return caps, q_in


def verify_spec1(k0, k1, z_cap, q_order):
    """spec_1 of the closed-formula character against the principal sum.

    Both sides are compared per z-exponent on the guaranteed-valid order of
    the specialized side (2*q_order - 2n at z^n for n within the caps).
    """
    fer = character_fermionic((k0, k1, 0), q_order, (z_cap, z_cap))
    left = spec1(fer)
    right = chi_fjmmt(k0, k1, z_cap, 2 * q_order)
    report = CheckReport(
        name=f"spec1[{k0},{k1}]",
        window={"z_cap": z_cap, "q_order": q_order},
    )
    for n in range(z_cap + 1):
        lhs = left[n]
        if lhs.min_exponent() is not None and lhs.min_exponent() < 0:
            report.add_violation(
                where={"z": n, "issue": "negative exponent"}, expected="", actual=lhs
            )
        report.check({"z": n}, right[n].truncate(lhs.trunc), lhs)
    return report


def verify_spec2(weight, q_order):
    """spec_2 of the closed-formula character against the fermionic sums.

    Checks the alternating two-diagonal combination for every weight, and
    additionally the single-term form when k_0 = 0 or k_2 = 0.
    """
    weight = weight_parts(weight, 2)
    k0, k1, k2 = weight
    caps, q_in = spec2_window(sum(weight), q_order)
    left = spec2(character_fermionic(weight, q_in, caps))
    if left.trunc < q_order:
        raise AssertionError("window derivation failed to reach the target order")
    left = left.truncate(q_order)
    report = CheckReport(
        name=f"spec2[{k0},{k1},{k2}]",
        window={"q_order": q_order, "caps": list(caps), "q_in": q_in},
    )
    if left.min_exponent() is not None and left.min_exponent() < 0:
        report.add_violation(
            where={"issue": "negative exponent"}, expected="", actual=left
        )
    report.check({"form": "alternating"},
                 chi_fjmmt2_alternating(weight, q_order), left)
    if k0 == 0 or k2 == 0:
        report.check({"form": "single-term"},
                     chi_fjmmt2(k0, k1, sum(weight), None, q_order), left)
    return report


def verify_union_identity(weight, q_order):
    """spec_2 of the brute-force character equals the sum of prefix censuses.

    The admissible set for a weight decomposes by the exact values of
    (a_0, a_1) into the prefixes with a_0 <= k_0, a_0 + a_1 <= k_0 + k_1.
    """
    weight = weight_parts(weight, 2)
    k0, k1, _ = weight
    caps, q_in = spec2_window(sum(weight), q_order)
    left = spec2(character_oracle(2, weight, q_in, caps)).truncate(q_order)
    total = QSeries.zero(q_order)
    for a in range(k0 + 1):
        for b in range(k0 + k1 - a + 1):
            total = total + prefix_census(sum(weight), a, b, q_order).truncate(q_order)
    report = CheckReport(
        name=f"spec2-union[{','.join(map(str, weight))}]",
        window={"q_order": q_order, "caps": list(caps), "q_in": q_in},
    )
    report.check({"form": "prefix-union"}, total, left)
    return report
