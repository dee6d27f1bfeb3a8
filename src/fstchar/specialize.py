"""Known one-variable character forms and the specialization cross-checks.

Two specializations collapse the two-variable characters:

    spec_1:  q -> q^2,  z_1 -> q^{-2} z,  z_2 -> q^{-1} z   (`charseries.specialize`)
    spec_2:  spec_1 at z = 1,  z_1 -> q^{-2},  z_2 -> q^{-1}  (`spec2`)

Under spec_2 a configuration of degree d and weight (n_1, n_2) lands on
q^{2d - 2n_1 - n_2}, and 2d - 2n_1 - n_2 equals its first moment
sum_i i*a_i, which is why spec_2 outputs match first-moment censuses.

The comparison targets are two previously known closed forms: a principally
specialized double sum over (q^2)-Pochhammer denominators (k_2 = 0 only,
"fjmmt" below) and a level-k fermionic sum with Gaussian-binomial factors
("fjmmt2" below, finite or stabilized infinite site count).  Each is walked
from a matrix and one vector r (`fjmmt_matrix`, `fjmmt_r_vector`;
`fjmmt2_matrix`, `fjmmt2_r_vector`) by `qseries.index_walk`, the walk of
the closed formula's NSequences too, and both spec_2 checks build their
report through one frame, `_spec2_frame`.
"""

from functools import lru_cache
from operator import add, mul
from sys import maxsize

from .admissible import _walk, character_oracle, weight_parts
from .charseries import spec1_cell, specialize
from .fermionic import character_fermionic
from .qseries import CACHE_SIZE, QSeries, denominator_row, index_walk
from .reporting import CheckReport


def spec2(char):
    """spec_2 of a two-variable character: q^m z^n -> q^{2m - 2n_1 - n_2}.

    Every cell goes through spec_1's cell map, `charseries.spec1_cell`.
    Valid to 2Q - 2cap_1 - cap_2 on the window.  Cells beyond the caps count
    as zero, so the caller's window must bound them, as `spec2_window` does.
    """
    cap1, cap2 = char.caps
    terms = {}
    for (n1, n2), row in char.coeffs.items():
        spec1_cell(terms, n1, n2, row)
    return QSeries(terms, 2 * char.q_order - 2 * cap1 - cap2)


# -- principal specialization sum (k_2 = 0) ---------------------------------


def fjmmt_matrix(k):
    """2k x 2k block matrix ((A2 B3) (B3 A2)), A2_ab = 2min(a,b), B3_ab = max(0, a+b-k)."""
    a2 = [[2 * min(a, b) for b in range(1, k + 1)] for a in range(1, k + 1)]
    b3 = [[max(0, a + b - k) for b in range(1, k + 1)] for a in range(1, k + 1)]
    top = [a2[i] + b3[i] for i in range(k)]
    bottom = [b3[i] + a2[i] for i in range(k)]
    return top + bottom


def fjmmt_r_vector(k, k0):
    """(0,...,0 | 2, 4, ..., 2(k-k0) | 1, 2, ..., k): blocks of sizes k0, k-k0, k.

    Per unit of m: 2c on the m_1 block, c = (0,...,0, 1, 2, ..., k-k0), and
    on the m_2 block the part size that the factor q^{l_2} contributes.
    """
    return (0,) * k0 + tuple(range(2, 2 * (k - k0) + 1, 2)) + tuple(range(1, k + 1))


def chi_fjmmt(k0, k1, z_cap, q_order, drop=0):
    """Principally specialized character for weights with k_2 = 0, as {n: QSeries}.

    The coefficient of z^n sums over m = (m_{1j} | m_{2j}) in N^{2k} with
    sum_j j*(m_{1j} + m_{2j}) = n of q^{m.A.m - diag(A).m + r.m} / prod
    (q^2)_{m_i}, A = `fjmmt_matrix`, r = `fjmmt_r_vector`, kept to order
    q_order - drop*n.  One more unit of m_i raises the exponent by
    (2A m)_i + r_i and n by its part size s_i, so `index_walk` bounds
    exponent + drop*n by q_order with steps r_i + drop*s_i; both only grow
    along each entry, so the cut is exact.  A term adds its shared
    `denominator_row` row at scale 2 (keyed by the sorted nonzero entries of
    m, which the walk hands it) at its exponent into the accumulator list
    of its z-degree, of length q_order - drop*n + 1; no product is taken.
    A scale-2 row is 0 at every odd exponent, so only its even entries are
    added, at stride 2 from the term's exponent.
    """
    k0, k1, _ = weight_parts((k0, k1, 0), 2)
    k = k0 + k1
    terms = {n: [0] * (q_order - drop * n + 1) for n in range(z_cap + 1)}

    def add_term(m, degrees, expo, key):
        n, = degrees
        denom = denominator_row(key, q_order, 2)
        acc = terms[n]
        expo -= drop * n
        # a scale-2 row is 0 at every odd exponent: add its even entries
        # only; acc is no longer than denom, so the two slices match
        acc[expo::2] = map(add, acc[expo::2], denom[::2])

    double = [[2 * x for x in row] for row in fjmmt_matrix(k)]
    sizes = [j % k + 1 for j in range(2 * k)]  # part size of m_j in l_1 or l_2
    steps = [r + drop * s for r, s in zip(fjmmt_r_vector(k, k0), sizes)]
    index_walk(double, steps, (sizes,), (z_cap,), q_order, add_term)
    return {n: QSeries.from_row(acc, q_order - drop * n) for n, acc in terms.items()}


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


@lru_cache(maxsize=CACHE_SIZE)
def chi_fjmmt2(a, b, k, n_sites, q_order):
    """The level-k fermionic sum with Gaussian-binomial factors, as a QSeries.

    The sum runs over m in N^k of
    q^{(m.A.m - diag(A).m)/2 + r.m} prod_j [top_j over m_j]_q with
    top_j = j*n_sites - (A m)_j + A_jj - r_j + m_j.  One more unit of m_j
    raises the exponent by (A m)_j + r_j, the data `index_walk` runs on,
    with no size row since the sum has no z.

    n_sites = None means unbounded site count: every binomial is replaced by
    its stabilized value 1/(q)_{m_j}, so a term is its shared denominator
    row from `denominator_row` at scale 1, added into one accumulator list
    at its exponent.  For a finite n_sites a term is a list copy of that
    row cut to the order left above its exponent, multiplied in place by the
    numerator factors (1 - q^e), e = top_j - m_j + 1 .. top_j, that fall
    within that order; a binomial with top_j < m_j drops the term.

    For a + b > k the pair is saturated to (a, k - a): the configuration
    constraint encoded by b is already slack there, and larger b values
    describe the same set.  This matches the out-of-range terms produced by
    the alternating-sum identity for weights with k_2 = 0.

    Cached: the spec_2 checks of one level repeat the same stabilized sums.
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

    def add_term(m, _, expo, key):
        term = denominator_row(key, q_order)
        if n_sites is not None:
            order = q_order - expo
            term = list(term[:order + 1])
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

    index_walk(matrix, r, (), (), q_order, add_term)
    return QSeries.from_row(total, q_order)


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


@lru_cache(maxsize=CACHE_SIZE)
def prefix_census(k, a, b, energy_max):
    """sum q^{first moment} over admissible configs with exact prefix a_0=a, a_1=b.

    Counts the moments that `admissible._walk` carries over the window that
    `enumerate_configs` streams for weight (k, 0, 0) and prefix (a, b).
    Cached: the union checks of one level share most of their prefixes.
    """
    terms = {}
    for _, e in _walk(2, k, (k, k), (a, b), maxsize, (maxsize, maxsize), energy_max):
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


def _spec2_frame(name, character, weight, q_order):
    """spec_2 of `character(weight, q_in, caps)` cut to q_order, and its report.

    The report is named `name[k_0,k_1,k_2]`.  A window short of q_order
    raises AssertionError; a negative exponent is a violation.  The caller
    adds its comparisons to the report.
    """
    caps, q_in = spec2_window(sum(weight), q_order)
    left = spec2(character(weight, q_in, caps))
    if left.trunc < q_order:
        raise AssertionError("window derivation failed to reach the target order")
    left = left.truncate(q_order)
    report = CheckReport(
        name=f"{name}[{','.join(map(str, weight))}]",
        window={"q_order": q_order, "caps": list(caps), "q_in": q_in},
    )
    if min(left.coeffs, default=0) < 0:
        report.add_violation({"issue": "negative exponent"}, "", left)
    return left, report


def verify_spec1(k0, k1, z_cap, q_order):
    """spec_1 of the closed-formula character against the principal sum.

    Both sides are compared per z-exponent on the guaranteed-valid order of
    the specialized side (2*q_order - 2n at z^n for n within the caps).  The
    principal sum is walked only to those orders (`drop=2`): a term's
    exponent and z-degree both only grow along each entry of its walk, so
    the cut at exponent + 2n <= 2*q_order keeps every term the check reads.
    """
    fer = character_fermionic((k0, k1, 0), q_order, (z_cap, z_cap))
    left = specialize(fer)
    right = chi_fjmmt(k0, k1, z_cap, 2 * q_order, drop=2)
    report = CheckReport(
        name=f"spec1[{k0},{k1}]",
        window={"z_cap": z_cap, "q_order": q_order},
    )
    for n in range(z_cap + 1):
        lhs = left[n]
        if min(lhs.coeffs, default=0) < 0:
            report.add_violation({"z": n, "issue": "negative exponent"}, "", lhs)
        report.check({"z": n}, right[n].truncate(lhs.trunc), lhs)
    return report


def verify_spec2(weight, q_order):
    """spec_2 of the closed-formula character against the fermionic sums.

    Checks the alternating two-diagonal combination for every weight, and
    additionally the single-term form when k_0 = 0 or k_2 = 0.
    """
    k0, k1, k2 = weight = weight_parts(weight, 2)
    left, report = _spec2_frame("spec2", character_fermionic, weight, q_order)
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
    k0, k1, _ = weight = weight_parts(weight, 2)
    left, report = _spec2_frame("spec2-union", character_oracle, weight, q_order)
    total = sum((prefix_census(sum(weight), a, b, q_order)
                 for a in range(k0 + 1) for b in range(k0 + k1 - a + 1)),
                QSeries.zero(q_order))
    report.check({"form": "prefix-union"}, total, left)
    return report
