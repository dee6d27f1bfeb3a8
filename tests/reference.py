"""Product-form and brute-force references that the tests compare the library with.

No route of the package calls these.  They are written with `QSeries`
products, the package's enumeration and direct window sums, so that the
closed sums, the censuses, the recurrence equations and the configuration
stream are checked against forms that share none of their shortcuts.  The
summation walk is checked against its plain recursive form, `index_walk`.
Import them like `conftest`.
"""

from itertools import accumulate
from operator import mul

from fstchar.admissible import weight_parts
from fstchar.charseries import CharSeries
from fstchar.qseries import QSeries, inv_pochhammer
from fstchar.specialize import prefix_census


def is_admissible(config, l, weight):
    """Window sums <= level everywhere and all l partial-sum initial bounds.

    The brute-force reference for the stream of `enumerate_configs`.
    """
    parts = weight_parts(weight, l)
    bounds = tuple(accumulate(parts[:l]))
    config = tuple(config)
    if any(a < 0 for a in config):
        raise ValueError("configuration entries must be >= 0")
    k = sum(parts)
    for i in range(len(config)):
        if sum(config[i:i + l + 1]) > k:
            return False
    for r in range(l):
        if sum(config[:r + 1]) > bounds[r]:
            return False
    return True


def gaussian_binomial(m, n, q_order):
    """Gaussian binomial [m over n]_q, or the zero series outside 0 <= n <= m.

    Computed as prod_{i=1..n} (1 - q^{m-n+i}) / (q)_n; factors beyond the
    truncation order are congruent to 1 and skipped, so m may be huge.
    """
    if n < 0 or n > m:
        return QSeries.zero(q_order)
    out = inv_pochhammer(n, q_order)
    for i in range(1, n + 1):
        e = m - n + i
        if e <= q_order:
            out = out * QSeries({0: 1, e: -1}, q_order)
    return out


def bounded_census(k, a, b, energy_max):
    """Census of the set the fermionic sum counts: a_0 <= a, a_1 <= b + 2(a - a_0)."""
    total = QSeries.zero(energy_max)
    for a0 in range(a + 1):
        for a1 in range(min(b + 2 * (a - a0), k - a0) + 1):
            total = total + prefix_census(k, a0, a1, energy_max)
    return total


def colored_partitions(l, d):
    """p_l(d), the number of l-colored partitions of d.

    From the recurrence n p_l(n) = l * sum_{j=1..n} sigma(j) p_l(n - j), the
    logarithmic derivative of prod_m (1 - q^m)^(-l); sigma(j) is the sum of
    the divisors of j.
    """
    sigma = [0] * (d + 1)
    for m in range(1, d + 1):
        for j in range(m, d + 1, m):
            sigma[j] += m
    p = [1]
    for n in range(1, d + 1):
        p.append(l * sum(sigma[j] * p[n - j] for j in range(1, n + 1)) // n)
    return p[d]


def N1(N, i):
    """N_{1,i} of NSequences N, with the phantom N_{1,k+1} = 0."""
    return N.n1[i - 1] if i <= N.k else 0


def N2(N, i):
    """N_{2,i} of NSequences N, with the phantom N_{2,0} = 0."""
    return N.n2[i - 1] if i >= 1 else 0


def row(terms, q_order):
    """The dense row of length q_order + 1 with the coefficients {e: c}."""
    return tuple(terms.get(e, 0) for e in range(q_order + 1))


def shift(series, exponent):
    """series times q^exponent; the truncation order moves along."""
    return QSeries({e + exponent: c for e, c in series.coeffs.items()},
                   series.trunc + exponent)


def _moved_row(coeffs, exponent):
    """A row times q^exponent, exponent >= 0, cut at the row's length."""
    out = [0] * len(coeffs)
    for e, c in enumerate(coeffs):
        if e + exponent < len(out):
            out[e + exponent] = c
    return out


def char_sum(a, b, sign=1):
    """a + sign * b for two CharSeries on the same window."""
    if (a.caps, a.q_order) != (b.caps, b.q_order):
        raise ValueError(f"window mismatch: {a.caps}/{a.q_order} "
                         f"vs {b.caps}/{b.q_order}")
    terms = {n: list(coeffs) for n, coeffs in a.coeffs.items()}
    for n, coeffs in b.coeffs.items():
        total = terms.setdefault(n, [0] * (a.q_order + 1))
        for e, c in enumerate(coeffs):
            total[e] += sign * c
    return CharSeries(a.caps, a.q_order, terms)


def scale_by_monomial(char, q_shift, z_shifts):
    """char times q^{q_shift} prod z_i^{z_shifts[i]}, kept on char's window.

    Exponent vectors pushed outside the caps are dropped, as out-of-range
    character coefficients vanish.
    """
    terms = {}
    for n, coeffs in char.coeffs.items():
        moved = tuple(x + s for x, s in zip(n, z_shifts))
        if all(0 <= x <= c for x, c in zip(moved, char.caps)):
            terms[moved] = _moved_row(coeffs, q_shift)
    return CharSeries(char.caps, char.q_order, terms)


def dilate(char):
    """Substitute z_i -> z_i q: the coefficient at n picks up q^{n_1+...+n_l}."""
    return CharSeries(char.caps, char.q_order, {
        n: _moved_row(coeffs, sum(n)) for n, coeffs in char.coeffs.items()
    })


def index_walk(matrix, steps, sizes, caps, q_order, visit):
    """The walk of `qseries.index_walk`, recursing once per unit of every entry.

    Each unit of m_i sums its raise (M m)_i + steps_i afresh, and each leaf
    is one more call.  The library's walk visits the same (m, n, expo, key)
    in the same order.
    """
    m = [0] * len(steps)
    n = [0] * len(caps)
    # (v, sizes[v][i]) for each z-degree n_v that one unit of m_i raises
    raises = [[(v, row[i]) for v, row in enumerate(sizes) if row[i]]
              for i in range(len(m))]

    def extend(i, expo):
        if i == len(m):
            visit(m, n, expo, tuple(sorted([x for x in m if x])))
            return
        row, up = matrix[i], raises[i]
        while expo <= q_order:
            extend(i + 1, expo)
            # entries after i are still 0, so this is (M m)_i
            expo += sum(map(mul, row, m)) + steps[i]
            m[i] += 1
            if up:
                over = False
                for v, s in up:
                    n[v] += s
                    over |= n[v] > caps[v]
                if over:
                    break
        for v, s in up:
            n[v] -= s * m[i]
        m[i] = 0

    if min(caps, default=0) >= 0 and q_order >= 0:
        extend(0, 0)
