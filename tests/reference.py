"""Product-form references that the tests compare the library with.

No route of the package calls these.  They are written with `QSeries`
products and the package's enumeration, so that the closed sums, the
censuses and the recurrence equations are checked against forms that share
none of their shortcuts.  Import them like `conftest`.
"""

from fstchar.charseries import CharSeries
from fstchar.qseries import QSeries, inv_pochhammer
from fstchar.specialize import prefix_census


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


def N1(N, i):
    """N_{1,i} of NSequences N, with the phantom N_{1,k+1} = 0."""
    return N.n1[i - 1] if i <= N.k else 0


def N2(N, i):
    """N_{2,i} of NSequences N, with the phantom N_{2,0} = 0."""
    return N.n2[i - 1] if i >= 1 else 0


def char_sum(a, b, sign=1):
    """a + sign * b for two CharSeries on the same window."""
    if not a.same_window(b):
        raise ValueError(f"window mismatch: {a.caps}/{a.q_order} "
                         f"vs {b.caps}/{b.q_order}")
    terms = dict(a.coeffs)
    for n, series in b.coeffs.items():
        series = series if sign > 0 else -series
        terms[n] = terms[n] + series if n in terms else series
    return CharSeries(a.num_z, a.caps, a.q_order, terms)


def scale_by_monomial(char, q_shift, z_shifts):
    """char times q^{q_shift} prod z_i^{z_shifts[i]}, kept on char's window.

    Exponent vectors pushed outside the caps are dropped, as out-of-range
    character coefficients vanish.
    """
    terms = {}
    for n, series in char.coeffs.items():
        moved = tuple(x + s for x, s in zip(n, z_shifts))
        if all(0 <= x <= c for x, c in zip(moved, char.caps)):
            terms[moved] = series.shift(q_shift).truncate(char.q_order)
    return CharSeries(char.num_z, char.caps, char.q_order, terms)


def dilate(char):
    """Substitute z_i -> z_i q: the coefficient at n picks up q^{n_1+...+n_l}."""
    return CharSeries(char.num_z, char.caps, char.q_order, {
        n: series.shift(sum(n)).truncate(char.q_order)
        for n, series in char.coeffs.items()
    })
