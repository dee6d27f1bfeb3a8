"""Pattern calculus on {0,1}^k and the closed fermionic character formula.

Conventions.  A pattern p = (p_1, ..., p_k) is a plain tuple of bits.  Of
the boundary bits, d^1_p reads only p_{k+1} and d^2_p only p_0, so a
summand takes the one it reads as its `edge` bit, 0 unless a construction
says otherwise.  The two families of integer sequences are

    N_{1,1} >= N_{1,2} >= ... >= N_{1,k} >= 0     (axis 1, read decreasing)
    N_{2,k} >= N_{2,k-1} >= ... >= N_{2,1} >= 0   (axis 2, read increasing)

with phantom entries N_{1,k+1} = 0 and N_{2,0} = 0.  The building blocks:

    l^1_p = q^{sum p_i N_{1,i}}
    d^1_p = prod_{i=1..k} (1 - q^{N_{1,i}-N_{1,i+1}}  if p_i = 0, p_{i+1} = 1)
    l^2_p = q^{sum p_i N_{2,i}}
    d^2_p = prod_{i=1..k} (1 - q^{N_{2,i}-N_{2,i-1}}  if p_i = 0, p_{i-1} = 1)

A pattern sum is a generator of `_summand` templates, one per pattern.
The linear term is the one that is evaluated on N: `linear_term` for one
N, and `a_coefficient` through the same expansion loop, `_expand`.  Its
alternative, starred, m and n forms are generators that `identity_battery`
reads.  The battery does not evaluate templates on N: it expands each
distinct one once as a polynomial in the 2k gap variables x_s = q^{g_s}
of N (`_gap_polynomial`), and two sides that are equal polynomials agree
at every N.
The NSequences are walked through their gaps by `qseries.index_walk`, the
walk of both known sums (`_walk_records`).  All functions are pure.
"""

import itertools
import random
from functools import lru_cache
from operator import add, sub

from .admissible import weight_parts
from .charseries import CharSeries, dense_row
from .qseries import CACHE_SIZE, Frozen, QSeries, denominator_row, index_walk
from .recurrence import level_weights
from .reporting import CheckReport


class NSequences(Frozen):
    """The two monotone integer sequences a fermionic summand is built from.

    Built once with them: `entries` is n1 + n2, and `factors` holds the
    exponents x of the factors (1 - q^x) a summand can fire: the gaps
    N_{1,i} - N_{1,i+1}, then N_{2,i} - N_{2,i-1} (i = 1..k, phantom entries
    N_{1,k+1} = N_{2,0} = 0), then N_{2,1..k}.  The 2k gaps are also the
    Pochhammer factors of `a_coefficient`, and the sequences are valid
    exactly when no gap is negative.  Equal, hashed and pickled by (n1, n2)
    alone; the derived `entries` and `factors` are built again on unpickling.
    """

    __slots__ = ("n1", "n2", "entries", "factors")
    _args = ("n1", "n2")

    def __init__(self, n1, n2):
        n1, n2 = tuple(n1), tuple(n2)  # n1 weakly decreasing, n2 increasing
        if len(n1) != len(n2) or not n1:
            raise ValueError("n1 and n2 must have equal positive length")
        entries = n1 + n2
        # each entry less its neighbour: N_{1,i+1} on axis 1, N_{2,i-1} on axis 2
        gaps = tuple(map(sub, entries, n1[1:] + (0, 0) + n2[:-1]))
        if min(gaps) < 0:
            raise ValueError(f"need n1 weakly decreasing, n2 weakly increasing "
                             f"and entries >= 0: {n1}, {n2}")
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "factors", gaps + n2)

    @property
    def k(self):
        return len(self.n1)


def patterns(k, ones):
    """All of {0,1}^k with `ones` ones, in lexicographic order of their positions."""
    if k < 1:
        raise ValueError("patterns need length k >= 1")
    if not 0 <= ones <= k:
        return []
    out = []
    for ones_at in itertools.combinations(range(k), ones):
        bits = [0] * k
        for i in ones_at:
            bits[i] = 1
        out.append(tuple(bits))
    return out


def pattern_le(p, p2):
    """p <= p2 iff every prefix sum of p is >= the matching prefix sum of p2."""
    if len(p) != len(p2):
        raise ValueError("patterns must have equal length")
    acc1 = acc2 = 0
    for b1, b2 in zip(p, p2):
        acc1 += b1
        acc2 += b2
        if acc1 < acc2:
            return False
    return True


def flip_first(i, j, p):
    """Flip the first i occurrences of bit value j."""
    return _flip(i, j, p, range(len(p)))


def flip_last(i, j, p):
    """Flip the last i occurrences of bit value j."""
    return _flip(i, j, p, range(len(p) - 1, -1, -1))


def _flip(i, j, p, order):
    if j not in (0, 1):
        raise ValueError("bit value must be 0 or 1")
    if i < 0:
        raise ValueError("flip count must be >= 0")
    bits = list(p)
    left = i
    for m in order:
        if left == 0:
            break
        if bits[m] == j:
            bits[m] = 1 - j
            left -= 1
    if left:
        raise ValueError(f"pattern {p} has fewer than {i} entries equal to {j}")
    return tuple(bits)


def pos(value, j, p):
    """1-based position of the j-th occurrence of `value` in p."""
    if j < 1:
        raise ValueError("occurrence index is 1-based")
    seen = 0
    for m, b in enumerate(p, start=1):
        if b == value:
            seen += 1
            if seen == j:
                return m
    raise ValueError(f"pattern {p} has fewer than {j} entries equal to {value}")


def _fired(axis, p, edge):
    """0-based indices i - 1 of the factors (1 - q^{gap}) that d^axis_p fires.

    Axis 1 fires factor i when p_i = 0, p_{i+1} = 1, axis 2 when p_i = 0,
    p_{i-1} = 1; the bit `edge` stands in for p_{k+1} on axis 1 and for p_0
    on axis 2, the only boundary bit each reads.
    """
    bits = (edge,) + p + (edge,)
    step = 1 if axis == 1 else -1
    return [i - 1 for i in range(1, len(p) + 1) if not bits[i] and bits[i + step]]


def _summand(p1, p2, axis, p_delta, extra=None, edge=0):
    """l^1_{p1} l^2_{p2} d^axis_{p_delta}, times (1 - q^{N_{2,extra}}) if given.

    `edge` is the boundary bit d^axis reads (p_{k+1} on axis 1, p_0 on axis
    2).  Kept as the index template `(ones, slots)` that `_evaluate` and
    `_gap_polynomial` read: `ones` holds the positions of the 1-bits of
    `p1 + p2` in `N.entries`, so p2's bit i sits at k + i, and `slots` the
    positions of the factors' exponents in `N.factors`.
    """
    k = len(p1)
    ones = tuple(itertools.compress(range(2 * k), p1 + p2))
    offset = 0 if axis == 1 else k
    slots = tuple(offset + i for i in _fired(axis, p_delta, edge))
    if extra is not None:
        slots += (2 * k + extra - 1,)
    return ones, slots


@lru_cache(maxsize=CACHE_SIZE)
def _plan(summands, w):
    """The summand templates of one pattern sum at one weight, built once."""
    return tuple(summands(*w))


def _expand(templates, entries, factors, q_order, base, into):
    """Add q^base times the sum of the `_summand` templates on N into `into`.

    N is given by its `entries` and `factors` (see `NSequences`).  A
    template's exponent is base plus the sum of `entries` at its `ones`, and
    each factor (1 - q^gap) reads its gap in `factors` at its slot.  The
    product is expanded term by term into the {exponent: coeff} dict `into`,
    keeping nothing above q_order; a zero gap makes its factor, and so its
    summand, vanish.  The templates must have N's length.

    A template with no slots adds its one monomial directly.  The loops are
    written out, not as comprehensions, since Python 3.11 runs each
    comprehension as one more function call per template.
    """
    get = into.get
    for ones, slots in templates:
        e = base
        for i in ones:
            e += entries[i]
        if e > q_order:
            continue
        if not slots:
            into[e] = get(e, 0) + 1
            continue
        terms = [(e, 1)]
        for s in slots:
            g = factors[s]
            if not g:
                break
            for x, c in terms[:]:
                if x + g <= q_order:
                    terms.append((x + g, -c))
        else:
            for x, c in terms:
                into[x] = get(x, 0) + c


def _evaluate(templates, N, q_order):
    """Sum of the `_summand` templates on N, expanded sparsely to q_order."""
    total = {}
    _expand(templates, N.entries, N.factors, q_order, 0, total)
    return QSeries(total, q_order)


def _linear_term_summands(k0, k1, k2):
    """The linear term: patterns with k_1+k_2 ones, axis-1 deltas."""
    for p in patterns(k0 + k1 + k2, k1 + k2):
        yield _summand(p, flip_last(k1, 1, p), 1, p)


def _linear_term_alt_summands(k0, k1, k2):
    """Its equivalent form: patterns with k_2 ones, axis-2 deltas."""
    for p in patterns(k0 + k1 + k2, k2):
        yield _summand(flip_last(k1, 0, p), p, 2, p)


def _linear_term_star_summands(k0, k1, k2):
    """The starred variant: boundary bit p_{k+1} = 1, and the summand for p gains
    (1 - q^{N_{2,pos}}), pos locating the (k_2+1)-th one of p.  It and the
    two flipped sums below need a strictly positive triple."""
    for p in patterns(k0 + k1 + k2, k1 + k2):
        yield _summand(p, flip_last(k1, 1, p), 1, p, pos(1, k2 + 1, p), edge=1)


def _m_term_summands(k0, k1, k2):
    """m: patterns with k_0+k_2 ones, axis-2 deltas with boundary bit p_0 = 1."""
    for p in patterns(k0 + k1 + k2, k0 + k2):
        yield _summand(flip_first(k2, 1, p), p, 2, p, edge=1)


def _n_term_summands(k0, k1, k2):
    """n: patterns with k_0 ones; equals m (a checked identity)."""
    for p in patterns(k0 + k1 + k2, k0):
        flipped = flip_first(k2, 0, p)
        yield _summand(p, flipped, 1, p, extra=pos(0, 1, flipped))


def linear_term(w, N, q_order):
    """Sum over patterns with k_1+k_2 ones of l^1_p d^1_p l^2_{g(p)}.

    g moves the last k_1 ones to zeros before the axis-2 power is read off.
    Boundary bit 0 throughout.  Each summand is a monomial times the
    fired factors (1 - q^gap).  Its index template (`_summand`) is built once
    per weight and cached; on N the exponent is a sum of entries of N at the
    template's indices, and the product is expanded in one sparse dict with
    nothing above q_order, so a zero gap drops the summand and no series
    product is taken.  This is the public one-N evaluator; `a_coefficient`
    expands the same templates with `_expand`.  The variants above are
    template generators that `identity_battery` reads.
    """
    w = weight_parts(w, 2)
    if N.k != sum(w):
        raise ValueError("sequence length must equal the level")
    return _evaluate(_plan(_linear_term_summands, w), N, q_order)


def _walk_records(k, caps, q_order):
    """The NSequences N of length k with Q(N) <= q_order, by cell (n1, n2).

    A cell holds N with row sums (n1, n2) <= caps, each as the tuple
    `(base, key, entries, factors)`: base is Q(N) = sum N_{1,i}^2 + N_{2,i}^2
    + N_{1,i} N_{2,i}, key the sorted nonzero gaps as the walk hands them
    (equal keys are one shared tuple), entries and factors those of
    `NSequences`.  `index_walk` runs on the gaps g:
    N_{1,i} = sum_{j>=i} g_{1,j}, N_{2,i} = sum_{j<=i} g_{2,j}.  So
    Q = g.S.g, S_ab = min(a, b) on g_1, k - max(a, b) + 1 on g_2 and
    max(0, a - b + 1) / 2 at g_{1,a} g_{2,b}; n1 = sum j g_{1,j} and
    n2 = sum (k - j + 1) g_{2,j}.
    """
    ks = range(1, k + 1)
    cross = [[max(0, a - b + 1) for b in ks] for a in ks]  # 2S at g_{1,a} g_{2,b}
    matrix = [[2 * min(a, b) for b in ks] + cross[a - 1] for a in ks] + [
        [*column, *[2 * (k - max(a, b) + 1) for b in ks]]
        for a, column in zip(ks, zip(*cross))]
    sizes = ([*ks] + [0] * k, [0] * k + [k - j + 1 for j in ks])
    cells, keys = {}, {}

    def record(g, cell, base, key):
        g, cell = tuple(g), tuple(cell)
        n1 = tuple(itertools.accumulate(g[k - 1::-1]))[::-1]
        n2 = tuple(itertools.accumulate(g[k:]))
        cells.setdefault(cell, []).append(
            (base, keys.setdefault(key, key), n1 + n2, g + n2))

    steps = [row[i] // 2 for i, row in enumerate(matrix)]
    index_walk(matrix, steps, sizes, caps, q_order, record)
    return cells


def n_sequence_pairs(k, n1, n2, q_order):
    """The list of NSequences with row sums n1, n2 and Q(N) <= q_order.

    Read off `_walk_records` capped at (n1, n2); `a_coefficient` does not call this.
    """
    if k < 1:
        raise ValueError("sequence length k must be >= 1")
    cell = _walk_records(k, (n1, n2), q_order).get((n1, n2), ())
    return [NSequences(entries[:k], entries[k:]) for _, _, entries, _ in cell]


@lru_cache(maxsize=1)
def _sequence_table(k, q_order):
    """The records of `_walk_records` for every cell that q_order can reach.

    One walk, cut by q_order alone (a row sum is at most Q(N)), serves
    every weight of the level.  One table is kept, so a call at another
    (k, q_order) drops it.
    """
    return _walk_records(k, (q_order, q_order), q_order)


def a_coefficient(w, n1, n2, q_order):
    """Weight-(n1, n2) coefficient of the closed character formula.

    Sums q^{Q(N)} * linear term / prod (q)_g over the gaps g of N, for the
    NSequences N of the cell with Q(N) <= q_order, read from the records
    that every weight of the level shares (`_sequence_table`).  A cell with
    no record is the zero series at once.  Each N's linear term is expanded
    at offset Q(N) into the sparse dict of its denominator key, the sorted
    nonzero gaps (`_expand`); each key's shared row of 1/prod (q)_g
    (`denominator_row`) is then added into one accumulator once per
    exponent, times the merged coefficient.
    """
    w = weight_parts(w, 2)
    if n1 < 0 or n2 < 0:
        raise ValueError("weights must be >= 0")
    records = _sequence_table(sum(w), q_order).get((n1, n2))
    if not records:
        return QSeries({}, q_order)
    templates = _plan(_linear_term_summands, w)
    grouped = {}
    for base, key, entries, factors in records:
        _expand(templates, entries, factors, q_order, base,
                grouped.setdefault(key, {}))
    total = [0] * (q_order + 1)
    for key, terms in grouped.items():
        row = denominator_row(key, q_order)
        for e, c in terms.items():
            if c == 1:
                total[e:] = map(add, total[e:], row)
            elif c == -1:
                total[e:] = map(sub, total[e:], row)
            elif c:
                total[e:] = [t + c * x for t, x in zip(total[e:], row)]
    return QSeries.from_row(total, q_order)


def character_fermionic(w, q_order, caps):
    """Assemble the closed-formula character over an explicit window (l = 2).

    A negative q_order gives the empty character, as `character_oracle` does.
    """
    w = weight_parts(w, 2)
    caps = tuple(caps)
    if len(caps) != 2:
        raise ValueError("the closed formula is two-variable: caps must be a pair")
    if q_order < 0:
        return CharSeries(caps, q_order)
    rows = {}
    for n1 in range(caps[0] + 1):
        for n2 in range(caps[1] + 1):
            series = a_coefficient(w, n1, n2, q_order)
            rows[(n1, n2)] = dense_row(series.coeffs.items(), q_order)
    return CharSeries(caps, q_order, rows)


# -- identity battery ---------------------------------------------------------


ENTRY_MAX = 30


def random_instances(k):
    """20 random monotone sequence pairs plus the all-zero and all-equal cases.

    Entries run to ENTRY_MAX, drawn from a generator seeded by k.  The
    identities these feed are polynomial in q with exponents linear in the
    entries; agreement on well-spread integer instances is the working
    evidence standard here, not symbolic proof.
    """
    rng = random.Random(20_000 + k)
    out = [NSequences((0,) * k, (0,) * k), NSequences((5,) * k, (5,) * k)]
    for _ in range(20):
        n1 = tuple(sorted((rng.randint(0, ENTRY_MAX) for _ in range(k)),
                          reverse=True))
        n2 = tuple(sorted(rng.randint(0, ENTRY_MAX) for _ in range(k)))
        out.append(NSequences(n1, n2))
    return out


def _battery_order(k):
    """The battery's truncation order at level k.

    It lies above every exponent that a template of `_battery_sides(k)`
    reaches on `random_instances(k)`: its exponent plus the sum of its gaps.
    """
    return 2 * k * ENTRY_MAX + 2 * ENTRY_MAX + 16


def _battery_sides(k):
    """The identities that `identity_battery(k)` checks, in check order.

    Each is (tag, where, lhs, rhs), lhs and rhs lists of `_summand`
    templates; the weight families take theirs from `_plan`.
    """
    zero = (0,) * k
    sides = []
    for i in range(k + 1):
        ps = patterns(k, i)
        # l.delta of each pattern on either axis, shared by every p it is
        # comparable with
        deltas = [(p2, _summand(p2, zero, 1, p2), _summand(zero, p2, 2, p2))
                  for p2 in ps]
        for p in ps:
            sides.append((
                "prefix-sum-expansion-axis1", {"p": p},
                [_summand(p, zero, 1, zero)],
                [d1 for p2, d1, _ in deltas if pattern_le(p2, p)],
            ))
            sides.append((
                "prefix-sum-expansion-axis2", {"p": p},
                [_summand(zero, p, 2, zero)],
                [d2 for p2, _, d2 in deltas if pattern_le(p, p2)],
            ))
    for i in range(k + 1):
        for j in range(k - i + 1):
            sides.append((
                "axis-interchange", {"i": i, "j": j},
                [_summand(p, flip_last(i, 1, p), 1, p)
                 for p in patterns(k, i + j)],
                [_summand(flip_last(i, 0, p), p, 2, p)
                 for p in patterns(k, j)],
            ))

    for w in level_weights(k, 2):
        lt = _plan(_linear_term_summands, w)
        sides.append(("linear-term-two-forms", {"w": w},
                      lt, _plan(_linear_term_alt_summands, w)))
        if min(w) >= 1:
            k0, k1, k2 = w
            sides.append((
                "four-term-difference", {"w": w},
                lt + _plan(_linear_term_summands, (k0 - 1, k1, k2 + 1)),
                _plan(_linear_term_star_summands, w)
                + _plan(_linear_term_summands, (k0 - 1, k1 + 1, k2))
                + _plan(_linear_term_summands, (k0, k1 - 1, k2 + 1)),
            ))
            sides.append(("flip-expansion-match", {"w": w},
                          _plan(_m_term_summands, w), _plan(_n_term_summands, w)))
    return sides


def _gap_vectors(k):
    """The entries and factor exponents of `NSequences` as packed gap vectors.

    Over the 2k gaps g_s = N.factors[s], s < 2k: entry i < k, N_{1,i+1}, is
    the sum of g_s over i <= s < k, entry k + i, N_{2,i+1}, the sum over
    k <= s <= k + i; factor s < 2k is g_s and factor 2k + i is N_{2,i+1}.
    The vector with coordinates c_s is the int sum c_s 2^{width s}, width
    the bit length of k + 2 (`identity_battery` proves it enough).  Returns
    (width, entries, factors).
    """
    width = (k + 2).bit_length()
    unit = [1 << width * s for s in range(2 * k)]
    axis2 = [sum(unit[k:k + i + 1]) for i in range(k)]
    return width, [sum(unit[i:k]) for i in range(k)] + axis2, unit + axis2


def _gap_polynomial(template, entries, factors):
    """A `_summand` template as a polynomial in the gap variables x_s = q^{g_s}.

    The dict {exponent vector: coeff}, vectors packed by `_gap_vectors`, of
    x^{sum of `entries` at ones} prod over slots of (1 - x^{factors[slot]}),
    with no zero coefficient.  A vector may repeat within one product, as
    N_{2,2} = g_{2,1} + g_{2,2}, so its terms are merged.
    """
    ones, slots = template
    e = 0
    for i in ones:
        e += entries[i]
    terms = {e: 1}
    for s in slots:
        g = factors[s]
        for x, c in list(terms.items()):
            terms[x + g] = terms.get(x + g, 0) - c
    return {x: c for x, c in terms.items() if c}


def _at_gaps(poly, gaps, width, q_order):
    """The gap polynomial `poly` at x_s = q^{gaps[s]}, as a QSeries to q_order."""
    mask = (1 << width) - 1
    coeffs = {}
    for x, c in poly.items():
        e = 0
        for g in gaps:
            e += (x & mask) * g
            x >>= width
        coeffs[e] = coeffs.get(e, 0) + c
    return QSeries(coeffs, q_order)


def identity_battery(k):
    """Exercise every pattern-calculus identity at level k; returns a report.

    Covers, for each instance: both prefix-sum expansions l_p = sum of
    l.delta over comparable patterns, the axis interchange for all (i, j)
    with i + j <= k, agreement of the two linear-term forms for every weight
    triple, and for strictly positive triples the four-term difference
    against the starred variant and the equality of the two flipped sums.
    Every identity is a pair of `_summand` template lists, built once per k
    (`_battery_sides`).  The four-term identity is stated without signs:

        star(w) + lt(k0-1, k1+1, k2) + lt(k0, k1-1, k2+1)
            = lt(w) + lt(k0-1, k1, k2+1)

    Each distinct template is expanded once, as a polynomial in the 2k gap
    variables x_s = q^{g_s} (`_gap_polynomial`), and the two sides of an
    identity are compared as sums of these polynomials.  The report is the
    one that comparing both sides as series at each instance N of
    `random_instances(k)` gives:

        Every entry of N and every exponent a factor reads is a sum of
        gaps (`_gap_vectors`), so a template's value at N is its gap
        polynomial at x_s = q^{g_s(N)}, and so is a side's.  Sides that
        are equal polynomials in x are therefore equal at every N, and such
        an identity counts one comparison per instance with no violation.
        Sides that differ are evaluated at each instance (`_at_gaps`),
        instance by instance and in check order within one, and
        `CheckReport.check` compares them there: they may still agree at
        some N, as at N = 0.  No N has a negative gap, so each value is a
        polynomial in q, and `_battery_order(k)` lies above every exponent
        a template reaches on the instances, so the compared series are
        exact.

    An exponent vector is packed into one int, coordinate s in bits
    [width s, width (s + 1)), width the bit length of k + 2.  No coordinate
    of a term exceeds k + 2: the monomial raises x_s, s < k, once per entry
    i <= s at `ones` and x_s, s >= k, once per axis-2 entry at or after it,
    at most k times; the slots are distinct, so each gap factor adds 1 at
    most once, and only the one `extra` slot reads N_{2,i}, which adds at
    most 1 to each axis-2 coordinate.  Coordinates are >= 0, so no sum
    carries into the next field, and equal ints are equal vectors.
    """
    instances = random_instances(k)
    q_order = _battery_order(k)
    report = CheckReport(
        name=f"lemmas[k={k}]",
        window={"instances": len(instances), "entry_max": ENTRY_MAX},
    )

    width, entries, factors = _gap_vectors(k)
    polys = {}

    def side(templates):
        total = {}
        get = total.get
        for t in templates:
            poly = polys.get(t)
            if poly is None:
                poly = polys[t] = _gap_polynomial(t, entries, factors)
            for x, c in poly.items():
                total[x] = get(x, 0) + c
        return {x: c for x, c in total.items() if c}

    sides = _battery_sides(k)
    failing = []
    for tag, where, lhs, rhs in sides:
        left, right = side(lhs), side(rhs)
        if left != right:
            failing.append((tag, where, left, right))
    report.checked += len(instances) * (len(sides) - len(failing))
    for N in instances:
        gaps = N.factors[:2 * k]
        for tag, where, left, right in failing:
            report.check({"identity": tag, **where},
                         _at_gaps(right, gaps, width, q_order),
                         _at_gaps(left, gaps, width, q_order))
    return report
