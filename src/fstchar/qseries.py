"""Exact arithmetic for truncated Laurent series in q.

A QSeries is a finitely supported map exponent -> integer together with a
truncation order Q: terms with exponent > Q are discarded and considered
unknown, terms with exponent <= Q are exact.  Exponents may be negative,
coefficients are ordinary Python integers (arbitrary precision).

All operations are pure.  The three value types of the package (`QSeries`,
`CharSeries`, `NSequences`) share one protocol, `Frozen`, which refuses to
set or delete their attributes; they are safe to share between threads or
processes.  A QSeries holds its terms read-only, as cached ones are shared
with every caller; `CharSeries` is never cached, so its `coeffs` stays a
plain dict, immutable only by convention.

QSeries carries the one-variable results (the specializations, the known
sums, the pattern sums, the censuses) and renders every series as JSON or
text.  The coefficients of a two-variable character are dense rows in
`CharSeries` instead; `from_row` turns a row into a QSeries for output.

No route takes a series product: they divide coefficient lists in place
(`divide_pochhammer`), and share their denominator rows 1/prod (q^s; q^s)_m
through one cache, `denominator_row`.  `__mul__`, `pochhammer` and
`inv_pochhammer`, whose row comes from `denominator_row`, stay for the
tests' references and the `qseries.*` metrics of `perfbench/`.
"""

from functools import lru_cache
from operator import mul
from types import MappingProxyType


class Frozen:
    """An immutable value, equal, hashed, printed and pickled by its fields.

    A subclass names its constructor arguments, in order, in `_args`, and
    its constructor stores them with `object.__setattr__`.  Two values are
    equal when they have the same type and equal fields, `repr` reads
    `Name(field=value, ...)`, and pickling calls the constructor again with
    the fields.  Setting or deleting any attribute raises AttributeError.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        for f in self._args:
            if getattr(self, f) != getattr(other, f):
                return False
        return True

    def __hash__(self):
        return hash(tuple([getattr(self, f) for f in self._args]))

    def __repr__(self):
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._args])
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return (type(self), tuple([getattr(self, f) for f in self._args]))


class QSeries(Frozen):
    """Truncated Laurent series with exact integer coefficients.

    The truncation order of the result of a binary operation is the minimum
    of the operands' truncation orders: a coefficient is retained only where
    both inputs are trustworthy.  Unhashable: `coeffs` is a read-only
    mapping, pickled as a dict.
    """

    __slots__ = ("coeffs", "trunc")
    _args = ("coeffs", "trunc")
    __hash__ = None

    def __init__(self, coeffs=None, trunc=0):
        terms = {}
        if coeffs:
            for e, c in coeffs.items():
                if c and e <= trunc:
                    terms[e] = c
        object.__setattr__(self, "coeffs", MappingProxyType(terms))
        object.__setattr__(self, "trunc", trunc)

    def __reduce__(self):
        return (QSeries, (self.coeffs.copy(), self.trunc))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, trunc):
        return cls({}, trunc)

    @classmethod
    def one(cls, trunc):
        return cls({0: 1}, trunc)

    @classmethod
    def from_row(cls, row, trunc=None):
        """The series with coefficient row[e] at q^e, truncated at `trunc`.

        `trunc` defaults to len(row) - 1.  A row of any negative order is
        empty, so a caller that may hold one passes its order as `trunc`.
        Only the row's nonzero entries are handed to the constructor.
        """
        terms = {}
        for e, c in enumerate(row):
            if c:
                terms[e] = c
        return cls(terms, len(row) - 1 if trunc is None else trunc)

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        terms = self.coeffs.copy()
        for e, c in other.coeffs.items():
            terms[e] = terms.get(e, 0) + c
        return QSeries(terms, trunc)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + QSeries({e: -c for e, c in other.coeffs.items()}, other.trunc)

    def __mul__(self, other):
        if isinstance(other, int):
            return QSeries({e: c * other for e, c in self.coeffs.items()}, self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        terms = {}
        # iterate the sparser operand outside
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                if e <= trunc:
                    terms[e] = terms.get(e, 0) + c1 * c2
        return QSeries(terms, trunc)

    __rmul__ = __mul__

    def truncate(self, trunc):
        """Restrict to order `trunc`; never extends trustworthiness."""
        if trunc > self.trunc:
            raise ValueError(f"cannot raise trunc {self.trunc} to {trunc}")
        if trunc == self.trunc:
            return self
        return QSeries(self.coeffs, trunc)

    # -- presentation ------------------------------------------------------

    def __repr__(self):
        if not self.coeffs:
            return f"QSeries(0; O(q^{self.trunc + 1}))"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*q" if abs(c) != 1 else ("q" if c > 0 else "-q"))
            else:
                head = f"{c}*" if abs(c) != 1 else ("-" if c < 0 else "")
                parts.append(f"{head}q^{e}")
        body = " + ".join(parts).replace("+ -", "- ")
        return f"QSeries({body}; O(q^{self.trunc + 1}))"

    def to_json(self):
        """{"trunc": Q, "terms": [[exponent, coefficient-as-string], ...]}."""
        return {
            "trunc": self.trunc,
            "terms": [[e, str(self.coeffs[e])] for e in sorted(self.coeffs)],
        }

    @classmethod
    def from_json(cls, obj):
        """Read `to_json`; an exponent above trunc or given twice raises ValueError."""
        terms = {int(e): int(c) for e, c in obj["terms"]}
        if len(terms) < len(obj["terms"]):
            raise ValueError("an exponent is given twice")
        if terms and max(terms) > obj["trunc"]:
            raise ValueError(f"exponent {max(terms)} above trunc {obj['trunc']}")
        return cls(terms, obj["trunc"])


# -- q-special functions ----------------------------------------------------

# Entries kept by each lru_cache of the package.  `fermionic._plan` holds one
# template list per pattern sum and weight, at most 5 per weight of the
# levels run: `verify --suite lemmas --level 5` leaves 140 entries.
# `denominator_row` keeps one row per key, prefixes included: 108 rows (8,424
# hits) after `verify --suite fjmmt --level 4 --zmax 14 --qmax 36`, 98 after
# `verify --suite all --level 3 --zmax 8 --qmax 20 --jobs 1`, 124 after
# `verify --suite fjmmt2 --level 4 --qmax 30`.  `specialize.prefix_census`
# and `specialize.chi_fjmmt2` keep one series per distinct call: 10 and 13
# entries after `verify --suite all --level 3 --zmax 8 --qmax 20 --jobs 1`
# (40 and 24 hits), 21 and 26 after `verify --suite fjmmt2 --level 5
# --qmax 40`.  `fermionic._sequence_table` keeps one table, not CACHE_SIZE,
# of the NSequences records of every cell one level and q-order reach: 99
# cells and 1,244 records (0.4 MB) after `verify --suite fjmmt --level 4
# --zmax 14 --qmax 36`, 213 cells and 12,463 records (4.5 MB) after `verify
# --suite fjmmt2 --level 5 --qmax 40`.  No route calls `pochhammer` or
# `inv_pochhammer`; their caches serve the tests and perfbench/ only.
CACHE_SIZE = 512


@lru_cache(maxsize=CACHE_SIZE)
def pochhammer(n, q_order, scale=1):
    """(q^scale; q^scale)_n = prod_{i=1..n} (1 - q^{scale*i}), truncated."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    out = QSeries.one(q_order)
    for i in range(1, n + 1):
        out = out * QSeries({0: 1, scale * i: -1}, q_order)
    return out


def divide_pochhammer(coeffs, n, scale=1):
    """Divide the coefficient list `coeffs` by (q^scale; q^scale)_n in place.

    `coeffs[m]` is the coefficient of q^m, and the list's length fixes the
    truncation.  Dividing by one factor (1 - q^step) is the running sum
    c[m] += c[m - step] for m from step upward, so the whole division costs
    O(n * len(coeffs)) where a product with the dense inverse would cost
    O(len(coeffs)^2).  Factors whose step reaches past the list are
    congruent to 1 and skipped.
    """
    top = len(coeffs)
    for i in range(1, n + 1):
        step = scale * i
        if step >= top:
            break
        for m in range(step, top):
            coeffs[m] += coeffs[m - step]


@lru_cache(maxsize=CACHE_SIZE)
def inv_pochhammer(n, q_order, scale=1):
    """Series inverse of (q^scale; q^scale)_n.

    Coefficient of q^{scale*m} counts partitions of m into parts <= n, so all
    coefficients are nonnegative.  The row is `denominator_row((n,), ...)`.
    """
    if n < 0:
        raise ValueError("inv_pochhammer needs n >= 0")
    return QSeries.from_row(denominator_row((n,), q_order, scale), q_order)


@lru_cache(maxsize=CACHE_SIZE)
def denominator_row(key, q_order, scale=1):
    """The tuple row of 1/prod_{m in key} (q^scale; q^scale)_m to q_order.

    Entry e is the coefficient of q^e.  The row of `key` is its prefix
    key's row, `key[:-1]`, divided by one `divide_pochhammer` for its last
    entry; the empty key gives the series 1.  Callers share one row per key,
    so they pass keys sorted and copy a row before they change it: the
    fermionic sums pass the key that `index_walk` hands each term.
    """
    if not key:
        return (1,) + (0,) * q_order if q_order >= 0 else ()
    row = list(denominator_row(key[:-1], q_order, scale))
    divide_pochhammer(row, key[-1], scale)
    return tuple(row)


def index_walk(matrix, steps, sizes, caps, q_order, visit):
    """Call visit(m, n, expo, key) for each m >= 0, expo <= q_order, n <= caps.

    The summation indices of every fermionic sum.  From m = 0, expo = 0 and
    n = 0, one more unit of m_i raises expo by (M m)_i + steps_i (M is
    `matrix`) and the z-degree n_v by sizes[v][i]: `sizes` holds one row and
    `caps` one cap per z-variable, and n is the list of z-degrees.  All are
    >= 0 and diag(M) >= 1, so each entry stops growing once a bound is
    passed, and each m within the bounds is visited once.  key is the
    sorted tuple of the nonzero entries of m, the `denominator_row` key of
    the term.  visit must not keep `m` or `n`, shared lists.

    Entries are filled in order, so while entry i grows the entries after
    it are 0: the raise (M m)_i + steps_i is summed once on entering entry
    i and then grows by M_ii per unit.  The units of the last entry are
    visited in its own loop, with no recursive call per leaf.
    """
    m = [0] * len(steps)
    n = [0] * len(caps)
    if min(caps, default=0) < 0 or q_order < 0:
        return
    if not m:
        visit(m, n, 0, ())
        return
    last = len(m) - 1
    # (v, sizes[v][i]) for each z-degree n_v that one unit of m_i raises
    raises = [[(v, row[i]) for v, row in enumerate(sizes) if row[i]]
              for i in range(len(m))]

    def extend(i, expo):
        row, up = matrix[i], raises[i]
        diag = row[i]
        # entries from i on are 0, so this is (M m)_i + steps_i
        step = sum(map(mul, row, m)) + steps[i]
        while expo <= q_order:
            if i == last:
                visit(m, n, expo, tuple(sorted(filter(None, m))))
            else:
                extend(i + 1, expo)
            expo += step
            step += diag
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

    extend(0, 0)
