"""Exact arithmetic for truncated Laurent series in q.

A QSeries is a finitely supported map exponent -> integer together with a
truncation order Q: terms with exponent > Q are discarded and considered
unknown, terms with exponent <= Q are exact.  Exponents may be negative,
coefficients are ordinary Python integers (arbitrary precision).

All operations are pure; values are immutable by convention and safe to
share between threads or processes.

QSeries carries the one-variable results (the specializations, the known
sums, the pattern sums, the censuses) and renders every series as JSON or
text.  The coefficients of a two-variable character are dense rows in
`CharSeries` instead; `from_row` turns a row into a QSeries for output.

No route takes a series product: they divide coefficient lists in place
(`divide_pochhammer`).  `__mul__`, `pochhammer` and `inv_pochhammer` stay
for the tests' references and the `qseries.*` metrics of `perfbench/`.
"""

from functools import lru_cache


class QSeries:
    """Truncated Laurent series with exact integer coefficients.

    The truncation order of the result of a binary operation is the minimum
    of the operands' truncation orders: a coefficient is retained only where
    both inputs are trustworthy.
    """

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs=None, trunc=0):
        terms = {}
        if coeffs:
            for e, c in coeffs.items():
                if c and e <= trunc:
                    terms[e] = c
        object.__setattr__(self, "coeffs", terms)
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    def __reduce__(self):
        return (QSeries, (self.coeffs, self.trunc))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, trunc):
        return cls({}, trunc)

    @classmethod
    def one(cls, trunc):
        return cls({0: 1}, trunc)

    @classmethod
    def from_row(cls, row):
        """The series with coefficient row[e] at q^e, truncated at len(row) - 1."""
        return cls(dict(enumerate(row)), len(row) - 1)

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        terms = dict(self.coeffs)
        for e, c in other.coeffs.items():
            terms[e] = terms.get(e, 0) + c
        return QSeries(terms, trunc)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        terms = dict(self.coeffs)
        for e, c in other.coeffs.items():
            terms[e] = terms.get(e, 0) - c
        return QSeries(terms, trunc)

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

# Entries kept by each cached q-special function.  The closed formula asks
# for them at one truncation order per distinct base exponent, so a long run
# would otherwise keep every order it ever used.
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
    coefficients are nonnegative.  Built by `divide_pochhammer` on the
    coefficient list of 1.
    """
    if n < 0:
        raise ValueError("inv_pochhammer needs n >= 0")
    coeffs = [0] * (q_order + 1)
    if coeffs:
        coeffs[0] = 1
    divide_pochhammer(coeffs, n, scale)
    return QSeries.from_row(coeffs)
