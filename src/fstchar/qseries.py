"""Exact arithmetic for truncated Laurent series in q.

A QSeries is a finitely supported map exponent -> integer together with a
truncation order Q: terms with exponent > Q are discarded and considered
unknown, terms with exponent <= Q are exact.  Exponents may be negative,
coefficients are ordinary Python integers (arbitrary precision).

All operations are pure; values are immutable by convention and safe to
share between threads or processes.
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
    def monomial(cls, exponent, trunc, coeff=1):
        return cls({exponent: coeff}, trunc)

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, exponent):
        """Exact coefficient of q^exponent; raises if beyond the truncation."""
        if exponent > self.trunc:
            raise ValueError(
                f"coefficient of q^{exponent} not retained (trunc={self.trunc})"
            )
        return self.coeffs.get(exponent, 0)

    def min_exponent(self):
        return min(self.coeffs) if self.coeffs else None

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

    def __neg__(self):
        return QSeries({e: -c for e, c in self.coeffs.items()}, self.trunc)

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

    def shift(self, exponent):
        """Multiply by q^exponent; the truncation order shifts along."""
        return QSeries(
            {e + exponent: c for e, c in self.coeffs.items()},
            self.trunc + exponent,
        )

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
        return cls({int(e): int(c) for e, c in obj["terms"]}, obj["trunc"])


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
    return QSeries({e: c for e, c in enumerate(coeffs) if c}, q_order)


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


def substitute_q_squared(series):
    """Substitute q -> q^2: exponents double, and so does the trusted order."""
    return QSeries(
        {2 * e: c for e, c in series.coeffs.items()},
        2 * series.trunc,
    )
