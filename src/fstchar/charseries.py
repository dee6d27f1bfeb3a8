"""Truncated multivariate character series and their specializations.

A CharSeries is a finitely supported map from weight-exponent vectors
(n_1, ..., n_l) to dense coefficient rows on an explicit window: caps
n_i <= cap_i and a shared q truncation order Q.  The row at n is a tuple
of length Q + 1 whose entry e is the coefficient of q^e z^n.  Windows are
always explicit inputs so that two characters are only ever compared on an
identical finite window.  A CharSeries has no arithmetic: the routes hand
over their rows, and the checks compare, specialize or read them.  Output
renders each row through `QSeries.from_row`.

`specialize` applies spec_1 (q -> q^2, z_1 -> q^{-2} z, z_2 -> q^{-1} z) or
spec_2 (the same with z = 1) to a two-variable character.  Each resulting
QSeries is truncated at its guaranteed-valid order: 2Q - n - min(n, cap_1)
at z^n under spec_1, 2Q - 2cap_1 - cap_2 under spec_2.
"""

from .qseries import QSeries


class CharSeries:
    """Character series sum_n A^n(q) z_1^{n_1} ... z_l^{n_l} on a fixed window."""

    __slots__ = ("num_z", "caps", "q_order", "coeffs")

    def __init__(self, num_z, caps, q_order, coeffs=None):
        """`coeffs` maps exponent vectors to rows of length q_order + 1."""
        caps = tuple(caps)
        if len(caps) != num_z or any(c < 0 for c in caps):
            raise ValueError(f"caps {caps} invalid for {num_z} variables")
        terms = {}
        if coeffs:
            for n, row in coeffs.items():
                n = tuple(n)
                if len(n) != num_z:
                    raise ValueError(f"exponent vector {n} has wrong arity")
                if any(x < 0 for x in n) or any(x > c for x, c in zip(n, caps)):
                    raise ValueError(f"exponent vector {n} outside caps {caps}")
                row = tuple(row)
                if len(row) != q_order + 1:
                    raise ValueError(f"row at {n} has length {len(row)}, "
                                     f"not q_order + 1 = {q_order + 1}")
                if any(row):
                    terms[n] = row
        object.__setattr__(self, "num_z", num_z)
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "q_order", q_order)
        object.__setattr__(self, "coeffs", terms)

    def __setattr__(self, name, value):
        raise AttributeError("CharSeries is immutable")

    def __reduce__(self):
        return (CharSeries, (self.num_z, self.caps, self.q_order, self.coeffs))

    # -- queries -----------------------------------------------------------

    def coefficient(self, n):
        """Row of coefficients at the exponent vector n (zeros if absent)."""
        n = tuple(n)
        if len(n) != self.num_z:
            raise ValueError(f"exponent vector {n} has wrong arity")
        if any(x < 0 for x in n) or any(x > c for x, c in zip(n, self.caps)):
            raise ValueError(f"{n} lies outside the window caps {self.caps}")
        return self.coeffs.get(n, (0,) * (self.q_order + 1))

    def same_window(self, other):
        return (
            self.num_z == other.num_z
            and self.caps == other.caps
            and self.q_order == other.q_order
        )

    def __eq__(self, other):
        if not isinstance(other, CharSeries):
            return NotImplemented
        return self.same_window(other) and self.coeffs == other.coeffs

    def __repr__(self):
        return (
            f"CharSeries(l={self.num_z}, caps={self.caps}, "
            f"q_order={self.q_order}, {len(self.coeffs)} terms)"
        )

    # -- presentation ------------------------------------------------------

    def to_json(self):
        return {
            "l": self.num_z,
            "caps": list(self.caps),
            "q_order": self.q_order,
            "terms": [
                [list(n), QSeries.from_row(self.coeffs[n]).to_json()]
                for n in sorted(self.coeffs)
            ],
        }

    @classmethod
    def from_json(cls, obj):
        """Read `to_json`; a series trusted below q_order raises ValueError."""
        q_order, rows = obj["q_order"], {}
        for n, series in obj["terms"]:
            if series["trunc"] < q_order:
                raise ValueError(f"coefficient at {n} trusted only to "
                                 f"{series['trunc']} < {q_order}")
            rows[tuple(n)] = dense_row(
                ((int(e), int(c)) for e, c in series["terms"]), q_order)
        return cls(obj["l"], obj["caps"], q_order, rows)

    def render_table(self):
        """Plain-text table, one line per exponent vector, for human diffing."""
        lines = [f"# l={self.num_z} caps={list(self.caps)} q_order={self.q_order}"]
        for n in sorted(self.coeffs):
            lines.append(f"z^{list(n)}: {QSeries.from_row(self.coeffs[n])!r}")
        return "\n".join(lines) + "\n"


def dense_row(terms, q_order):
    """The row of length q_order + 1 holding the (exponent, coefficient) pairs.

    An exponent outside 0..q_order, which no row can hold, raises ValueError.
    """
    row = [0] * (q_order + 1)
    for e, c in terms:
        if not 0 <= e <= q_order:
            raise ValueError(f"exponent {e} outside 0..{q_order}")
        row[e] = c
    return row


def specialize(char, graded):
    """spec_1 (`graded`) or spec_2 of a two-variable character.

    Both maps send q -> q^2, z_1 -> q^{-2} z, z_2 -> q^{-1} z, so the
    coefficient of q^m z_1^{n_1} z_2^{n_2} lands on q^{2m - 2n_1 - n_2}.
    spec_1 keeps z and returns {n: QSeries} for n = 0..cap_1 + cap_2, where
    z^n collects n_1 + n_2 = n and is valid to order 2Q - n - min(n, cap_1).
    spec_2 sets z = 1 and returns one QSeries valid to order
    2Q - 2cap_1 - cap_2.  Those orders are 2Q plus the most negative shift
    that the caps allow, so no coefficient outside the window can reach
    them.
    """
    if char.num_z != 2:
        raise ValueError(f"specialize needs 2 variables, got {char.num_z}")
    cap1, cap2 = char.caps
    buckets = [{} for _ in range(cap1 + cap2 + 1 if graded else 1)]
    for (n1, n2), row in char.coeffs.items():
        bucket = buckets[n1 + n2 if graded else 0]
        shift = -2 * n1 - n2
        for e, c in enumerate(row):
            if c:
                out_e = 2 * e + shift
                bucket[out_e] = bucket.get(out_e, 0) + c
    order = 2 * char.q_order
    if graded:
        # zero coefficients are kept: they still carry a guaranteed-valid order
        return {
            n: QSeries(bucket, order - n - min(n, cap1))
            for n, bucket in enumerate(buckets)
        }
    return QSeries(buckets[0], order - 2 * cap1 - cap2)
