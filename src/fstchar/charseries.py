"""Truncated multivariate character series and their specializations.

A CharSeries is a finitely supported map from weight-exponent vectors
(n_1, ..., n_l) to dense coefficient rows on an explicit window: caps
n_i <= cap_i and a shared q truncation order Q.  The row at n is a tuple
of length Q + 1 whose entry e is the coefficient of q^e z^n.  Windows are
always explicit inputs so that two characters are only ever compared on an
identical finite window.  A CharSeries has no arithmetic: the routes hand
over their rows, and the checks compare, specialize or read them.  Output
renders each row through `QSeries.from_row`.

`specialize` is spec_1 (q -> q^2, z_1 -> q^{-2} z, z_2 -> q^{-1} z) of a
two-variable character for the z^n with n <= min(cap_1, cap_2), each valid
to order 2Q - 2n; spec_2 (`specialize.spec2`) is spec_1 at z = 1, summed
over every cell.  Both map each cell by the one cell map, `spec1_cell`.
"""

from .qseries import Frozen, QSeries


class CharSeries(Frozen):
    """Character series sum_n A^n(q) z_1^{n_1} ... z_l^{n_l} on a fixed window.

    Unhashable: it holds a dict.
    """

    __slots__ = ("caps", "q_order", "coeffs")
    _args = ("caps", "q_order", "coeffs")
    __hash__ = None

    def __init__(self, caps, q_order, coeffs=None):
        """`coeffs` maps exponent vectors to rows of length q_order + 1;
        the rank, the number of variables, is len(caps)."""
        caps = tuple(caps)
        if any(c < 0 for c in caps):
            raise ValueError(f"caps {caps} must be >= 0")
        terms = {}
        if coeffs:
            for n, row in coeffs.items():
                n = tuple(n)
                if len(n) != len(caps):
                    raise ValueError(f"exponent vector {n} has wrong arity")
                if any(x < 0 for x in n) or any(x > c for x, c in zip(n, caps)):
                    raise ValueError(f"exponent vector {n} outside caps {caps}")
                row = tuple(row)
                if len(row) != q_order + 1:
                    raise ValueError(f"row at {n} has length {len(row)}, "
                                     f"not q_order + 1 = {q_order + 1}")
                if any(row):
                    terms[n] = row
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "q_order", q_order)
        object.__setattr__(self, "coeffs", terms)

    def __repr__(self):
        return (
            f"CharSeries(l={len(self.caps)}, caps={self.caps}, "
            f"q_order={self.q_order}, {len(self.coeffs)} terms)"
        )

    # -- presentation ------------------------------------------------------

    def to_json(self):
        return {
            "l": len(self.caps),
            "caps": list(self.caps),
            "q_order": self.q_order,
            "terms": [
                [list(n), QSeries.from_row(self.coeffs[n]).to_json()]
                for n in sorted(self.coeffs)
            ],
        }

    @classmethod
    def from_json(cls, obj):
        """Read `to_json`.

        A series trusted below q_order, an exponent vector or exponent given
        twice, or an "l" other than the number of caps raises ValueError.
        """
        if obj["l"] != len(obj["caps"]):
            raise ValueError(f"l = {obj['l']} disagrees with caps {obj['caps']}")
        q_order, rows = obj["q_order"], {}
        for n, series in obj["terms"]:
            if series["trunc"] < q_order:
                raise ValueError(f"coefficient at {n} trusted only to "
                                 f"{series['trunc']} < {q_order}")
            terms = {int(e): int(c) for e, c in series["terms"]}
            if len(terms) < len(series["terms"]):
                raise ValueError(f"an exponent at {n} is given twice")
            rows[tuple(n)] = dense_row(terms.items(), q_order)
        if len(rows) < len(obj["terms"]):
            raise ValueError("an exponent vector is given twice")
        return cls(obj["caps"], q_order, rows)

    def render_table(self):
        """Plain-text table, one line per exponent vector, for human diffing."""
        lines = [f"# l={len(self.caps)} caps={list(self.caps)} q_order={self.q_order}"]
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


def spec1_cell(terms, n1, n2, row):
    """Add cell z_1^{n_1} z_2^{n_2} to `terms`: row[e] q^e -> q^{2e - 2n_1 - n_2}."""
    for e, c in enumerate(row):
        if c:
            out_e = 2 * e - 2 * n1 - n2
            terms[out_e] = terms.get(out_e, 0) + c


def specialize(char):
    """spec_1 of a two-variable character, as {z-exponent: QSeries}.

    The map sends q -> q^2, z_1 -> q^{-2} z, z_2 -> q^{-1} z, so the
    coefficient of q^m z_1^{n_1} z_2^{n_2} lands on q^{2m - 2n_1 - n_2} z^n
    with n = n_1 + n_2.  Every n = 0..min(cap_1, cap_2) is returned, zero or
    not, valid to order 2Q - 2n, 2Q plus the most negative shift at n; a
    larger n is left out, since its cells beyond the caps reach any order.
    """
    if len(char.caps) != 2:
        raise ValueError(f"specialize needs 2 variables, got {len(char.caps)}")
    top = min(char.caps)
    buckets = [{} for _ in range(top + 1)]
    for (n1, n2), row in char.coeffs.items():
        if n1 + n2 <= top:
            spec1_cell(buckets[n1 + n2], n1, n2, row)
    return {
        n: QSeries(bucket, 2 * char.q_order - 2 * n)
        for n, bucket in enumerate(buckets)
    }
