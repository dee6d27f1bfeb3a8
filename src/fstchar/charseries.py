"""Truncated multivariate character series and their specializations.

A CharSeries is a finitely supported map from weight-exponent vectors
(n_1, ..., n_l) to QSeries coefficients, restricted to an explicit window:
per-variable caps n_i <= cap_i and a shared q truncation order.  Windows are
always explicit inputs so that two characters are only ever compared on an
identical finite window.

`specialize` collapses the z-variables into plain values: a dict
{z-exponent: QSeries} when some variables merge into one surviving z, a
single QSeries when none survives.  Each coefficient carries its own
guaranteed-valid truncation order.
"""

from .qseries import QSeries


class CharSeries:
    """Character series sum_n A^n(q) z_1^{n_1} ... z_l^{n_l} on a fixed window."""

    __slots__ = ("num_z", "caps", "q_order", "coeffs")

    def __init__(self, num_z, caps, q_order, coeffs=None):
        caps = tuple(caps)
        if len(caps) != num_z or any(c < 0 for c in caps):
            raise ValueError(f"caps {caps} invalid for {num_z} variables")
        terms = {}
        if coeffs:
            for n, series in coeffs.items():
                n = tuple(n)
                if len(n) != num_z:
                    raise ValueError(f"exponent vector {n} has wrong arity")
                if any(x < 0 for x in n) or any(x > c for x, c in zip(n, caps)):
                    raise ValueError(f"exponent vector {n} outside caps {caps}")
                series = series.truncate(min(series.trunc, q_order))
                if series.trunc != q_order:
                    raise ValueError(
                        f"coefficient at {n} trusted only to {series.trunc} < {q_order}"
                    )
                if not series.is_zero():
                    terms[n] = series
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
        """QSeries coefficient at the exponent vector n (zero if absent)."""
        n = tuple(n)
        if any(x < 0 for x in n) or any(x > c for x, c in zip(n, self.caps)):
            raise ValueError(f"{n} lies outside the window caps {self.caps}")
        return self.coeffs.get(n, QSeries.zero(self.q_order))

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

    # -- arithmetic --------------------------------------------------------

    def _require_same_window(self, other):
        if not self.same_window(other):
            raise ValueError(
                f"window mismatch: {self.caps}/{self.q_order} "
                f"vs {other.caps}/{other.q_order}"
            )

    def __add__(self, other):
        self._require_same_window(other)
        terms = dict(self.coeffs)
        for n, series in other.coeffs.items():
            terms[n] = terms[n] + series if n in terms else series
        return CharSeries(self.num_z, self.caps, self.q_order, terms)

    def __sub__(self, other):
        self._require_same_window(other)
        terms = dict(self.coeffs)
        for n, series in other.coeffs.items():
            terms[n] = terms[n] - series if n in terms else -series
        return CharSeries(self.num_z, self.caps, self.q_order, terms)

    def scale_by_monomial(self, q_shift, z_shifts):
        """Multiply by q^{q_shift} * prod z_i^{z_shifts[i]}.

        Exponent vectors pushed outside the window (negative or above caps)
        are dropped, matching the vanishing convention for out-of-range
        character coefficients.
        """
        z_shifts = tuple(z_shifts)
        if len(z_shifts) != self.num_z:
            raise ValueError("z_shifts arity mismatch")
        terms = {}
        for n, series in self.coeffs.items():
            moved = tuple(x + s for x, s in zip(n, z_shifts))
            if any(x < 0 for x in moved) or any(
                x > c for x, c in zip(moved, self.caps)
            ):
                continue
            shifted = series.shift(q_shift)
            terms[moved] = shifted.truncate(min(shifted.trunc, self.q_order))
        return CharSeries(self.num_z, self.caps, self.q_order, terms)

    def dilate(self):
        """Substitute z_i -> z_i q: the coefficient at n picks up q^{n_1+...+n_l}."""
        terms = {}
        for n, series in self.coeffs.items():
            shifted = series.shift(sum(n))
            terms[n] = shifted.truncate(min(shifted.trunc, self.q_order))
        return CharSeries(self.num_z, self.caps, self.q_order, terms)

    # -- presentation ------------------------------------------------------

    def to_json(self):
        return {
            "l": self.num_z,
            "caps": list(self.caps),
            "q_order": self.q_order,
            "terms": [
                [list(n), self.coeffs[n].to_json()] for n in sorted(self.coeffs)
            ],
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            obj["l"],
            tuple(obj["caps"]),
            obj["q_order"],
            {tuple(n): QSeries.from_json(s) for n, s in obj["terms"]},
        )

    def render_table(self):
        """Plain-text table, one line per exponent vector, for human diffing."""
        lines = [f"# l={self.num_z} caps={list(self.caps)} q_order={self.q_order}"]
        for n in sorted(self.coeffs):
            lines.append(f"z^{list(n)}: {self.coeffs[n]!r}")
        return "\n".join(lines) + "\n"


def _minimal_shift(offsets, caps, z_vars, one_vars, z_total):
    """Most negative achievable sum n_i*offset_i within the cap window.

    z-collapsed variables must split z_total between them; the others range
    freely over 0..cap.  Used to bound which output orders stay trustworthy.
    """
    shift = 0
    for i in one_vars:
        shift += min(0, offsets[i] * caps[i])
    remaining = z_total
    for i in sorted(z_vars, key=lambda i: offsets[i]):
        take = min(remaining, caps[i])
        shift += take * offsets[i]
        remaining -= take
    return shift


def specialize(char, q_scale, spec_vars):
    """Collapse variables: q -> q^{q_scale}, z_i -> q^{offset_i} * target_i.

    spec_vars lists one (q_offset, target) pair per variable, target being
    "z" (variables merging into a single surviving z) or "one" (variable set
    to a pure q-power).  The coefficient of q^m z^n contributes
    q^{q_scale*m + sum n_i*offset_i} at output z-exponent sum of the
    z-collapsed n_i.

    Returns {z-exponent: QSeries} for every exponent up to the summed caps
    when some target is "z", and one QSeries otherwise.  Each series is
    truncated at the order its coefficients are guaranteed valid to, which
    the input window and the offsets fix.
    """
    if q_scale <= 0:
        raise ValueError("q_scale must be >= 1")
    spec_vars = [(int(off), target) for off, target in spec_vars]
    if len(spec_vars) != char.num_z:
        raise ValueError("spec_vars arity mismatch")
    for _, target in spec_vars:
        if target not in ("z", "one"):
            raise ValueError(f"unknown collapse target {target!r}")
    offsets = [off for off, _ in spec_vars]
    z_vars = [i for i, (_, t) in enumerate(spec_vars) if t == "z"]
    one_vars = [i for i, (_, t) in enumerate(spec_vars) if t == "one"]

    buckets = {}
    for n, series in char.coeffs.items():
        z_exp = sum(n[i] for i in z_vars)
        shift = sum(n[i] * offsets[i] for i in range(char.num_z))
        bucket = buckets.setdefault(z_exp, {})
        for e, c in series.coeffs.items():
            out_e = q_scale * e + shift
            bucket[out_e] = bucket.get(out_e, 0) + c

    def valid_order(z_exp):
        return q_scale * char.q_order + _minimal_shift(
            offsets, char.caps, z_vars, one_vars, z_exp
        )

    if z_vars:
        max_exp = sum(char.caps[i] for i in z_vars)
        # zero coefficients are kept: they still carry a guaranteed-valid order
        terms = {
            z: QSeries(buckets.get(z, {}), valid_order(z))
            for z in range(max_exp + 1)
        }
        return terms
    return QSeries(buckets.get(0, {}), valid_order(0))
