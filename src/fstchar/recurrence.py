"""The recurrence system tying together all level-k characters.

For a weight w = (k_0, ..., k_l) the equation indexed by w reads

    sum_I (-1)^{|I|} A_{w_I}^{n_1,...,n_l}(q)
        = q^{n_1+...+n_l} A_{w'}^{n_1-k_0, ..., n_l-k_{l-1}}(q)

where I ranges over subsets of {0, ..., l-1} supported on the nonzero
entries of w, w_I lowers k_i and raises k_{i+1} for each i in I, and
w' = (k_l, k_0, ..., k_{l-1}) is the cyclic shift.  Summands whose lowered
exponents turn negative vanish.

`verify_system` reads a table {weight: CharSeries} of one level on one
window, which any route(weight, q_order, caps) fills as
{w: route(w, q_order, caps) for w in level_weights(k, len(caps))}.
`verify_transcription` checks the rendered level-2, rank-2 system against
its transcription from the paper, `LEVEL2_SYSTEM`.
"""

import itertools
from operator import add, sub

from .admissible import weight_parts
from .qseries import QSeries
from .reporting import CheckReport


class RecurrenceEquation:
    """The equation of one weight, as `build_equation` makes it.

    `weight` is the defining weight (k_0, ..., k_l), `lhs` its terms
    ((sign, weight), ...) with the defining weight first, `rhs_weight` the
    cyclic shift (k_l, k_0, ..., k_{l-1}) and `rhs_shift` (k_0, ...,
    k_{l-1}), read as n_i -> n_i - shift[i-1].  Immutable; equal, hashed
    and pickled by these four fields.
    """

    __slots__ = ("weight", "lhs", "rhs_weight", "rhs_shift")

    def __init__(self, weight, lhs, rhs_weight, rhs_shift):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs_weight", rhs_weight)
        object.__setattr__(self, "rhs_shift", rhs_shift)

    def __setattr__(self, name, value):
        raise AttributeError("RecurrenceEquation is immutable")

    def __delattr__(self, name):
        raise AttributeError("RecurrenceEquation is immutable")

    def _fields(self):
        return self.weight, self.lhs, self.rhs_weight, self.rhs_shift

    def __eq__(self, other):
        if not isinstance(other, RecurrenceEquation):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return ("RecurrenceEquation(weight={!r}, lhs={!r}, rhs_weight={!r}, "
                "rhs_shift={!r})".format(*self._fields()))

    def __reduce__(self):
        return (RecurrenceEquation, self._fields())

    def render(self):
        def var_text(shift):
            parts = []
            for i, s in enumerate(shift, start=1):
                parts.append(f"n{i}-{s}" if s else f"n{i}")
            return ",".join(parts)

        unshifted = var_text((0,) * len(self.rhs_shift))
        left = []  # the first term is the defining weight, with sign +1
        for sign, w in self.lhs:
            if left:
                left.append("+" if sign > 0 else "-")
            left.append(f"A[{','.join(map(str, w))}]({unshifted})")
        qvars = "+".join(f"n{i}" for i in range(1, len(self.rhs_shift) + 1))
        right = (
            f"q^({qvars}) * A[{','.join(map(str, self.rhs_weight))}]"
            f"({var_text(self.rhs_shift)})"
        )
        return f"{' '.join(left)} = {right}"


def level_weights(k, l):
    """All weights of level k for rank l, in the canonical (descending) order."""
    if k < 1 or l < 1:
        raise ValueError("need k >= 1 and l >= 1")
    return [(*head, k - sum(head))
            for head in itertools.product(range(k, -1, -1), repeat=l)
            if sum(head) <= k]


def build_equation(weight, l):
    """The equation of a weight of rank l; its lhs runs over the subsets I of
    the support by size, then lexicographically, so I = {} comes first."""
    weight = weight_parts(weight, l)
    support = [i for i in range(l) if weight[i]]
    lhs = []
    for size in range(len(support) + 1):
        for index_set in itertools.combinations(support, size):
            parts = list(weight)
            for i in index_set:
                parts[i] -= 1
                parts[i + 1] += 1
            lhs.append(((-1) ** size, tuple(parts)))
    return RecurrenceEquation(
        weight=weight,
        lhs=tuple(lhs),
        rhs_weight=weight[-1:] + weight[:-1],
        rhs_shift=weight[:-1],
    )


def build_system(k, l):
    """One equation per level-k weight, in canonical order."""
    return [build_equation(w, l) for w in level_weights(k, l)]


def render_system(equations):
    return "\n".join(eq.render() for eq in equations) + "\n"


# the level-2, rank-2 system as transcribed from the paper, one line per
# equation in canonical weight order
LEVEL2_SYSTEM = """\
A[2,0,0](n1,n2) - A[1,1,0](n1,n2) = q^(n1+n2) * A[0,2,0](n1-2,n2)
A[1,1,0](n1,n2) - A[0,2,0](n1,n2) - A[1,0,1](n1,n2) + A[0,1,1](n1,n2) = q^(n1+n2) * A[0,1,1](n1-1,n2-1)
A[1,0,1](n1,n2) - A[0,1,1](n1,n2) = q^(n1+n2) * A[1,1,0](n1-1,n2)
A[0,2,0](n1,n2) - A[0,1,1](n1,n2) = q^(n1+n2) * A[0,0,2](n1,n2-2)
A[0,1,1](n1,n2) - A[0,0,2](n1,n2) = q^(n1+n2) * A[1,0,1](n1,n2-1)
A[0,0,2](n1,n2) = q^(n1+n2) * A[2,0,0](n1,n2)
"""


def verify_transcription():
    """Check render_system(build_system(2, 2)) against LEVEL2_SYSTEM; one report.

    The texts count as one comparison; the first line that differs is the
    violation.  Lines keep their ends, so a missing final newline differs
    too, and a text that ends early reads `<eof>` there.
    """
    report = CheckReport(name="recurrence-golden[k=2,l=2]", checked=1)
    lines = itertools.zip_longest(
        render_system(build_system(2, 2)).splitlines(True),
        LEVEL2_SYSTEM.splitlines(True), fillvalue="<eof>",
    )
    for number, (got, want) in enumerate(lines, start=1):
        if got != want:
            report.add_violation(where={"line": number},
                                 expected=want.rstrip("\n"),
                                 actual=got.rstrip("\n"))
            break
    return report


def verify_system(chars):
    """Check the level-k system on a table {weight: CharSeries}; one report.

    The level is read off a key and the rank l as len(caps).  ValueError
    unless every character is on one window, KeyError for a missing weight.
    The q-prefactor only shifts exponents up, so every lhs coefficient of
    order <= q_order is checkable, over the full cap window: the lhs adds and
    subtracts the rows of its weights, and the rhs row is the shifted
    weight's row moved up by |n| = n_1 + ... + n_l and cut at q_order.
    """
    windows = {(series.caps, series.q_order) for series in chars.values()}
    if len(windows) != 1:
        raise ValueError("the characters of the table are not on one window")
    (caps, q_order), = windows
    k, l = sum(next(iter(chars))), len(caps)
    report = CheckReport(
        name=f"recurrence-system[k={k},l={l}]",
        window={"caps": list(caps), "q_order": q_order},
    )
    zero = (0,) * (q_order + 1)
    for equation in build_system(k, l):
        (_, defining), *rest = equation.lhs
        first = chars[defining].coeffs
        rest = [(add if sign > 0 else sub, chars[w].coeffs) for sign, w in rest]
        right = chars[equation.rhs_weight].coeffs
        for n in itertools.product(*(range(c + 1) for c in caps)):
            lhs = first.get(n, zero)
            for op, rows in rest:
                row = rows.get(n)
                if row is not None:
                    lhs = tuple(map(op, lhs, row))
            shifted = tuple(map(sub, n, equation.rhs_shift))
            rhs = right.get(shifted) if min(shifted) >= 0 else None
            rhs = zero if rhs is None else ((0,) * sum(n) + rhs)[:q_order + 1]
            report.checked += 1
            if lhs != rhs:
                report.add_violation(
                    where={
                        "weight": list(equation.weight),
                        "n": list(n),
                        "first_bad_exponent": next(
                            e for e, (a, b) in enumerate(zip(lhs, rhs)) if a != b),
                    },
                    expected=QSeries.from_row(rhs),
                    actual=QSeries.from_row(lhs),
                )
    return report
