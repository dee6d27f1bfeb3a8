"""The recurrence system tying together all level-k characters.

For a weight w = (k_0, ..., k_l) the equation indexed by w reads

    sum_I (-1)^{|I|} A_{w_I}^{n_1,...,n_l}(q)
        = q^{n_1+...+n_l} A_{w'}^{n_1-k_0, ..., n_l-k_{l-1}}(q)

where I ranges over subsets of {0, ..., l-1} supported on the nonzero
entries of w, w_I lowers k_i and raises k_{i+1} for each i in I, and
w' = (k_l, k_0, ..., k_{l-1}) is the cyclic shift.  Summands whose lowered
exponents turn negative vanish.
"""

import itertools
from dataclasses import dataclass
from operator import add, sub

from .admissible import weight_parts
from .qseries import QSeries
from .reporting import CheckReport


def index_sets(weight, l):
    """Subsets of {0..l-1} supported on nonzero weight entries, {} included.

    Ordered by size then lexicographically, so the defining weight (I = {})
    always comes first.
    """
    weight = weight_parts(weight, l)
    support = [i for i in range(l) if weight[i] != 0]
    out = []
    for size in range(len(support) + 1):
        out.extend(tuple(c) for c in itertools.combinations(support, size))
    return out


def apply_index_set(weight, index_set):
    """Lower k_i and raise k_{i+1} for every i in the set, on a checked weight."""
    parts = list(weight)
    for i in index_set:
        if weight[i] == 0:
            raise ValueError(f"index {i} not in the support of {weight}")
        parts[i] -= 1
        parts[i + 1] += 1
    return tuple(parts)


@dataclass(frozen=True)
class RecurrenceEquation:
    weight: tuple          # the defining weight (k_0, ..., k_l)
    lhs: tuple             # ((sign, weight), ...), defining weight first
    rhs_weight: tuple      # cyclic shift (k_l, k_0, ..., k_{l-1})
    rhs_shift: tuple       # (k_0, ..., k_{l-1}): n_i -> n_i - shift[i-1]

    def render(self):
        def var_text(shift):
            parts = []
            for i, s in enumerate(shift, start=1):
                parts.append(f"n{i}-{s}" if s else f"n{i}")
            return ",".join(parts)

        left = []
        for sign, w in self.lhs:
            term = f"A[{','.join(map(str, w))}]({var_text((0,) * len(self.rhs_shift))})"
            if not left:
                left.append(term if sign > 0 else f"-{term}")
            else:
                left.append(f"{'+' if sign > 0 else '-'} {term}")
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
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix) + (remaining,))
            return
        for v in range(remaining, -1, -1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], k, l + 1)
    return out


def build_equation(weight, l):
    weight = weight_parts(weight, l)
    lhs = tuple(
        ((-1) ** len(I), apply_index_set(weight, I)) for I in index_sets(weight, l)
    )
    rhs_weight = weight[-1:] + weight[:-1]
    return RecurrenceEquation(
        weight=weight,
        lhs=lhs,
        rhs_weight=rhs_weight,
        rhs_shift=weight[:-1],
    )


def build_system(k, l):
    """One equation per level-k weight, in canonical order."""
    return [build_equation(w, l) for w in level_weights(k, l)]


def render_system(equations):
    return "\n".join(eq.render() for eq in equations) + "\n"


def verify_equation(equation, provider, caps, q_order, report):
    """Check one equation coefficient-exactly over the full cap window.

    `provider` maps a weight tuple to its CharSeries on the shared window.
    The q-prefactor only shifts exponents upward, so every lhs coefficient of
    order <= q_order is checkable against characters known to the same order.
    Both sides are rows of length q_order + 1: the lhs adds and subtracts
    the rows of its weights, and the rhs row is the shifted weight's row
    moved up by |n| = n_1 + ... + n_l and cut at q_order.  Each comparison
    and violation is counted into `report`.
    """
    caps = tuple(caps)
    chars = {w: provider(w) for _, w in equation.lhs}
    chars[equation.rhs_weight] = provider(equation.rhs_weight)
    for series in chars.values():
        if series.caps != caps or series.q_order != q_order:
            raise ValueError("provider returned a character on a different window")

    zero = (0,) * (q_order + 1)
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


def verify_system(provider, k, l, caps, q_order):
    """Verify the whole level-k system; returns a merged CheckReport."""
    report = CheckReport(
        name=f"recurrence-system[k={k},l={l}]",
        window={"caps": list(caps), "q_order": q_order},
    )
    for eq in build_system(k, l):
        verify_equation(eq, provider, caps, q_order, report)
    return report
