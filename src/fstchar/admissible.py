"""Brute-force oracle: admissible configurations, their stream and their count.

A configuration is a finitely supported sequence (a_0, a_1, ...) of
nonnegative integers, stored as a tuple with no trailing zeros.  Position t
carries color (t mod l) + 1 and contributes (t // l + 1) to the degree per
unit, so that the configuration of the vacuum is the empty tuple.  For a
weight (k_0, ..., k_l) of level k it is admissible under

  * window sums: a_i + ... + a_{i+l} <= k for every i >= 0,
  * either the initial bounds a_0+...+a_r <= k_0+...+k_r for r < l, or an
    exact forced prefix (a_0, ..., a_{l-1}) = init_prefix,

and a window is any combination of the bounds

  * q_order:    module degree sum (t // l + 1) * a_t <= q_order,
  * caps:       per-color weights sum_{t = i-1 mod l} a_t <= caps[i-1],
  * energy_max: first moment sum t * a_t <= energy_max.

At least one of q_order / energy_max must be set, otherwise the window is
infinite; a negative bound leaves it empty, as a negative order does in the
DP, `character_fermionic` and `chi_fjmmt`.  An omitted bound is sys.maxsize,
out of reach of the finite one, as degree <= level + 2 energy, energy <= l
degree and n_i <= degree.  One depth-first walk yields every configuration
of any such window with its first moment, and has two readers:
`enumerate_configs` streams the configurations one at a time, and
`specialize.prefix_census` counts the moments.  `weight_degree_counts`
counts only the window the character oracle asks for -- initial bounds,
q_order and caps -- with a transfer-matrix DP over positions whose cost
grows with the window, not with the number of configurations (its docstring
lays out the packed state).  The tests count the stream as the reference for
the DP, and check the stream against brute force.

A weight is a plain tuple (k_0, ..., k_l).  `weight_parts` is the one check
of its length, entries and level, and every route of the package reads its
weight through it.
"""

import sys
from itertools import accumulate
from operator import index

from .charseries import CharSeries

KERNEL = "pure"


def weight_parts(weight, l):
    """The weight (k_0, ..., k_l) of rank l as a tuple of ints, checked.

    Raises ValueError unless l >= 1 and the weight has l + 1 entries >= 0 of
    level k_0 + ... + k_l >= 1, and TypeError for an entry that is not an
    integer: 1.5 is refused, not rounded.
    """
    if l < 1:
        raise ValueError("need l >= 1")
    parts = tuple(map(index, weight))
    if len(parts) != l + 1:
        raise ValueError(f"weight must have {l + 1} entries for l={l}, got {parts}")
    if min(parts) < 0 or sum(parts) < 1:
        raise ValueError(f"weight entries must be >= 0 with level >= 1, got {parts}")
    return parts


def degree_weight(config, l):
    """Degree sum (t//l + 1) a_t and the color weights (n_1, ..., n_l)."""
    if l < 1:
        raise ValueError("need l >= 1")
    degree = 0
    weight = [0] * l
    for t, a in enumerate(config):
        degree += (t // l + 1) * a
        weight[t % l] += a
    return degree, tuple(weight)


def energy(config):
    """First moment sum t * a_t (the degree used by spec_2-style censuses)."""
    return sum(t * a for t, a in enumerate(config))


def _walk(l, level, init_bounds, prefix, q_order, caps, energy_max):
    """Yield (dense, moment) at every admissible node of the window.

    Every bound is an int, and the prefix is () or has length l, so the
    initial bounds act at s < l only without one.  dense is the live list,
    reused between yields (consumers must copy it to keep it), and moment
    its first moment, carried down the walk.  Every yielded node is one
    admissible configuration (the list never has trailing zeros), and each
    configuration appears exactly once.
    """
    dense = list(prefix)
    degree, counts = degree_weight(dense, l)
    counts, moment = list(counts), energy(dense)
    if (sum(dense) > level or degree > q_order or moment > energy_max
            or any(c > cap for c, cap in zip(counts, caps))):
        return  # the start already leaves the window
    start = len(dense)
    while dense and dense[-1] == 0:
        dense.pop()

    def rec(s, degree, moment):
        yield dense, moment
        while degree + (tf := s // l + 1) <= q_order and moment + s <= energy_max:
            color = s % l
            vmax = min(level - sum(dense[max(0, s - l):s]),
                       (q_order - degree) // tf, caps[color] - counts[color])
            if s >= 1:
                vmax = min(vmax, (energy_max - moment) // s)
            if s < l:
                vmax = min(vmax, init_bounds[s] - sum(dense[:s]))
            if vmax >= 1:
                base_len = len(dense)
                dense.extend([0] * (s - base_len))
                dense.append(0)
                for v in range(1, vmax + 1):
                    dense[s] = v
                    counts[color] += v
                    yield from rec(s + 1, degree + tf * v, moment + s * v)
                    counts[color] -= v
                del dense[base_len:]
            s += 1

    yield from rec(start, degree, moment)


def enumerate_configs(l, weight, q_order=None, caps=None, init_prefix=None,
                      energy_max=None):
    """Stream the admissible configurations for `weight` inside a window.

    Any combination of the bounds in the module docstring is accepted; an
    omitted bound is passed to the walk as sys.maxsize.  The library reads a
    negative bound as an empty window; the CLI refuses one as bad input.  With
    init_prefix=(a_0, ..., a_{l-1}) the weight's initial bounds are replaced
    by that exact prefix, at every rank l (the weight then only supplies
    the level).  A bad window raises here, at the call, not at the first
    item: ValueError for a wrong length or sign, TypeError for an entry or
    bound that is not an integer.
    """
    parts = weight_parts(weight, l)
    if init_prefix is not None:
        init_prefix = tuple(map(index, init_prefix))
        if len(init_prefix) != l or min(init_prefix) < 0:
            raise ValueError(f"init_prefix must have {l} entries >= 0 for "
                             f"l={l}, got {init_prefix}")
    if q_order is None and energy_max is None:
        raise ValueError("need q_order or energy_max to make the search finite")
    if caps is None:
        caps = (sys.maxsize,) * l
    elif len(caps := tuple(map(index, caps))) != l:
        raise ValueError(f"caps must have length l={l}")
    q_order = sys.maxsize if q_order is None else index(q_order)
    energy_max = sys.maxsize if energy_max is None else index(energy_max)
    return (tuple(dense) for dense, _ in _walk(
        l, sum(parts), tuple(accumulate(parts[:l])), init_prefix or (), q_order,
        caps, energy_max))


def _colored_partitions(l, q_order):
    """p_l(q_order): the number of l-colored partitions of q_order."""
    p = [1] + [0] * q_order
    for _ in range(l):
        for part in range(1, q_order + 1):
            for d in range(part, q_order + 1):
                p[d] += p[d - part]
    return p[q_order]


def weight_degree_counts(weight, q_order, caps):
    """Histogram {(n_1, ..., n_l, degree): count} over the oracle's window.

    The window holds the configurations under the weight's initial bounds
    with degree <= q_order and color weights <= caps, at rank l = len(caps);
    the result equals counting enumerate_configs's stream.  The DP
    advances a table {state: degree list} one position s at a time.  A state
    is the window (a_{s-l}, ..., a_{s-1}) and the color weights
    n = (n_2, ..., n_l) reached so far, kept as one int key w N + n.  The
    window is the integer w whose digits in base level + 1 are its entries,
    the oldest digit most significant.  The weights are the mixed-radix
    integer n = sum n_i stride_i over caps[1:], with stride_i the product
    of cap_j + 1 over 1 < j < i and N the product of all l - 1 of them.
    Neither n_1 nor the degree is part of the state: both index the list it
    carries, whose slot (n_1, d) counts the partial configurations on
    positions < s that reach the state with color-1 weight n_1 and degree
    d <= q_order.  The list is one int of blocks of W = B (q_order + 1)
    bits, block n_1 at bits [n_1 W, (n_1 + 1) W), each holding a B-bit
    slot per degree, slot d at bits [d B, (d + 1) B) of its block, so that
    each step below is one operation on the whole list.  Every color-1
    unit adds at least 1 to the degree, so n_1 <= degree <= q_order: there
    are min(cap_1, q_order) + 1 blocks, not cap_1 + 1.  At s the degrees
    > q_order - (s // l + 1) can place no further unit: that tail of every
    block (x & tail) moves into a finished list per n, and a state with no
    live degree left is dropped.  The rest places a_s = 0, which drops the
    oldest digit and appends a zero (key shifted[w] + n), or a_s = v >= 1
    within the same bounds as the walk.  Each further unit adds one
    constant to the key (N, as the newest digit grows by one, plus
    stride_{s % l + 1} at colors 2..l) and shifts the list s // l + 1 slots
    up, and one block more at color 1.  After each shift the carry mask
    clears the low s // l + 1 slots of every block: a degree pushed past
    q_order in block n_1 would otherwise land in block n_1 + 1, and an n_1
    pushed past the last block leaves the int, which is how cap_1 binds.
    v stops early once the shift pushes every live degree out.  Two lists
    merge by +.  The window's part of the bound on a_s (level, q_order and
    the initial bounds at s < l) comes from a table per position over the
    windows whose entries sum to <= level, C(level + l, l) of them; the
    part of caps 2..l is read off n, so no table is indexed by n.  Only the
    finished lists are decoded back into tuples, block by block, at the end.

    Position t holds part t // l + 1 in color t % l, so the partial
    configurations counted in one slot are distinct l-colored partitions
    of d and every count is at most p_l(q_order).  B is one bit more than
    p_l(q_order) needs, so no sum or shift carries one slot into the next.
    """
    l = len(caps)
    parts = weight_parts(weight, l)
    init_bounds, level = tuple(accumulate(parts[:l])), sum(parts)
    if q_order < 0 or min(caps) < 0:
        return {}
    Q = q_order + 1
    B = _colored_partitions(l, q_order).bit_length() + 1
    W = B * Q  # one block: the degree list at one n_1
    blocks = min(caps[0], q_order) + 1  # n_1 <= degree <= q_order
    ones = sum(1 << j * W for j in range(blocks))  # bit 0 of every block
    full = (1 << W * blocks) - 1
    strides = []  # n_2..n_l in mixed radix over caps[1:]: n_i counts stride_i
    N = 1
    for cap in caps[1:]:
        strides.append(N)
        N *= cap + 1
    # per color: the key's step and the list's shift beyond B tf per unit,
    # and the stride and cap that bound the unit count.  n_1 is the block:
    # n // N reads it as 0, so its cap binds through the carry mask
    colors = [(N, W, N, caps[0])] + [
        (N + stride, 0, stride, cap) for stride, cap in zip(strides, caps[1:])]
    R = level + 1  # a window entry is a digit in base R
    top = R ** (l - 1)  # the place value of the oldest digit
    # every window whose entries sum to <= level: {its digits: their sum}
    sums = {0: 0}
    for _ in range(l):
        sums = {w * R + a: u + a for w, u in sums.items()
                for a in range(level - u + 1)}
    # the key of a state in window w after placing a_s = 0, less its n part
    shifted = {w: w % top * R * N for w in sums}
    table = {0: 1}
    finished = {}
    s = 0
    while table:
        tf = s // l + 1
        cut = max(Q - tf, 0)  # degrees from cut on can place no further unit
        tail = full ^ ((1 << B * cut) - 1) * ones
        # clears the degrees < tf of every block, which no unit reaches
        mask = full ^ ((1 << B * tf) - 1) * ones
        vq = q_order // tf  # a larger a_s shifts every degree past q_order
        unit, lift, stride, cap = colors[s % l]
        step = B * tf + lift
        radix = cap + 1
        # positions before s < l all sit in the window, and
        # init_bounds[s] <= level
        bound = init_bounds[s] if s < l else level
        room = {w: min(bound - u, vq) for w, u in sums.items()}
        nxt = {}
        for key, x in table.items():
            w, n = key // N, key % N
            if done := x & tail:
                finished[n] = finished.get(n, 0) + done
                x ^= done
                if not x:
                    continue
            k = shifted[w] + n
            nxt[k] = nxt.get(k, 0) + x
            # the cap's part of the bound; an if is cheaper than min() here
            vmax = cap - n // stride % radix
            if room[w] < vmax:
                vmax = room[w]
            for _ in range(vmax):
                x = (x << step) & mask
                if not x:
                    break  # a larger a_s shifts every live degree out too
                k += unit
                nxt[k] = nxt.get(k, 0) + x
        table = nxt
        s += 1
    lane, slot = (1 << W) - 1, (1 << B) - 1
    out = {}
    for n, fin in finished.items():
        n = tuple(n // stride % (cap + 1) for stride, cap in zip(strides, caps[1:]))
        for n_1 in range(blocks):
            block = fin >> W * n_1 & lane
            for d in range(n_1, Q):
                if c := block >> B * d & slot:
                    out[(n_1,) + n + (d,)] = c
    return out


def character_oracle(weight, q_order, caps):
    """Exact truncated character of rank len(caps): q^d z^n counts configurations."""
    if q_order is None or caps is None:
        raise ValueError("character_oracle needs an explicit q_order and caps")
    counts = weight_degree_counts(weight, q_order=q_order, caps=caps)
    rows = {}
    for key, count in counts.items():
        n = key[:-1]
        row = rows.get(n)
        if row is None:
            row = rows[n] = [0] * (q_order + 1)
        row[key[-1]] = count
    return CharSeries(caps, q_order, rows)
