"""Brute-force oracle: admissible configurations, their stream and their count.

A configuration is a finitely supported sequence (a_0, a_1, ...) of
nonnegative integers, stored as a tuple with no trailing zeros.  Position t
carries color (t mod l) + 1 and contributes (t // l + 1) to the degree per
unit, so that the configuration of the vacuum is the empty tuple.  For a
weight (k_0, ..., k_l) of level k it is admissible under

  * window sums: a_i + ... + a_{i+l} <= k for every i >= 0,
  * either the initial bounds a_0+...+a_r <= k_0+...+k_r for r < l, or an
    exact forced prefix (a_0, a_1) = init_prefix (l = 2 only),

and a window is any combination of the bounds

  * q_order:    module degree sum (t // l + 1) * a_t <= q_order,
  * caps:       per-color weights sum_{t = i-1 mod l} a_t <= caps[i-1],
  * energy_max: first moment sum t * a_t <= energy_max.

At least one of q_order / energy_max must be set, otherwise the window is
infinite; a negative bound leaves the window empty.  `enumerate_configs`
streams the configurations of any such window one at a time from a
depth-first walk.  `weight_degree_counts` counts only the window the
character oracle asks for -- initial bounds, q_order and caps -- with a
transfer-matrix DP over positions whose cost grows with the window, not
with the number of configurations.  Its state, the last l entries and the
color weights, is one int: the entries as digits in base level + 1 above
the weights in mixed radix over the caps, so that each unit placed adds one
constant to it; the weights are decoded back into tuples only at the end.
The tests count the stream as the reference for the DP, and check the
stream against brute force.

A weight is a plain tuple (k_0, ..., k_l).  `weight_parts` is the one check
of its length, entries and level, and every route of the package reads its
weight through it.
"""

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


def _walk(l, level, init_bounds, init_prefix, q_order, caps, energy_max):
    """Yield the live dense list at every admissible node of the window.

    Exactly one of init_bounds / init_prefix is given, and the window has
    passed the checks of `enumerate_configs`.  The list is reused between
    yields; consumers must copy it if they keep it.  Every yielded node is
    one admissible configuration (the list never has trailing zeros), and
    each configuration appears exactly once.
    """
    dense = list(init_prefix or ())
    if sum(dense) > level:
        return  # the window sum over positions 0..l already fails
    counts, degree, energy = [0] * l, 0, 0
    for t, a in enumerate(dense):
        counts[t % l] += a
        degree += (t // l + 1) * a
        energy += t * a
    if ((q_order is not None and degree > q_order)
            or (energy_max is not None and energy > energy_max)
            or (caps is not None
                and any(c > cap for c, cap in zip(counts, caps)))):
        return  # the start already leaves the window
    start = len(dense)
    while dense and dense[-1] == 0:
        dense.pop()

    def rec(start, degree, energy):
        yield dense
        s = start
        while True:
            tf = s // l + 1
            if q_order is not None and degree + tf > q_order:
                break
            if energy_max is not None and energy + s > energy_max:
                break
            vmax = level - sum(dense[max(0, s - l):s])
            if q_order is not None:
                vmax = min(vmax, (q_order - degree) // tf)
            if energy_max is not None and s >= 1:
                vmax = min(vmax, (energy_max - energy) // s)
            color = s % l
            if caps is not None:
                vmax = min(vmax, caps[color] - counts[color])
            if init_bounds is not None and s < l:
                vmax = min(vmax, init_bounds[s] - sum(dense[:s]))
            if vmax >= 1:
                base_len = len(dense)
                dense.extend([0] * (s - base_len))
                dense.append(0)
                for v in range(1, vmax + 1):
                    dense[s] = v
                    counts[color] += v
                    yield from rec(s + 1, degree + tf * v, energy + s * v)
                    counts[color] -= v
                del dense[base_len:]
            s += 1

    yield from rec(start, degree, energy)


def enumerate_configs(l, weight, q_order=None, caps=None, init_prefix=None,
                      energy_max=None):
    """Stream the admissible configurations for `weight` inside a window.

    Any combination of the bounds in the module docstring is accepted; an
    omitted bound is unrestricted.  With init_prefix=(a, b) the weight's
    initial bounds are replaced by the exact prefix a_0 = a, a_1 = b (l = 2
    only; the weight then only supplies the level).  A bad window raises
    ValueError here, at the call, not at the first item.
    """
    parts = weight_parts(weight, l)
    init_bounds = None
    if init_prefix is None:
        init_bounds = tuple(accumulate(parts[:l]))
    elif l != 2:
        raise ValueError("init_prefix is defined for l = 2 only")
    elif len(init_prefix) != 2 or min(init_prefix) < 0:
        raise ValueError("init_prefix must be a pair (a_0, a_1) of entries >= 0")
    if q_order is None and energy_max is None:
        raise ValueError("need q_order or energy_max to make the search finite")
    if caps is not None and len(caps) != l:
        raise ValueError(f"caps must have length l={l}")
    return map(tuple, _walk(l, sum(parts), init_bounds, init_prefix,
                            q_order, caps, energy_max))


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
    n = (n_1, ..., n_l) reached so far, kept as one int key w N + n.  The
    window is the integer w whose digits in base level + 1 are its entries,
    the oldest digit most significant.  The weights are the mixed-radix
    integer n = sum n_i stride_i over the caps, with stride_i the product
    of cap_j + 1 over j < i and N the product of all l of them.  The degree
    is not part of the state but the slot of the list it carries: slot d
    counts the partial configurations on positions < s that reach the state
    with degree d <= q_order.  The list is one int with a B-bit slot per
    degree, slot d at bits [d B, (d + 1) B), so that each step below is one
    operation on the whole list.  At s the degrees > q_order - (s // l + 1)
    can place no further unit: that tail (x & ~keep) moves into a finished
    list per n, and a state with no live degree left (x == 0) is dropped.
    The rest places a_s = 0, which drops the oldest digit and appends a zero
    (key shifted[w] + n), or a_s = v >= 1 within the same bounds as the
    walk.  Each further unit adds the one constant N + stride_{s % l + 1} to
    the key (the newest digit and n_{s % l + 1} grow by one) and shifts the
    list s // l + 1 slots up ((x << B tf) & full); v stops early once the
    shift pushes every live degree past q_order.  Two lists merge by +.  The
    window's part of the bound on a_s (level, q_order and the initial bounds
    at s < l) comes from a table per position over the windows whose entries
    sum to <= level, C(level + l, l) of them; the cap's part is read off n,
    so no table is indexed by n.  Only the finished n are decoded back into
    tuples, at the end.

    Position t holds part t // l + 1 in color t % l, so the partial
    configurations counted in one slot d are distinct l-colored partitions
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
    full = (1 << B * Q) - 1
    strides = []  # n in mixed radix over the caps: n_i counts stride_i
    N = 1
    for cap in caps:
        strides.append(N)
        N *= cap + 1
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
        keep = (1 << B * cut) - 1
        step = B * tf
        vq = q_order // tf  # a larger a_s shifts every degree past q_order
        color = s % l
        stride, cap = strides[color], caps[color]
        radix = cap + 1
        unit = N + stride  # one more unit at s: a_s + 1 and n_color + 1
        # positions before s < l all sit in the window, and
        # init_bounds[s] <= level
        bound = init_bounds[s] if s < l else level
        room = {w: min(bound - u, vq) for w, u in sums.items()}
        nxt = {}
        for key, x in table.items():
            w, n = key // N, key % N
            if x > keep:
                finished[n] = finished.get(n, 0) + (x & ~keep)
                x &= keep
                if not x:
                    continue
            k = shifted[w] + n
            nxt[k] = nxt.get(k, 0) + x
            # the cap's part of the bound; an if is cheaper than min() here
            vmax = cap - n // stride % radix
            if room[w] < vmax:
                vmax = room[w]
            for _ in range(vmax):
                x = (x << step) & full
                if not x:
                    break  # a larger a_s shifts every live degree out too
                k += unit
                nxt[k] = nxt.get(k, 0) + x
        table = nxt
        s += 1
    mask = (1 << B) - 1
    out = {}
    for n, fin in finished.items():
        n = tuple(n // stride % (cap + 1) for stride, cap in zip(strides, caps))
        for d in range(Q):
            if c := fin >> B * d & mask:
                out[n + (d,)] = c
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
