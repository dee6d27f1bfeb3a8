"""Counting kernel and configuration stream for admissible configurations.

The configurations are the finitely supported sequences (a_0, a_1, ...) of
nonnegative integers subject to

  * window sums: a_i + ... + a_{i+l} <= level for every i >= 0,
  * either partial-sum initial conditions a_0+...+a_r <= init_bounds[r]
    for r < l, or an exact forced prefix (a_0, a_1) = init_prefix,

within a finite search window given by any combination of

  * q_order:    module degree sum (t // l + 1) * a_t <= q_order,
  * caps:       per-color weights sum_{t = i-1 mod l} a_t <= caps[i-1],
  * energy_max: first moment sum t * a_t <= energy_max.

At least one of q_order / energy_max must be set, otherwise the window is
infinite.  `count_weight_degree` is a transfer-matrix DP over positions whose
cost grows with the window, not with the number of configurations.  Its
state is the last l entries and the n-vector (and the energy, if bounded);
the degree is not part of the state but the index into a list of counts that
the state carries.  Degrees that can no longer grow move out of the state's
list into a finished list per n-vector; for a window bounded only by the
energy the lists stop at degree level + 2 * energy_max.
`iter_configs` streams the configurations one at a time from a depth-first
walk; the tests count that stream as the reference for the DP.
"""

from operator import add


def _validate(l, level, init_bounds, init_prefix, q_order, caps, energy_max):
    if l < 1:
        raise ValueError("need l >= 1")
    if level < 0:
        raise ValueError("level must be >= 0")
    if (init_bounds is None) == (init_prefix is None):
        raise ValueError("exactly one of init_bounds/init_prefix is required")
    if init_bounds is not None and len(init_bounds) != l:
        raise ValueError(f"init_bounds must have length l={l}")
    if init_prefix is not None and len(init_prefix) != 2:
        raise ValueError("init_prefix must be a pair (a_0, a_1)")
    if q_order is None and energy_max is None:
        raise ValueError("need q_order or energy_max to make the search finite")
    if caps is not None and len(caps) != l:
        raise ValueError(f"caps must have length l={l}")


def _root(l, level, init_bounds, init_prefix, q_order, caps, energy_max):
    """Validated start: (placed prefix, color counts, degree, energy), or None.

    None means the forced prefix already leaves the window, so the window
    holds no configuration at all.
    """
    _validate(l, level, init_bounds, init_prefix, q_order, caps, energy_max)
    if init_prefix is None:
        return [], [0] * l, 0, 0
    a0, b0 = init_prefix
    if a0 < 0 or b0 < 0:
        raise ValueError("init_prefix entries must be >= 0")
    if a0 + b0 > level:
        return None  # the window sum over positions 0..l already fails
    counts = [0] * l
    counts[0] += a0
    counts[1 % l] += b0
    degree = a0 + (1 // l + 1) * b0
    energy = b0
    if q_order is not None and degree > q_order:
        return None
    if energy_max is not None and energy > energy_max:
        return None
    if caps is not None and any(c > cap for c, cap in zip(counts, caps)):
        return None
    return [a0, b0], counts, degree, energy


def _walk(l, level, init_bounds, init_prefix, q_order, caps, energy_max):
    """Yield (degree, weight-tuple, live dense list) at every admissible node.

    The dense list is reused between yields; consumers must copy it if they
    keep it.  Every yielded node is one admissible configuration (the list
    never has trailing zeros), and each configuration appears exactly once.
    """
    root = _root(l, level, init_bounds, init_prefix, q_order, caps, energy_max)
    if root is None:
        return
    dense, counts, degree, energy = root
    start = len(dense)
    while dense and dense[-1] == 0:
        dense.pop()

    def rec(start, degree, energy):
        yield degree, tuple(counts), dense
        s = start
        while True:
            tf = s // l + 1
            if q_order is not None and degree + tf > q_order:
                break
            if energy_max is not None and s >= 1 and energy + s > energy_max:
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


def iter_configs(l, level, init_bounds=None, init_prefix=None, q_order=None,
                 caps=None, energy_max=None):
    """Yield each admissible configuration in the window once, as a tuple."""
    for _, _, dense in _walk(l, level, init_bounds, init_prefix, q_order,
                             caps, energy_max):
        yield tuple(dense)


def count_weight_degree(l, level, init_bounds=None, init_prefix=None,
                        q_order=None, caps=None, energy_max=None):
    """Histogram of admissible configurations by (n_1, ..., n_l, degree).

    The DP advances a table {state: degree list} one position s at a time.
    A state is the flat tuple (a_{s-l}, ..., a_{s-1}, n_1, ..., n_l[, energy])
    -- the energy only when energy_max is set -- and entry d of its list is
    the number of partial configurations on positions < s that reach it with
    degree d < Q.  Q is q_order + 1, or level + 2 * energy_max + 1 when only
    the energy bounds the window, since degree <= a_0 + 2 * sum t * a_t.
    At s the degrees >= Q - (s // l + 1) can place no further unit: that tail
    moves into a finished list per n-vector, and the whole list moves once
    energy + s > energy_max.  A state with no live degree left is dropped.
    The rest places a_s = 0, or a_s = v >= 1 within the same bounds as the
    walk, by shifting the list v * (s // l + 1) degrees up; v stops early
    once the shift pushes every live degree past Q - 1.
    """
    root = _root(l, level, init_bounds, init_prefix, q_order, caps, energy_max)
    if root is None:
        return {}
    prefix, counts, degree, energy = root
    if q_order is not None:
        Q = q_order + 1
    else:  # a negative energy_max still admits a_0 <= level alone
        Q = level + 2 * max(energy_max, 0) + 1
    start = [0] * Q
    start[degree] = 1
    window = ([0] * l + prefix)[-l:]
    etail = (energy,) if energy_max is not None else ()
    table = {tuple(window + counts) + etail: start}
    finished = {}
    D = 2 * l  # end of the n-vector in a state
    s = len(prefix)
    while table:
        tf = s // l + 1
        cut = max(Q - tf, 0)  # degrees from cut on can place no further unit
        vq = (Q - 1) // tf  # a larger a_s shifts every degree past Q - 1
        color = s % l
        ci = l + color  # index of this position's color count
        cap = caps[color] if caps is not None else None
        init_cap = init_bounds[s] if init_bounds is not None and s < l else None
        nxt = {}
        for key, lst in table.items():
            live = cut
            if energy_max is not None and s >= 1 and key[D] + s > energy_max:
                live = 0
            m = len(lst)
            if m > live:
                n = key[l:D]
                fin = finished.get(n)
                if fin is None:
                    fin = finished[n] = [0] * Q
                fin[live:m] = map(add, fin[live:m], lst[live:])
                del lst[live:]
                if not any(lst):
                    continue
            vmax = min(level - sum(key[:l]), vq)
            if energy_max is not None and s >= 1:
                vmax = min(vmax, (energy_max - key[D]) // s)
            if cap is not None:
                vmax = min(vmax, cap - key[ci])
            if init_cap is not None:
                # positions before s < l all sit in the window
                vmax = min(vmax, init_cap - sum(key[:l]))
            shifted = key[1:l]
            k0 = shifted + (0,) + key[l:]
            old = nxt.get(k0)
            nxt[k0] = lst if old is None else list(map(add, old, lst))
            before = key[l:ci]
            after = key[ci + 1:D]
            c = key[ci]
            for v in range(1, vmax + 1):
                shift = tf * v
                new = [0] * shift + lst[:Q - shift]
                if not any(new):
                    break  # a larger v shifts every live degree out too
                if energy_max is not None:
                    etail = (key[D] + s * v,)
                k = shifted + (v,) + before + (c + v,) + after + etail
                old = nxt.get(k)
                nxt[k] = new if old is None else list(map(add, old, new))
        table = nxt
        s += 1
    return {n + (d,): c for n, fin in finished.items()
            for d, c in enumerate(fin) if c}
