"""Configuration stream and counting kernel for admissible configurations.

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
infinite; a negative bound leaves the window empty.  `iter_configs` streams
the configurations of any such window one at a time from a depth-first walk.
`count_weight_degree` counts only the window the character oracle asks for
-- initial bounds, q_order and caps -- with a transfer-matrix DP over
positions whose cost grows with the window, not with the number of
configurations.  Its state is the last l entries and the n-vector; the
degree is not part of the state but the index into a list of counts that
the state carries.  Degrees that can no longer grow move out of the state's
list into a finished list per n-vector.  The tests count the stream as the
reference for the DP, and check the stream against brute force.
"""

from operator import add


def _walk(l, level, init_bounds, init_prefix, q_order, caps, energy_max):
    """Yield the live dense list at every admissible node of the window.

    The list is reused between yields; consumers must copy it if they keep
    it.  Every yielded node is one admissible configuration (the list never
    has trailing zeros), and each configuration appears exactly once.
    """
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
    dense = list(init_prefix or ())
    if any(a < 0 for a in dense):
        raise ValueError("init_prefix entries must be >= 0")
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


def iter_configs(l, level, init_bounds=None, init_prefix=None, q_order=None,
                 caps=None, energy_max=None):
    """Yield each admissible configuration in the window once, as a tuple.

    Any combination of the bounds in the module docstring is accepted.
    """
    for dense in _walk(l, level, init_bounds, init_prefix, q_order, caps,
                       energy_max):
        yield tuple(dense)


def count_weight_degree(l, level, init_bounds, q_order, caps):
    """Histogram of the oracle's window by (n_1, ..., n_l, degree).

    The window holds the configurations under the initial bounds with
    degree <= q_order and color weights <= caps.  The DP advances a table
    {state: degree list} one position s at a time.  A state is the flat
    tuple (a_{s-l}, ..., a_{s-1}, n_1, ..., n_l), and entry d of its list is
    the number of partial configurations on positions < s that reach it
    with degree d <= q_order.  At s the degrees > q_order - (s // l + 1) can
    place no further unit: that tail moves into a finished list per
    n-vector, and a state with no live degree left is dropped.  The rest
    places a_s = 0, or a_s = v >= 1 within the same bounds as the walk, by
    shifting the list v * (s // l + 1) degrees up; v stops early once the
    shift pushes every live degree past q_order.
    """
    if l < 1 or len(init_bounds) != l or len(caps) != l:
        raise ValueError(f"need l >= 1 and init_bounds, caps of length l={l}")
    if q_order < 0 or min(caps) < 0:
        return {}
    Q = q_order + 1
    table = {(0,) * (2 * l): [1] + [0] * q_order}
    finished = {}
    s = 0
    while table:
        tf = s // l + 1
        cut = max(Q - tf, 0)  # degrees from cut on can place no further unit
        vq = q_order // tf  # a larger a_s shifts every degree past q_order
        color = s % l
        ci = l + color  # index of this position's color count
        cap = caps[color]
        nxt = {}
        for key, lst in table.items():
            m = len(lst)
            if m > cut:
                n = key[l:]
                fin = finished.get(n)
                if fin is None:
                    fin = finished[n] = [0] * Q
                fin[cut:m] = map(add, fin[cut:m], lst[cut:])
                del lst[cut:]
                if not any(lst):
                    continue
            used = sum(key[:l])
            vmax = min(level - used, vq, cap - key[ci])
            if s < l:
                # positions before s < l all sit in the window
                vmax = min(vmax, init_bounds[s] - used)
            shifted = key[1:l]
            k0 = shifted + (0,) + key[l:]
            old = nxt.get(k0)
            nxt[k0] = lst if old is None else list(map(add, old, lst))
            before = key[l:ci]
            after = key[ci + 1:]
            c = key[ci]
            for v in range(1, vmax + 1):
                shift = tf * v
                new = [0] * shift + lst[:Q - shift]
                if not any(new):
                    break  # a larger v shifts every live degree out too
                k = shifted + (v,) + before + (c + v,) + after
                old = nxt.get(k)
                nxt[k] = new if old is None else list(map(add, old, new))
        table = nxt
        s += 1
    return {n + (d,): c for n, fin in finished.items()
            for d, c in enumerate(fin) if c}
