"""Brute-force oracle: count admissible configurations, build characters.

A configuration is a finitely supported sequence (a_0, a_1, ...) of
nonnegative integers, stored as a tuple with no trailing zeros.  Position t
carries color (t mod l) + 1 and contributes (t // l + 1) to the degree per
unit, so that the configuration of the vacuum is the empty tuple.

Histograms come from the transfer-matrix DP in _enumpure, which counts the
oracle's window without visiting each configuration; enumerate_configs
streams the configurations of any window one at a time from the depth-first
walk beside it.
"""

from dataclasses import dataclass

from . import _enumpure
from .charseries import CharSeries
from .qseries import QSeries

KERNEL = "pure"


@dataclass(frozen=True)
class HighestWeight:
    """Dominant integral weight, stored as its coefficient tuple (k_0, ..., k_l)."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if any(p < 0 for p in self.parts):
            raise ValueError(f"weight parts must be >= 0, got {self.parts}")
        if sum(self.parts) < 1:
            raise ValueError("level must be >= 1")

    @property
    def level(self):
        return sum(self.parts)

    def initial_bounds(self, l):
        """Cumulative bounds k_0 + ... + k_r for r = 0, ..., l-1."""
        if len(self.parts) != l + 1:
            raise ValueError(f"weight {self.parts} does not match l={l}")
        bounds = []
        acc = 0
        for p in self.parts[:l]:
            acc += p
            bounds.append(acc)
        return tuple(bounds)

    @classmethod
    def coerce(cls, value):
        if isinstance(value, cls):
            return value
        return cls(tuple(value))


def is_admissible(config, l, weight):
    """Window sums <= level everywhere and all l partial-sum initial bounds."""
    weight = HighestWeight.coerce(weight)
    if l < 1:
        raise ValueError("need l >= 1")
    config = tuple(config)
    if any(a < 0 for a in config):
        raise ValueError("configuration entries must be >= 0")
    k = weight.level
    for i in range(len(config)):
        if sum(config[i:i + l + 1]) > k:
            return False
    bounds = weight.initial_bounds(l)
    for r in range(l):
        if sum(config[:r + 1]) > bounds[r]:
            return False
    return True


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


def enumerate_configs(l, weight, q_order=None, caps=None, init_prefix=None,
                      energy_max=None):
    """Stream the admissible configurations for `weight` inside the window.

    The stream takes any combination of bounds: it keeps configurations
    with degree <= q_order, color weights componentwise <= caps and energy
    <= energy_max; omitted bounds are unrestricted, but at least one of
    q_order/energy_max must be given, and a negative bound leaves the window
    empty.  With init_prefix=(a, b) the weight's initial conditions are
    replaced by the exact prefix a_0 = a, a_1 = b (only meaningful for l = 2;
    the weight then only supplies the level).
    """
    weight = HighestWeight.coerce(weight)
    init_bounds = None
    if init_prefix is None:
        init_bounds = weight.initial_bounds(l)
    elif l != 2:
        raise ValueError("init_prefix is defined for l = 2 only")
    return _enumpure.iter_configs(
        l, weight.level, init_bounds=init_bounds, init_prefix=init_prefix,
        q_order=q_order, caps=caps, energy_max=energy_max,
    )


def weight_degree_counts(l, weight, q_order, caps):
    """Histogram {(n_1, ..., n_l, degree): count} over the oracle's window.

    The window is the weight's initial bounds with degree <= q_order and
    color weights <= caps, the one the character oracle needs.  Counted by
    the transfer-matrix DP; the result equals counting the stream of
    enumerate_configs over the same window.
    """
    weight = HighestWeight.coerce(weight)
    return _enumpure.count_weight_degree(
        l, weight.level, weight.initial_bounds(l), q_order, caps)


def character_oracle(l, weight, q_order, caps):
    """Exact truncated character: coefficient of q^d z^n counts configurations."""
    if q_order is None or caps is None:
        raise ValueError("character_oracle needs an explicit q_order and caps")
    counts = weight_degree_counts(l, weight, q_order=q_order, caps=tuple(caps))
    by_weight = {}
    for key, count in counts.items():
        n, degree = key[:-1], key[-1]
        by_weight.setdefault(n, {})[degree] = count
    coeffs = {
        n: QSeries(series, q_order) for n, series in by_weight.items()
    }
    return CharSeries(l, tuple(caps), q_order, coeffs)
