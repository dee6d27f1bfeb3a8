"""Benchmark the counting kernel against a count of the configuration stream.

Times the transfer-matrix DP behind character_oracle and, as the reference,
the histogram counted from the depth-first stream of the same window, on
acceptance-scale windows; asserts that the two histograms are identical.
Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_enum.py
"""

import statistics
import time

from fstchar import _enumpure
from fstchar.admissible import degree_weight

WORKLOADS = [
    ("level 2, caps (8,8), q<=20", dict(
        l=2, level=2, init_bounds=(1, 2), q_order=20, caps=(8, 8))),
    ("level 3, caps (6,6), q<=20", dict(
        l=2, level=3, init_bounds=(1, 2), q_order=20, caps=(6, 6))),
    ("level 2, caps (10,16), q<=26", dict(
        l=2, level=2, init_bounds=(2, 2), q_order=26, caps=(10, 16))),
    ("level 2, rank 3, caps (5,5,5), q<=12", dict(
        l=3, level=2, init_bounds=(1, 1, 2), q_order=12, caps=(5, 5, 5))),
    ("level 1, prefix (0,0), energy<=24", dict(
        l=2, level=1, init_prefix=(0, 0), energy_max=24)),
]


def streamed_counts(kwargs):
    out = {}
    for config in _enumpure.iter_configs(**kwargs):
        degree, weight = degree_weight(config, kwargs["l"])
        key = weight + (degree,)
        out[key] = out.get(key, 0) + 1
    return out


def median_of(fn, repeats=5):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def main():
    header = f"{'workload':42} {'configs':>9} {'stream':>10} {'DP':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, kwargs in WORKLOADS:
        stream_time, streamed = median_of(lambda: streamed_counts(kwargs))
        dp_time, counted = median_of(
            lambda: _enumpure.count_weight_degree(**kwargs)
        )
        if counted != streamed:
            raise SystemExit(f"kernel mismatch on {name}")
        print(f"{name:42} {sum(counted.values()):>9} {stream_time * 1e3:>8.1f}ms"
              f" {dp_time * 1e3:>8.1f}ms {stream_time / dp_time:>7.1f}x")


if __name__ == "__main__":
    main()
