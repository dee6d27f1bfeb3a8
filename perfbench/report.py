"""One command for every metric of every workload.

    python3 perfbench/report.py

Runs the self-test, then each workload with --trace 0 and --trace 1 through
run.py, at seed 1 and the run_seconds of BENCHMARK.json, exactly as a single
benchmark run does.  Prints the end-to-end metrics (with fail_ratio) and the
per-layer metrics as one table per kind, and writes the whole result to
perfbench/out/BENCH_layers.json.  Exits nonzero if any run failed.

A timed run takes about run_seconds.  A traced run does not follow
run_seconds: it runs the workload once untraced and once traced, and for
all-k3-j2 once more with its pool, so it takes about three times the
workload's untraced time (see README.md).
"""

import json
import os
import subprocess
import sys

import run
from workloads import WORKLOADS

SEED = 1


def bench(name, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise run.BenchError(f"{name} --trace {trace} exited {done.returncode}: "
                             f"{done.stderr.strip()}")
    sys.stderr.write("\n".join(line for line in lines if line.startswith("# ")) + "\n")
    return json.loads(lines[-1])


def table(rows, names, units):
    width = max(len(n) for n in names)
    lines = [f"{'metric':<{width}}  {'unit':<6}" + "".join(f"{r:>14}" for r in rows)]
    for name in names:
        cells = []
        for result in rows.values():
            value = result[name]
            cells.append(f"{'null':>14}" if value is None else f"{value:>14.6g}")
        lines.append(f"{name:<{width}}  {units[name]:<6}" + "".join(cells))
    return "\n".join(lines)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    selftest = subprocess.run([sys.executable, os.path.join(run.HERE, "selftest.py")],
                              cwd=run.ROOT, capture_output=True, text=True)
    if selftest.returncode != 0:
        print(selftest.stdout + selftest.stderr, file=sys.stderr)
        return 1
    e2e, layers, ok = {}, {}, True
    try:
        for name in WORKLOADS:
            for trace, into in ((0, e2e), (1, layers)):
                result = bench(name, SEED, seconds, trace)
                ok = ok and result["correct"]
                into[name] = {k: v["value"] for k, v in result["metrics"].items()}
                into[name]["fail_ratio"] = result["failed"] / result["attempted"]
    except run.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units = dict(run.END_TO_END_UNITS, **run.LAYER_UNITS, fail_ratio="ratio")
    print(table(e2e, [*run.END_TO_END_UNITS, "fail_ratio"], units))
    print()
    print(table(layers, [*run.LAYER_UNITS, "fail_ratio"], units))
    os.makedirs(run.OUT, exist_ok=True)
    with open(os.path.join(run.OUT, "BENCH_layers.json"), "w", encoding="utf-8") as handle:
        json.dump({"stamp": run.stamp(run.load_reference().get("kernel")),
                   "seconds": seconds, "seed": SEED,
                   "end_to_end": e2e, "per_layer": layers, "units": units},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
