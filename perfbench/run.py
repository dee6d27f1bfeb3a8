"""Benchmark of `fstchar verify`: end-to-end timing and a traced per-layer run.

Run from the root of a checkout (stdlib only, nothing to build):

    python3 perfbench/run.py --workload system-k3 --seed 1 --seconds 30 --trace 0

Every process runs `fstchar` from this checkout's `src/`.

--trace 0 times the workload end to end, closed loop with one client: each
`python -m fstchar.cli verify ...` process starts only after the previous
one ended.  It repeats the workload for about --seconds and takes
`python -c "import fstchar.cli"` samples for setup_s between repetitions;
the seed only shuffles that order, since every input is a fixed window.
Each repetition's stdout must match the reference digest.  A calibration of
the machine's speed (speed.py) runs after every round of one repetition and
one set-up sample, and the round's times are scaled by it.

--trace 1 runs the workload once in process with every layer traced (at
--jobs 1, because spans recorded in forked workers would be lost), once in
process untraced for the tracing overhead, and, for a pooled workload, once
as a plain pooled process for the pool's extra CPU time.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  The lines before it print every metric by name with its unit.
Details go to perfbench/out/BENCH_<workload>_<e2e|layers>.json.  The exit
code is 0 only if every output matched its reference; 2 means the
benchmark could not run at all.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from peak import MARKER
from speed import REFERENCE_S, calibrate
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
TRACED_CLI = os.path.join(HERE, "traced_cli.py")
PEAK = os.path.join(HERE, "peak.py")
CLI = [sys.executable, PEAK, "fstchar.cli"]  # python -m fstchar.cli, reporting its peak RSS
PEAK_MARKER = MARKER.encode()
SETUP = [sys.executable, "-c", "import fstchar.cli"]
FIRST_SETUPS = 4  # setup samples before the first repetition; one per round after
# a calibration lasts CALIBRATION_SHARE of the median repetition, and at least CALIBRATION_S
CALIBRATION_S = 0.25
CALIBRATION_SHARE = 0.15

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "admissible.count_s": "s",
    "admissible.count_calls": "count",
    "admissible.configs": "count",
    "admissible.configs_per_s": "1/s",
    "specialize.census_s": "s",
    "specialize.census_calls": "count",
    "specialize.census_configs": "count",
    "fermionic.nseq_s": "s",
    "fermionic.nseq_generated": "count",
    "fermionic.nseq_kept": "count",
    "fermionic.nseq_keep_ratio": "ratio",
    "fermionic.a_coefficient_s": "s",
    "fermionic.a_coefficient_calls": "count",
    "fermionic.linear_term_s": "s",
    "fermionic.linear_term_calls": "count",
    "fermionic.battery_s": "s",
    "fermionic.battery_checked": "count",
    "qseries.mul_calls": "count",
    "qseries.mul_s": "s",
    "qseries.inv_pochhammer_hits": "count",
    "qseries.inv_pochhammer_misses": "count",
    "qseries.cache_entries": "count",
    "specialize.chi_fjmmt_s": "s",
    "specialize.chi_fjmmt2_s": "s",
    "charseries.specialize_s": "s",
    "charseries.specialize_calls": "count",
    "recurrence.verify_s": "s",
    "recurrence.checked": "count",
    "cli.self_s": "s",
    "cli.pool_extra_cpu_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2, no result printed)."""


@dataclass
class Process:
    wall_s: float
    cpu_s: float        # user + system of the process and its reaped workers
    peak_rss_mb: float  # largest resident set of the process or any worker (CLI only)
    exit: int
    stdout: bytes
    stderr: bytes


def child_env():
    """The caller's environment, minus fstchar settings, importing from src/ only."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FSTCHAR_")}
    env["PYTHONPATH"] = SRC
    return env


def launch(argv):
    """Run argv from the checkout root to completion and measure it."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        # wait4 rather than wait: its usage covers the workers the process reaped
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    reader.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    stderr, peak_rss_mb = err[0], None
    head, _, last = stderr.rstrip(b"\n").rpartition(b"\n")
    if last.startswith(PEAK_MARKER):
        stderr, peak_rss_mb = head, int(last.split()[1]) / 1024
    return Process(wall, usage.ru_utime + usage.ru_stime, peak_rss_mb,
                   proc.returncode, out, stderr)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def load_reference():
    try:
        with open(REFERENCE, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read reference digests {REFERENCE}: {exc}")


def git_revision():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def stamp(reference_kernel=None):
    """Environment of this run; refuses an fstchar imported from outside src/."""
    probe = launch(SETUP[:2] + [
        "import json, fstchar; "
        "print(json.dumps({'kernel': fstchar.KERNEL, 'file': fstchar.__file__}))"
    ])
    if probe.exit != 0:
        raise BenchError(f"cannot import fstchar from {SRC}: "
                         f"{probe.stderr.decode(errors='replace').strip()}")
    found = json.loads(probe.stdout)
    package = os.path.realpath(os.path.join(SRC, "fstchar"))
    if os.path.dirname(os.path.realpath(found["file"])) != package:
        raise BenchError(f"fstchar imported from {found['file']}, not from {package}")
    return {
        "python": platform.python_version(),
        "kernel": found["kernel"],
        "reference_kernel": reference_kernel,
        "fstchar_file": found["file"],
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "git_revision": git_revision(),
    }


def describe(samples):
    return (f"median of {len(samples)}, min {min(samples):.4f}, "
            f"max {max(samples):.4f}")


def measure(workload, seconds, seed, digest):
    """End-to-end samples of the untraced workload over `seconds` seconds.

    A calibration of the machine's speed (speed.py) runs before the first
    round and after every round, and the times of a round's processes are
    scaled by REFERENCE_S over the mean of the two calibrations around it.
    The unscaled samples are kept in the details.
    """
    rng = random.Random(seed)
    launch(SETUP)  # untimed: writes the bytecode caches once, like an install

    def calibration(span):
        # a set-up sample is one process, so it is scaled by a one-process
        # calibration even when the workload's workers keep more CPUs busy
        pooled = calibrate(span, workload.jobs)
        serial = calibrate(CALIBRATION_S) if workload.jobs > 1 else pooled
        return {"setup_s": serial, "wall_s": pooled, "cpu_s": pooled}

    calibrations = [calibration(CALIBRATION_S)]
    raw = {name: [] for name in END_TO_END_UNITS}
    samples = {name: [] for name in END_TO_END_UNITS}
    failures, rounds = [], []

    def setup():
        done = launch(SETUP)
        if done.exit != 0:
            raise BenchError("import fstchar.cli failed: "
                             + done.stderr.decode(errors="replace"))
        return {"setup_s": done.wall_s}

    def repetition():
        done = launch(CLI + workload.argv())
        if done.peak_rss_mb is None:
            raise BenchError(f"{workload.name} ended without reporting its peak "
                             f"resident set (exit {done.exit})")
        if done.exit != 0 or sha256(done.stdout) != digest:
            failures.append(f"repetition {len(raw['wall_s']) + 1}: exit {done.exit}, "
                            f"stdout sha256 {sha256(done.stdout)}")
        return {"wall_s": done.wall_s, "cpu_s": done.cpu_s, "peak_rss_mb": done.peak_rss_mb}

    def timed_round(steps):
        results = [step() for step in steps]
        for result in results:
            for name, value in result.items():
                raw[name].append(value)
        span = max(CALIBRATION_S, CALIBRATION_SHARE * statistics.median(raw["wall_s"] or [0]))
        calibrations.append(calibration(span))
        for result in results:
            for name, value in result.items():
                if name != "peak_rss_mb":
                    value *= REFERENCE_S / statistics.mean(c[name] for c in calibrations[-2:])
                samples[name].append(value)

    start = time.perf_counter()
    timed_round([setup] * FIRST_SETUPS)
    # a round is one repetition and one setup sample in seeded order; the
    # last round is the one that ends nearest to `seconds`
    while not rounds or time.perf_counter() - start + statistics.median(rounds) / 2 <= seconds:
        round_start = time.perf_counter()
        timed_round(rng.sample([setup, repetition], 2))
        rounds.append(time.perf_counter() - round_start)
    notes = {name: describe(v) for name, v in samples.items()}
    notes.update({f"unscaled {name}": describe(raw[name]) for name in ("wall_s", "cpu_s", "setup_s")})
    notes["calibration_s"] = describe([c["wall_s"] for c in calibrations])
    return {
        "attempted": len(samples["wall_s"]),
        "failures": failures,
        "metrics": {name: statistics.median(v) for name, v in samples.items()},
        "notes": notes,
        "samples": samples,
        "unscaled": raw,
        "calibrations": calibrations,
    }


def in_process(workload, traced):
    """traced_cli.py at --jobs 1; returns (its JSON result, the process)."""
    flags = [] if traced else ["--untraced"]
    done = launch([sys.executable, TRACED_CLI, *flags, *workload.argv(jobs=1)])
    if done.exit != 0:
        raise BenchError("traced_cli.py failed: " + done.stderr.decode(errors="replace"))
    return json.loads(done.stdout.decode().splitlines()[-1]), done


def trace(workload, reference):
    """Per-layer metrics of one traced run; every output is checked against the reference."""
    checks, failures = [], []

    def check(label, got, want):
        checks.append(label)
        if got != want:
            failures.append(f"{label}: got {got}, reference {want}")

    untraced, untraced_proc = in_process(workload, traced=False)
    # the extra CPU a pool costs over the same work done serially; measured
    # right after the serial run, since the machine's speed drifts
    pool_extra_cpu_s = 0.0
    if workload.jobs > 1:
        pooled = launch(CLI + workload.argv())
        check("pooled exit", pooled.exit, 0)
        check("pooled stdout", sha256(pooled.stdout), reference["stdout_sha256"])
        pool_extra_cpu_s = pooled.cpu_s - untraced_proc.cpu_s
    traced, _ = in_process(workload, traced=True)
    for label, result in (("untraced", untraced), ("traced", traced)):
        check(f"{label} exit", result["exit"], 0)
        check(f"{label} stdout", result["stdout_sha256"], reference["stdout_sha256"])
    unchecked = []
    for layer, got in traced["digests"].items():
        if got is None:
            unchecked.append(layer)
        else:
            check(f"layer {layer}", got, reference["layers"][layer])

    metrics = dict(traced["metrics"])
    metrics["cli.pool_extra_cpu_s"] = pool_extra_cpu_s
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return {
        "attempted": len(checks),
        "failures": failures,
        "metrics": metrics,
        "notes": {"unchecked layer digests": unchecked, "missing": traced["missing"]},
        "spans": traced["spans"],
    }


def write_details(workload, mode, details):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"BENCH_{workload.name}_{mode}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        reference = load_reference()
        env = stamp(reference.get("kernel"))
        expected = reference["workloads"][workload.name]
        if args.trace:
            mode, units = "layers", LAYER_UNITS
            result = trace(workload, expected)
        else:
            mode, units = "e2e", END_TO_END_UNITS
            result = measure(workload, args.seconds, args.seed,
                             expected["stdout_sha256"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    write_details(workload, mode, {"stamp": env, "seed": args.seed,
                                   "seconds": args.seconds, **result})
    lines = render(workload, mode, env, result, units)
    print("\n".join(lines))
    return 0 if not result["failures"] else 1


def render(workload, mode, env, result, units):
    """Every metric by name with its unit, then the one-line JSON result."""
    failed = len(result["failures"])
    lines = [f"# {workload.name} ({mode}): fstchar {' '.join(workload.argv())}",
             f"# environment: {json.dumps(env, sort_keys=True)}"]
    if env["kernel"] != env["reference_kernel"]:
        lines.append(f"# WARNING: kernel {env['kernel']!r} differs from the "
                     f"reference's {env['reference_kernel']!r}: timings are not "
                     f"comparable")
    lines += [f"# FAILED {failure}" for failure in result["failures"]]
    lines += [f"# {name}: {value}" for name, value in result["notes"].items()]
    lines.append(f"fail_ratio {failed / result['attempted']:.4f} "
                 f"({failed} of {result['attempted']} checked outputs)")
    lines += [f"{name} {result['metrics'][name]} {unit}" for name, unit in units.items()]
    lines.append(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return lines


if __name__ == "__main__":
    sys.exit(main())
