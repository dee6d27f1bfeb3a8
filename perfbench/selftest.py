"""Self-test of the benchmark harness on a tiny window (a few seconds).

    python3 perfbench/selftest.py

Checks that the traced run counts the work it should, that every metric
BENCHMARK.json names is printed with its unit, that a wrong reference
digest is counted as a failure, and that a traced function that no longer
exists yields null metrics instead of a crash.  Exits 0 when all hold.
"""

import contextlib
import io
import json
import os
import sys

import run
import traced_cli
from workloads import WORKLOADS, Workload

TINY = Workload(
    name="tiny",
    args=("--suite", "system", "--level", "2", "--zmax", "4", "--qmax", "8"),
    jobs=1,
)
WRONG = "0" * 64


def check(failures, ok, message):
    print(f"{'ok  ' if ok else 'FAIL'} {message}")
    if not ok:
        failures.append(message)


def main():
    failures = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    env = run.stamp("pure")

    plain = run.launch(run.CLI + TINY.argv())
    output = json.loads(plain.stdout)
    recurrence_checked = sum(r["checked"] for r in output["reports"]
                             if r["name"].startswith("recurrence-system"))
    traced, _ = run.in_process(TINY, traced=True)
    reference = {"stdout_sha256": run.sha256(plain.stdout), "layers": traced["digests"]}

    layers = run.trace(TINY, reference)
    metrics = layers["metrics"]
    check(failures, not layers["failures"], "traced run matches its reference")
    check(failures, metrics["admissible.count_calls"] == 6,
          f"admissible.count_calls == 6 (got {metrics['admissible.count_calls']})")
    check(failures, metrics["recurrence.checked"] == recurrence_checked,
          f"recurrence.checked == the report's checked ({recurrence_checked})")

    e2e = run.measure(TINY, 0.5, 0, reference["stdout_sha256"])
    check(failures, not e2e["failures"], "timed run matches its reference")
    printed = set()
    for result, units in ((e2e, run.END_TO_END_UNITS), (layers, run.LAYER_UNITS)):
        lines = run.render(TINY, "selftest", env, result, units)
        printed.update(tuple(line.split()[::2]) for line in lines[:-1]
                       if not line.startswith("#"))
        last = json.loads(lines[-1])
        check(failures, sorted(last) == ["attempted", "correct", "failed", "metrics"],
              "the last line holds exactly correct, attempted, failed, metrics")
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            check(failures, (metric["name"], metric["unit"]) in printed,
                  f"{metric['name']} is printed with unit {metric['unit']}")
    check(failures, {w["name"] for w in spec["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json names the workloads of workloads.py")

    wrong = run.measure(TINY, 0.5, 0, WRONG)
    check(failures, len(wrong["failures"]) == wrong["attempted"] >= 1,
          "a wrong stdout digest fails every timed repetition")
    wrong = run.trace(TINY, {"stdout_sha256": reference["stdout_sha256"],
                             "layers": dict(reference["layers"], histograms=WRONG)})
    check(failures, len(wrong["failures"]) == 1 and wrong["attempted"] == 8,
          "a wrong histogram digest fails one of the traced run's 8 checks")

    # a later change may rename a traced function: its metrics turn null
    sys.path.insert(0, run.SRC)
    from fstchar import fermionic
    del fermionic.n_sequence_pairs
    with contextlib.redirect_stderr(io.StringIO()):
        renamed = traced_cli.run_cli(TINY.argv(), traced_cli.Tracer())
    check(failures, renamed["exit"] == 0 and renamed["missing"] == ["fermionic.n_sequence_pairs"]
          and renamed["metrics"]["fermionic.nseq_generated"] is None
          and renamed["metrics"]["admissible.count_calls"] == 6,
          "a missing traced function yields null metrics, not a crash")

    print(f"selftest: {'FAILED' if failures else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
