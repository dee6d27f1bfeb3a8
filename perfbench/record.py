"""Record the reference digests in perfbench/reference.json.

    python3 perfbench/record.py

For every workload it hashes the stdout of the command as
given and of the same command at --jobs 1, which must be identical because
the output does not depend on the worker count, and the return values of
each traced layer.  Rerun it only when a change alters the output on
purpose, and say why in CHANGES.md: the digests are what every timed run is
checked against.
"""

import json
import sys

import run
from workloads import WORKLOADS


def record(workload):
    pooled = run.launch(run.CLI + workload.argv())
    serial = run.launch(run.CLI + workload.argv(jobs=1))
    traced, _ = run.in_process(workload, traced=True)
    for label, code in (("as given", pooled.exit), ("at --jobs 1", serial.exit),
                        ("traced", traced["exit"])):
        if code != 0:
            raise run.BenchError(f"{workload.name} {label} exited {code}")
    digest = run.sha256(pooled.stdout)
    if run.sha256(serial.stdout) != digest or traced["stdout_sha256"] != digest:
        raise run.BenchError(f"{workload.name}: stdout differs between --jobs "
                             f"{workload.jobs}, --jobs 1 and the traced run")
    if None in traced["digests"].values():
        raise run.BenchError(f"{workload.name}: traced functions missing: "
                             f"{traced['missing']}")
    return {"stdout_sha256": digest, "layers": traced["digests"]}


def main():
    env = run.stamp()
    reference = {"workloads": {}}
    for name in sorted(WORKLOADS):
        reference["workloads"][name] = record(WORKLOADS[name])
        print(f"{name}: {reference['workloads'][name]['stdout_sha256']}", flush=True)
    reference.update(kernel=env["kernel"], python=env["python"],
                     git_revision=env["git_revision"])
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
