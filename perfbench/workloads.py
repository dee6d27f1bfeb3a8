"""The four fixed `fstchar verify` workloads the benchmark runs.

Each workload is one command line.  Its window is exact and fixed, so the
inputs never vary; the benchmark's seed only orders the processes inside a
run.  Why each was chosen, with the layer it stresses and the one it
bypasses, is recorded in BENCHMARK.json and perfbench/README.md.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple      # arguments after `verify`, without --jobs and --format
    jobs: int

    def argv(self, jobs=None):
        """CLI arguments for `python -m fstchar.cli`; `jobs` overrides the worker count."""
        jobs = self.jobs if jobs is None else jobs
        return ["verify", *self.args, "--jobs", str(jobs), "--format", "json"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="system-k3",
            args=("--suite", "system", "--l", "2", "--level", "3",
                  "--zmax", "10", "--qmax", "30"),
            jobs=1,
        ),
        Workload(
            name="spec1-k4",
            args=("--suite", "fjmmt", "--level", "4", "--zmax", "14", "--qmax", "36"),
            jobs=1,
        ),
        Workload(
            name="lemmas-k5",
            args=("--suite", "lemmas", "--level", "5"),
            jobs=1,
        ),
        Workload(
            name="all-k3-j2",
            args=("--suite", "all", "--level", "3", "--zmax", "8", "--qmax", "20"),
            jobs=2,
        ),
    )
}
