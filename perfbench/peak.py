"""Run a module as `python -m` would, then report the peak resident set.

    python3 perfbench/peak.py fstchar.cli verify ...

The parent cannot measure a child's peak resident set itself.  On Linux the
`ru_maxrss` that wait4 returns for a child carries the parent's own
resident set at the moment of the spawn, since the high-water mark survives
exec; a child leaner than the benchmark process would read as the
benchmark's size.  This wrapper is the child instead.  When the module
exits, it writes one last line to stderr:

    perfbench-peak-rss-kb <n>

where n is the larger of its own high-water mark (VmHWM, counted since
exec) and the largest `ru_maxrss` of the worker processes it reaped, which
were forked from it and so start from the program's own memory.
"""

import os
import resource
import runpy
import sys
import traceback

MARKER = "perfbench-peak-rss-kb"


def peak_kb():
    with open("/proc/self/status", encoding="ascii") as status:
        own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main():
    module = sys.argv[1]
    sys.argv = [module, *sys.argv[2:]]
    sys.path[0] = os.getcwd()  # as under python -m, not this file's directory
    code = 0
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    except BaseException:
        traceback.print_exc()  # before the marker, which must be the last line
        code = 1
    sys.stdout.flush()
    print(f"{MARKER} {peak_kb()}", file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
