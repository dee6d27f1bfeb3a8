"""Batch command-line interface: characters, verification suites, listings.

Exit codes: 0 success, 1 verification violations or internal inconsistency,
2 invalid configuration.  The commands only parse, call the library and
print.  `verify` gathers its independent computations into one list of
calls and splits it, by a fork-join, over at most as many processes as
--jobs, its total tasks and the CPUs: the parent computes one share and
each forked child another.  Results come back in list order, so output is
byte-identical for any parallelism degree.
"""

import argparse
import json
import os
import sys

from . import admissible, fermionic, recurrence, specialize

DEFAULTS = {"l": 2, "level": 2, "zmax": 6, "qmax": 16, "jobs": 1}


class CliError(Exception):
    """Invalid run configuration (exit code 2)."""


def _parse_int_list(text, label):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CliError(f"{label} must be a comma-separated integer list, got {text!r}")


def _parse_weight(text, l, k2_zero=False):
    """--weight checked by `admissible.weight_parts`; with k2_zero, k0,k1,0 only."""
    weight = _parse_int_list(text, "--weight")
    if k2_zero and (len(weight) != 3 or weight[2] != 0):
        raise CliError("method fjmmt is defined for weights k0,k1,0")
    try:
        return admissible.weight_parts(weight, l)
    except ValueError as exc:
        raise CliError(str(exc))


def _read_config_file(path):
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(f"bad config line {line!r} (expected key=value)")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in DEFAULTS:
                    raise CliError(f"unknown config key {key!r} in {path} "
                                   f"(known: {', '.join(DEFAULTS)})")
                if key in values:
                    raise CliError(f"config key {key!r} given twice in {path}")
                values[key] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}")
    return values


def _resolve_settings(args, config):
    """Settle each key of DEFAULTS the subcommand has a flag for, in place.

    A flag left unset takes the config-file value, else the subcommand's
    default (`args.defaults`); a key whose flag the subcommand lacks is
    not read.
    """
    for key in DEFAULTS:
        if not hasattr(args, key) or getattr(args, key) is not None:
            continue
        if key in config:
            try:
                setattr(args, key, int(config[key]))
            except ValueError:
                raise CliError(f"config value for {key} is not valid: "
                               f"{config[key]!r}")
        else:
            setattr(args, key, args.defaults.get(key))


def _check_settings(l, jobs=None, l2_only=None, level=None, **bounds):
    """Reject the run settings that no subcommand accepts (exit 2).

    l must be >= 1 and jobs None or >= 1; `l2_only`, when given, names the
    method or suite that is defined only for l = 2; level must be None
    or >= 1; every bound (zmax, qmax, energy_max, sites) must be None or >= 0.
    Refusing a negative bound is the CLI's rule, for user input: the
    library reads one as an empty window (`admissible.enumerate_configs`).
    """
    if l < 1:
        raise CliError(f"--l must be >= 1, got {l}")
    if l2_only and l != 2:
        raise CliError(f"{l2_only} requires --l 2")
    if jobs is not None and jobs < 1:
        raise CliError(f"--jobs must be >= 1, got {jobs}")
    if level is not None and level < 1:
        raise CliError("need level >= 1")
    for name, value in bounds.items():
        if value is not None and value < 0:
            raise CliError(f"--{name.replace('_', '-')} must be >= 0, got {value}")


def _worker_count(jobs, n_items):
    """Processes for n_items tasks: no more than tasks or CPUs, and one without fork."""
    if not hasattr(os, "fork"):
        return 1  # Windows: the calls run in this process
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))  # the CPUs this process may use
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, n_items, cpus))


def _pmap(calls, jobs):
    """The results of a list of `(function, args)` calls, in list order.

    A command maps all of its independent calls at once, over
    `_worker_count(jobs, len(calls))` processes: in this one alone, or by
    `forkjoin.fork_join`, where this process computes one share and each
    forked child another.
    """
    workers = _worker_count(jobs, len(calls))
    if workers == 1:
        return [fn(*args) for fn, args in calls]
    # imported here: a run that does not fork needs neither it nor pickle
    from .forkjoin import fork_join

    return fork_join(calls, workers)


def _emit(args, text):
    output = getattr(args, "output", None)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise CliError(f"cannot write output file {output}: {exc}")
    else:
        sys.stdout.write(text)


def _json_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


# -- character ---------------------------------------------------------------


def cmd_character(args):
    method = args.method
    l, level, zmax, qmax = args.l, args.level, args.zmax, args.qmax
    l2_only = None if method == "oracle" else f"method {method}"
    # every flag given is checked by its form, also where the method ignores it
    sites = None
    if args.sites not in (None, "inf"):
        try:
            sites = int(args.sites)
        except ValueError:
            raise CliError(
                f"--sites must be an integer or 'inf', got {args.sites!r}")
    _check_settings(l, l2_only=l2_only, level=level, zmax=zmax, qmax=qmax,
                    sites=sites)
    if method == "fjmmt2" and args.ab is None:
        raise CliError("method fjmmt2 needs --ab a,b")
    if method != "fjmmt2" and args.weight is None:
        raise CliError(f"method {method} needs --weight")
    weight = ab = None
    if args.weight is not None:
        weight = _parse_weight(args.weight, l, k2_zero=method == "fjmmt")
    if args.ab is not None:
        ab = _parse_int_list(args.ab, "--ab")
        if len(ab) != 2 or min(ab) < 0:
            raise CliError(f"--ab must be a pair a,b of entries >= 0, got {args.ab!r}")

    if method in ("oracle", "fermionic"):
        route = (admissible.character_oracle if method == "oracle"
                 else fermionic.character_fermionic)
        result = route(weight, qmax, (zmax,) * l)
        text = (
            _json_dumps(result.to_json())
            if args.format == "json"
            else result.render_table()
        )
    elif method == "fjmmt":
        terms = specialize.chi_fjmmt(weight[0], weight[1], zmax, qmax)
        text = (
            _json_dumps({
                "kind": "graded",
                "terms": [[n, terms[n].to_json()] for n in sorted(terms)],
            })
            if args.format == "json"
            else "\n".join(f"z^{n}: {terms[n]!r}" for n in sorted(terms)) + "\n"
        )
    elif method == "fjmmt2":
        a, b = ab
        if a > level:
            raise CliError(f"--ab out of range for level {level}")
        series = specialize.chi_fjmmt2(a, b, level, sites, qmax)
        text = (
            _json_dumps(series.to_json())
            if args.format == "json"
            else repr(series) + "\n"
        )
    _emit(args, text)
    return 0


# -- verify -------------------------------------------------------------------


def cmd_verify(args):
    suite = args.suite
    l, level, zmax, qmax = args.l, args.level, args.zmax, args.qmax
    # only the system suite is defined for every l
    l2_only = None if suite == "system" else f"suite {suite}"
    _check_settings(l, args.jobs, l2_only, level, zmax=zmax, qmax=qmax)
    # every suite's independent calls go through one map, in report order;
    # the system suite's are its oracle characters, checked here afterwards,
    # and at l = level = 2 the check of the transcribed system.
    # Every suite but system runs at l = 2, so they share these weights
    weights = recurrence.level_weights(level, l)
    caps = (zmax,) * l
    calls = []
    if suite in ("system", "all"):
        calls += [(admissible.character_oracle, (weight, qmax, caps))
                  for weight in weights]
        if (l, level) == (2, 2):
            calls.append((recurrence.verify_transcription, ()))
    if suite in ("lemmas", "all"):
        calls += [(fermionic.identity_battery, (k,))
                  for k in range(1, min(level, 5) + 1)]
    if suite in ("fjmmt", "all"):
        calls += [(specialize.verify_spec1, (k0, level - k0, zmax, qmax))
                  for k0 in range(level, -1, -1)]
    if suite in ("fjmmt2", "all"):
        calls += [(specialize.verify_spec2, (weight, qmax)) for weight in weights]
        calls += [(specialize.verify_union_identity, (weight, qmax))
                  for weight in weights]
    results = _pmap(calls, args.jobs)
    reports = []
    if suite in ("system", "all"):
        chars, results = results[:len(weights)], results[len(weights):]
        reports = [recurrence.verify_system(dict(zip(weights, chars)))]
    reports += results

    ok = all(r.ok for r in reports)
    if args.format == "json":
        text = _json_dumps({"ok": ok, "reports": [r.to_json() for r in reports]})
    else:
        lines = [r.render_text() for r in reports]
        lines.append(f"suite {suite}: {'ok' if ok else 'FAILED'}")
        text = "\n".join(lines) + "\n"
    _emit(args, text)
    return 0 if ok else 1


# -- list-admissible -----------------------------------------------------------


def cmd_list_admissible(args):
    l, zmax, qmax = args.l, args.zmax, args.qmax
    # the caps default to unbounded, and the default q bound applies only
    # when no energy bound was requested
    if qmax is None and args.energy_max is None:
        qmax = DEFAULTS["qmax"]
    _check_settings(l, zmax=zmax, qmax=qmax, energy_max=args.energy_max)
    weight = _parse_int_list(args.weight, "--weight")
    init_prefix = (None if args.init is None
                   else _parse_int_list(args.init, "--init"))
    caps = (zmax,) * l if zmax is not None else None
    # the weight and the prefix are checked by the library, at the call
    try:
        stream = admissible.enumerate_configs(
            l, weight, q_order=qmax, caps=caps,
            init_prefix=init_prefix, energy_max=args.energy_max,
        )
    except ValueError as exc:
        raise CliError(str(exc))
    lines = []
    for config in stream:
        degree, n = admissible.degree_weight(config, l)
        if args.format == "json":
            lines.append(json.dumps([list(config), degree, list(n)]) + "\n")
        else:
            lines.append(f"a={list(config)} d={degree} n={list(n)}\n")
    _emit(args, "".join(lines))
    return 0


# -- parser --------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fstchar",
        description="Exact characters of principal-like subspace modules: "
        "brute-force enumeration, closed fermionic formulas, and the "
        "verification suites tying them together.",
    )
    parser.add_argument("--config", help="key=value config file (flags win)")
    parser.add_argument(
        "--traceback", action="store_true",
        help="print the full traceback of an internal error to stderr",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--l", type=int, help="number of z variables (rank)")
    common.add_argument("--zmax", type=int, help="per-variable weight cap")
    common.add_argument("--qmax", type=int, help="q truncation order")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--output", help="write to file instead of stdout")

    p_char = subparsers.add_parser(
        "character", parents=[common], help="compute one character"
    )
    p_char.add_argument(
        "--method", required=True, choices=("oracle", "fermionic", "fjmmt", "fjmmt2")
    )
    p_char.add_argument("--weight", help="comma-separated weight entries")
    p_char.add_argument("--ab", help="a,b pair for method fjmmt2")
    p_char.add_argument("--level", type=int, help="level for method fjmmt2")
    p_char.add_argument("--sites", help="site count for fjmmt2 (integer or inf)")
    p_char.set_defaults(func=cmd_character, defaults=DEFAULTS)

    p_verify = subparsers.add_parser(
        "verify", parents=[common], help="run a verification suite"
    )
    p_verify.add_argument(
        "--suite", required=True,
        choices=("system", "lemmas", "fjmmt", "fjmmt2", "all"),
        help="window flags read: system --l --level --zmax --qmax; fjmmt "
        "--level --zmax --qmax; fjmmt2 --level --qmax; lemmas --level only "
        "(k = 1..min(level, 5), each on its own fixed window); all: all four",
    )
    p_verify.add_argument("--level", type=int, help="level k under test")
    p_verify.add_argument("--jobs", type=int, help="worker processes")
    p_verify.set_defaults(func=cmd_verify, defaults=DEFAULTS)

    p_list = subparsers.add_parser(
        "list-admissible", parents=[common], help="stream admissible configurations"
    )
    p_list.add_argument("--weight", required=True,
                        help="comma-separated weight entries")
    p_list.add_argument("--init", help="exact prefix a_0,...,a_{l-1}")
    p_list.add_argument("--energy-max", type=int, help="first-moment bound")
    p_list.set_defaults(func=cmd_list_admissible, defaults={"l": DEFAULTS["l"]})
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_settings(args, _read_config_file(args.config) if args.config else {})
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal inconsistency
        if args.traceback:
            # imported here: it and textwrap cost every run about 2 ms
            import traceback

            traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
