"""Run one `fstchar verify` command in process, with or without layer tracing.

    python3 perfbench/traced_cli.py [--untraced] verify --suite ... --format json

The command runs through `fstchar.cli.main(argv)` with its stdout captured and
hashed.  Prints one JSON object: exit code, wall time of `main`, the stdout
digest and, when traced, the per-layer metrics, the digests of each layer's
return values and a per-span summary.

Tracing wraps public functions of each module from outside; no file of the
package changes.  Each wrapped call records a span (name, start, end,
parent).  QSeries products are too many for spans, so they are timed by an
accumulator instead: `qseries.mul_s` overlaps the self time of whichever
layer made the product.  A function that no longer exists is skipped, and
every metric that needs it is reported as null.
"""

import contextlib
import hashlib
import importlib
import io
import json
import sys
from time import perf_counter

# (module, function) pairs traced as spans.  The return values of the ones in
# DIGESTED are kept and hashed after the run, so hashing costs no span time.
TRACED = (
    ("admissible", "weight_degree_counts"),
    ("admissible", "character_oracle"),
    ("fermionic", "n_sequence_pairs"),
    ("fermionic", "linear_term"),
    ("fermionic", "a_coefficient"),
    ("fermionic", "character_fermionic"),
    ("fermionic", "identity_battery"),
    ("specialize", "prefix_census"),
    ("specialize", "chi_fjmmt"),
    ("specialize", "chi_fjmmt2"),
    ("specialize", "verify_spec1"),
    ("specialize", "verify_spec2"),
    ("specialize", "verify_union_identity"),
    ("charseries", "specialize"),
    ("recurrence", "verify_system"),
)

# digest layer -> spans whose return values feed it, in call order
DIGESTED = {
    "histograms": ("admissible.weight_degree_counts",),
    "a_coefficient": ("fermionic.a_coefficient",),
    "census": ("specialize.prefix_census",),
    "reports": ("recurrence.verify_system", "fermionic.identity_battery",
                "specialize.verify_spec1", "specialize.verify_spec2",
                "specialize.verify_union_identity"),
}
KEPT = {name for names in DIGESTED.values() for name in names}
ROOT_SPAN = "cli.main"


class Tracer:
    """Spans and counters of one traced run, kept in memory until it ends."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.stack = []
        self.results = {name: [] for name in KEPT}
        self.generated = 0       # NSequences returned by n_sequence_pairs
        self.mul_calls = 0
        self.mul_s = 0.0
        self.missing = set()     # traced names the package no longer has

    def call(self, name, fn, args, kwargs):
        record = [name, perf_counter(), None, self.stack[-1] if self.stack else None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self.stack.pop()

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if on_result:
                on_result(result)
            return result

        return traced

    def count_generated(self, nsequences):
        self.generated += len(nsequences)

    def timed_product(self, fn):
        def traced(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                self.mul_s += perf_counter() - start
                self.mul_calls += 1

        return traced

    def install(self):
        """Wrap every traced function in every fstchar namespace that binds it.

        Modules such as `specialize` import functions by name, so replacing
        the attribute of the defining module alone would miss their calls.
        """
        importlib.import_module("fstchar.cli")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fstchar" or n.startswith("fstchar."))]
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            original = getattr(sys.modules.get(f"fstchar.{module_name}"), attr, None)
            if not callable(original):
                self.missing.add(name)
                continue
            if name in KEPT:
                on_result = self.results[name].append
            elif name == "fermionic.n_sequence_pairs":
                on_result = self.count_generated
            else:
                on_result = None
            wrapper = self.wrap(name, original, on_result)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        qseries_cls = getattr(sys.modules["fstchar.qseries"], "QSeries", None)
        for method in ("__mul__", "__rmul__"):
            original = getattr(qseries_cls, method, None)
            if original is None:
                self.missing.add(f"qseries.{method}")
            else:
                setattr(qseries_cls, method, self.timed_product(original))

    # -- after the run ------------------------------------------------------

    def summary(self):
        """{span name: {"calls", "total_s", "self_s"}}; self excludes child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        return out

    def kept_nsequences(self):
        """linear_term calls made directly by a_coefficient: NSequences kept."""
        spans = self.spans
        return sum(
            1 for name, _, _, parent in spans
            if name == "fermionic.linear_term" and parent is not None
            and spans[parent][0] == "fermionic.a_coefficient"
        )

    def digests(self):
        out = {}
        for layer, names in DIGESTED.items():
            if any(name in self.missing for name in names):
                out[layer] = None
                continue
            h = hashlib.sha256()
            for name in names:
                for value in self.results[name]:
                    h.update(_canonical(value).encode())
                    h.update(b"\n")
            out[layer] = h.hexdigest()
        return out

    def metrics(self):
        """Per-layer metrics by name; None where a traced function is missing."""
        spans = self.summary()
        missing = self.missing

        def span(name, field):
            if name in missing:
                return None
            entry = spans.get(name)
            return entry[field] if entry else (0 if field == "calls" else 0.0)

        def ratio(num, den):
            if num is None or den is None:
                return None
            return num / den if den else 0.0

        def kept(name, fn):
            return None if name in missing else fn(self.results[name])

        configs = kept("admissible.weight_degree_counts",
                       lambda hs: sum(sum(h.values()) for h in hs))
        count_s = span("admissible.weight_degree_counts", "total_s")
        generated = None if "fermionic.n_sequence_pairs" in missing else self.generated
        kept_n = (None if {"fermionic.linear_term", "fermionic.a_coefficient"} & missing
                  else self.kept_nsequences())
        products_traced = not {"qseries.__mul__", "qseries.__rmul__"} & missing
        qseries = sys.modules["fstchar.qseries"]
        inv_info = _cache_info(getattr(qseries, "inv_pochhammer", None))
        poch_info = _cache_info(getattr(qseries, "pochhammer", None))
        return {
            "admissible.count_s": count_s,
            "admissible.count_calls": span("admissible.weight_degree_counts", "calls"),
            "admissible.configs": configs,
            "admissible.configs_per_s": ratio(configs, count_s),
            "specialize.census_s": span("specialize.prefix_census", "total_s"),
            "specialize.census_calls": span("specialize.prefix_census", "calls"),
            "specialize.census_configs": kept(
                "specialize.prefix_census",
                lambda ss: sum(sum(s.coeffs.values()) for s in ss)),
            "fermionic.nseq_s": span("fermionic.n_sequence_pairs", "total_s"),
            "fermionic.nseq_generated": generated,
            "fermionic.nseq_kept": kept_n,
            "fermionic.nseq_keep_ratio": ratio(kept_n, generated),
            "fermionic.a_coefficient_s": span("fermionic.a_coefficient", "self_s"),
            "fermionic.a_coefficient_calls": span("fermionic.a_coefficient", "calls"),
            "fermionic.linear_term_s": span("fermionic.linear_term", "total_s"),
            "fermionic.linear_term_calls": span("fermionic.linear_term", "calls"),
            "fermionic.battery_s": span("fermionic.identity_battery", "self_s"),
            "fermionic.battery_checked": kept(
                "fermionic.identity_battery", lambda rs: sum(r.checked for r in rs)),
            "qseries.mul_calls": self.mul_calls if products_traced else None,
            "qseries.mul_s": self.mul_s if products_traced else None,
            "qseries.inv_pochhammer_hits": inv_info.hits if inv_info else None,
            "qseries.inv_pochhammer_misses": inv_info.misses if inv_info else None,
            "qseries.cache_entries": (
                inv_info.currsize + poch_info.currsize
                if inv_info and poch_info else None),
            "specialize.chi_fjmmt_s": span("specialize.chi_fjmmt", "total_s"),
            "specialize.chi_fjmmt2_s": span("specialize.chi_fjmmt2", "total_s"),
            "charseries.specialize_s": span("charseries.specialize", "total_s"),
            "charseries.specialize_calls": span("charseries.specialize", "calls"),
            "recurrence.verify_s": span("recurrence.verify_system", "total_s"),
            "recurrence.checked": kept(
                "recurrence.verify_system", lambda rs: sum(r.checked for r in rs)),
            "cli.self_s": span(ROOT_SPAN, "self_s"),
        }


def _cache_info(fn):
    info = getattr(fn, "cache_info", None)
    return info() if info else None


def _canonical(value):
    """Stable text of a histogram, a QSeries or a CheckReport."""
    if isinstance(value, dict):
        return json.dumps(sorted([list(k), v] for k, v in value.items()))
    return json.dumps(value.to_json(), sort_keys=True)


def run_cli(argv, tracer=None):
    """Run `fstchar.cli.main(argv)` in this process; trace it if given a Tracer."""
    from fstchar import cli

    run = cli.main
    if tracer:
        tracer.install()
        run = tracer.wrap(ROOT_SPAN, cli.main)
    captured = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(captured):
        code = run(argv)
    wall = perf_counter() - start
    result = {
        "exit": code,
        "wall_s": wall,
        "stdout_sha256": hashlib.sha256(captured.getvalue().encode()).hexdigest(),
    }
    if tracer:
        result.update(
            metrics=tracer.metrics(),
            digests=tracer.digests(),
            spans=tracer.summary(),
            missing=sorted(tracer.missing),
        )
    return result


def main(argv):
    tracer = Tracer()
    if argv and argv[0] == "--untraced":
        tracer, argv = None, argv[1:]
    print(json.dumps(run_cli(argv, tracer)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
