"""Run one ``edgedist`` command with its public layer functions traced.

Usage: python3 bench/trace_cli.py SPANS_JSON COMMAND -- <edgedist arguments>

Every function in ``TRACED`` is wrapped in each ``edgedist`` module
namespace that binds it (``transit.batch_estimate`` and
``synth.batch_estimate`` alike), so internal calls are traced too.  Spans
stay in memory as flat arrays with a parent link; at exit their per-function
call count, total time and self time (total minus the time of child spans),
plus the layer counters below, are written to SPANS_JSON.  The command's exit
code is passed through.  Needs ``edgedist`` importable (PYTHONPATH=src).
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute); "Class.method" wraps a method on the class
TRACED = [
    ("ingest", "parse_traceroute_text"),
    ("ingest", "write_canonical"),
    ("ingest", "read_canonical"),
    ("transit", "estimate_pair"),
    ("transit", "min_over_origins"),
    ("transit", "batch_estimate"),
    ("transit", "write_outcomes"),
    ("transit", "read_outcomes"),
    ("stats", "build_distribution"),
    ("stats", "resample_stability"),
    ("stats", "write_distribution_tsv"),
    ("handover", "expected_loss_curve"),
    ("handover", "multicast_persistence"),
    ("synth", "true_distance"),
    ("synth", "min_hop_distance"),
    ("synth", "Simulator.trace"),
    ("synth", "run_experiment"),
    ("synth", "save_topology"),
]
# counted but not spanned, so their time stays in their callers' self time
COUNTED = [("synth", "dijkstra")]


class Tracer:
    """Span recorder: one entry per call, parent index -1 at the top."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()

    def count_calls(self, name: str, fn):
        counters = self.counters
        key = f"{name}.calls"

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def wrap(self, name: str, fn, count=None):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack)

        def traced(*args, **kwargs):
            i = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if count is not None:
                count(self.counters, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        n = len(self.name_of)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        functions = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = functions[self.names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return {"spans": n, "functions": functions, "counters": dict(self.counters)}


def _count_parse(c, result, args):
    traces, report = result
    c["ingest.parse_traceroute_text.lines"] += len(args[0].splitlines())
    c["ingest.parse_traceroute_text.skipped_lines"] += report.skipped_lines
    c["ingest.parse_traceroute_text.warnings"] += len(report.warnings)


def _count_len_arg(key):
    def count(c, result, args):
        c[key] += len(args[0])
    return count


def _count_len_result(key):
    def count(c, result, args):
        c[key] += len(result)
    return count


def _count_estimate(c, result, args):
    kind = getattr(result, "kind", None)
    if kind is None:
        c["transit.estimate_pair.accepted"] += 1
    else:
        c[f"transit.reject.{kind.value}"] += 1


def _count_write_outcomes(c, result, args):
    c["transit.write_outcomes.records"] += len(args[0])
    c["transit.write_outcomes.bytes"] += os.path.getsize(args[1])


def _count_samples(c, result, args):
    c["stats.build_distribution.samples"] += result.n


def _count_points(c, result, args):
    c["handover.expected_loss_curve.points"] += args[0].n * len(args[2])


COUNTERS = {
    "ingest.parse_traceroute_text": _count_parse,
    "ingest.write_canonical": _count_len_arg("ingest.write_canonical.traces"),
    "ingest.read_canonical": _count_len_result("ingest.read_canonical.traces"),
    "transit.estimate_pair": _count_estimate,
    "transit.write_outcomes": _count_write_outcomes,
    "transit.read_outcomes": _count_len_result("transit.read_outcomes.records"),
    "stats.build_distribution": _count_samples,
    "handover.expected_loss_curve": _count_points,
}


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function wherever an edgedist module binds it."""
    import importlib

    modules = [m for name, m in sys.modules.items()
               if name == "edgedist" or name.startswith("edgedist.")]
    for module_name, attr in TRACED + COUNTED:
        module = importlib.import_module(f"edgedist.{module_name}")
        name = f"{module_name}.{attr}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(name, getattr(cls, method), COUNTERS.get(name)))
            continue
        original = getattr(module, attr)
        if (module_name, attr) in COUNTED:
            wrapped = tracer.count_calls(name, original)
        else:
            wrapped = tracer.wrap(name, original, COUNTERS.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out_path, command, cli_args = argv[0], argv[1], argv[3:]
    from edgedist import cli

    tracer = Tracer()
    install(tracer)
    main_fn = tracer.wrap(f"cli.{command}", cli.main)
    code = main_fn(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
