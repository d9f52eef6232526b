"""Outside-in tracer for the six kbgb layers.

Every public module-level function of ``words``, ``rewriting``, ``ncpoly``,
``correspondence``, ``presentation`` and ``cli`` is wrapped, and the
wrapper is installed in every ``kbgb`` namespace that binds the function
(``find_matches`` is also bound in ``rewriting`` and ``ncpoly``,
``normal_form`` in ``correspondence``, and so on), so calls made through a
re-export are seen too. A function's self time is its span minus the spans
of the wrapped functions it called; every instant of the process is thus
in at most one span's self time, and the rest is unattributed. Classes and
private helpers are not wrapped: their time lands in the wrapped caller.

Spans are aggregated in memory (calls and self time per function) and
counts are read from arguments and return values at the same boundaries.
Run the CLI under the tracer with

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json lockstep FILE [flags]

which writes the raw snapshot to OUT.json and exits with the CLI's code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from fnmatch import fnmatchcase
from time import perf_counter

LAYERS = ("words", "rewriting", "ncpoly", "correspondence", "presentation", "cli")

# metric group -> wrapped functions whose self time (and calls) it sums;
# a function belongs to the layer of the module that defines it, so render
# helpers defined in rewriting/ncpoly count in those layers' totals as well
GROUPS = {
    "words.find_matches": ("words.find_matches",),
    "rewriting.normal_form": ("rewriting.normal_form",),
    "rewriting.critical_pairs": ("rewriting.critical_pairs",),
    "rewriting.kb_pass": ("rewriting.kb_pass",),
    "ncpoly.reduce": ("ncpoly.reduce_with_steps",),
    "ncpoly.s_polynomials": ("ncpoly.s_polynomials",),
    "ncpoly.buchberger_pass": ("ncpoly.buchberger_pass",),
    # the lockstep driver's own checks plus rule <-> basis translation
    "correspondence.lockstep": (
        "correspondence.lockstep_complete",
        "correspondence.rules_to_basis",
        "correspondence.rule_binomial",
        "correspondence.basis_to_rules",
        "correspondence.split_binomial",
    ),
    "correspondence.iso": ("correspondence.verify_algebra_iso",),
    "correspondence.render": (
        "correspondence.report_lines",
        "correspondence.iso_report_lines",
        "rewriting.pair_line",
        "rewriting.trace_lines",
        "ncpoly.record_line",
        "ncpoly.trace_lines",
        "ncpoly.render_poly",
    ),
    "presentation.parse": ("presentation.parse_presentation", "presentation.parse_poly_terms"),
    "cli.main": ("cli.*",),
}

# per-layer metric -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "words.find_matches.calls": "count",
    "words.find_matches.self_s": "s",
    "words.matches": "count",
    "words.match_cache_hit_ratio": "ratio",
    "words.self_s": "s",
    "rewriting.normal_form.calls": "count",
    "rewriting.normal_form.self_s": "s",
    "rewriting.critical_pairs.self_s": "s",
    "rewriting.kb_pass.self_s": "s",
    "rewriting.pairs": "count",
    "rewriting.rules_added": "count",
    "rewriting.added_per_pair": "ratio",
    "rewriting.longest_lhs": "letters",
    "rewriting.self_s": "s",
    "ncpoly.reduce.calls": "count",
    "ncpoly.reduce.self_s": "s",
    "ncpoly.reduction_steps": "count",
    "ncpoly.steps_per_reduce": "ratio",
    "ncpoly.s_polynomials.self_s": "s",
    "ncpoly.buchberger_pass.self_s": "s",
    "ncpoly.records": "count",
    "ncpoly.polys_added": "count",
    "ncpoly.self_s": "s",
    "correspondence.lockstep.self_s": "s",
    "correspondence.passes": "count",
    "correspondence.iso.self_s": "s",
    "correspondence.iso.words": "count",
    "correspondence.render.self_s": "s",
    "correspondence.self_s": "s",
    "presentation.parse.self_s": "s",
    "presentation.self_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Aggregated spans and counts for one process."""

    def __init__(self):
        self.spans = {}  # "layer.function" -> [calls, self seconds]
        self.counts = Counter()
        self._open = []  # time covered by child spans, one entry per open span

    def _wrap(self, name, fn, hook):
        cell = self.spans.setdefault(name, [0, 0.0])
        stack = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                cell[0] += 1
                cell[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _hooks(self):
        counts = self.counts

        def matches(args, kwargs, result):
            counts["words.matches"] += len(result)

        def pairs(args, kwargs, result):
            counts["rewriting.pairs"] += len(result)

        def kb_pass(args, kwargs, result):
            before = _arg(args, kwargs, 0, "system")
            after = result[0]
            counts["rewriting.rules_added"] += len(after.rules) - len(before.rules)
            longest = max((len(rule.lhs) for rule in after.rules), default=0)
            counts["rewriting.longest_lhs"] = max(counts["rewriting.longest_lhs"], longest)

        def reduce(args, kwargs, result):
            counts["ncpoly.reduction_steps"] += len(result[1])

        def records(args, kwargs, result):
            counts["ncpoly.records"] += len(result)

        def buchberger_pass(args, kwargs, result):
            before = _arg(args, kwargs, 0, "basis")
            counts["ncpoly.polys_added"] += len(result[0].polys) - len(before.polys)

        def lockstep(args, kwargs, result):
            counts["correspondence.passes"] += len(result.passes)

        def iso(args, kwargs, result):
            # the check enumerates every word of length counts[0][0]..bound
            # once completion corresponds; counts is empty otherwise
            if result.counts:
                size = len(_arg(args, kwargs, 0, "system").alphabet)
                lengths = range(result.counts[0][0], result.bound + 1)
                counts["correspondence.iso.words"] += sum(size**n for n in lengths)

        return {
            "words.find_matches": matches,
            "rewriting.critical_pairs": pairs,
            "rewriting.kb_pass": kb_pass,
            "ncpoly.reduce_with_steps": reduce,
            "ncpoly.s_polynomials": records,
            "ncpoly.buchberger_pass": buchberger_pass,
            "correspondence.lockstep_complete": lockstep,
            "correspondence.verify_algebra_iso": iso,
        }

    def install(self) -> None:
        """Wrap the public functions of every layer in every kbgb namespace."""
        hooks = self._hooks()
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"kbgb.{layer}")
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    key = f"{layer}.{name}"
                    wrappers[obj] = self._wrap(key, obj, hooks.get(key))
        for modname, module in list(sys.modules.items()):
            if modname != "kbgb" and not modname.startswith("kbgb."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])

    def snapshot(self) -> dict:
        """Raw spans, counts and the overlap cache statistics, as JSON data."""
        cache = getattr(importlib.import_module("kbgb.words"), "_find_matches_cached", None)
        info = cache.cache_info() if hasattr(cache, "cache_info") else None
        return {
            "spans": {name: list(cell) for name, cell in self.spans.items()},
            "counts": dict(self.counts),
            "match_cache": None if info is None else [info.hits, info.misses],
        }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(snapshot: dict, wall_s: float, output_bytes: int) -> dict:
    """Per-layer metric values from one traced process.

    ``wall_s`` is the process's launch-to-exit time as seen by its parent;
    the unattributed time is what no span covers, so the six layer self
    times plus ``trace.unattributed_s`` add up to it. ``trace.overhead_s``
    needs an untraced run and is filled in by the caller.
    """
    spans = snapshot["spans"]
    counts = Counter(snapshot["counts"])

    def total(patterns, field):
        return sum(
            cell[field]
            for name, cell in spans.items()
            if any(fnmatchcase(name, p) for p in patterns)
        )

    out = {}
    for group, members in GROUPS.items():
        out[f"{group}.self_s"] = total(members, 1)
        out[f"{group}.calls"] = total(members, 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = total([f"{layer}.*"], 1)
    hits, misses = snapshot["match_cache"] or (0, 0)
    out.update(
        {
            "words.matches": counts["words.matches"],
            "words.match_cache_hit_ratio": _ratio(hits, hits + misses),
            "rewriting.pairs": counts["rewriting.pairs"],
            "rewriting.rules_added": counts["rewriting.rules_added"],
            "rewriting.added_per_pair": _ratio(
                counts["rewriting.rules_added"], counts["rewriting.pairs"]
            ),
            "rewriting.longest_lhs": counts["rewriting.longest_lhs"],
            "ncpoly.reduction_steps": counts["ncpoly.reduction_steps"],
            "ncpoly.steps_per_reduce": _ratio(
                counts["ncpoly.reduction_steps"], out["ncpoly.reduce.calls"]
            ),
            "ncpoly.records": counts["ncpoly.records"],
            "ncpoly.polys_added": counts["ncpoly.polys_added"],
            "correspondence.passes": counts["correspondence.passes"],
            "correspondence.iso.words": counts["correspondence.iso.words"],
            "cli.output_bytes": output_bytes,
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - sum(cell[1] for cell in spans.values()),
        }
    )
    return {name: out[name] for name in METRICS if name in out}


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from kbgb import cli

    code = cli.main(cli_args)
    sys.stdout.flush()
    with open(out_path, "w") as out:
        json.dump(tracer.snapshot(), out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
