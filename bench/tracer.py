"""Run one mtn command with a span around each public mtnkit call.

    python3 bench/tracer.py SPANS.json -- <mtn arguments>

The spans are recorded by this file, from outside the program: each traced
function is replaced, in its own module and in every mtnkit module that
imported it by name, by a wrapper that notes name, start, end, parent span,
peak RSS before and after, and a few deterministic attributes of the call
(tree sizes, bytes parsed, measures converted). Spans stay in memory and are
written once, when the command returns. A traced function that a later
version of the program renames or removes is skipped, and the layers it fed
read 0.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import resource
import sys
import time
from functools import wraps

spans: list[list] = []   # [name, start_ns, end_ns, parent, rss0_kb, rss1_kb, attrs]
_stack: list[int] = []


def _maxrss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _tree_size(tree) -> int | None:
    root = getattr(tree, "root", tree)
    if root is None:
        return 0
    count, todo = 0, [root]
    while todo:
        node = todo.pop()
        count += 1
        todo.extend(getattr(node, "children", ()))
    return count


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _ted_attrs(args, kwargs, script):
    semantic = _arg(args, kwargs, 2, "costs") is getattr(
        sys.modules["mtnkit.ted"], "SEMANTIC_COSTS", None)
    return {"mode": "semantic" if semantic else "unit",
            "na": script.a_size, "nb": script.b_size,
            "zero": script.cost == 0}


def _projection_attrs(args, kwargs, tree):
    return {"mode": _arg(args, kwargs, 1, "mode", "structural"),
            "nodes": _tree_size(tree)}


def _parse_attrs(args, kwargs, work):
    return {"bytes": len(_arg(args, kwargs, 0, "data"))}


def _convert_attrs(args, kwargs, result):
    return {"measures": sum(len(p.measures) for p in result.work.parts)}


def _measure_attrs(args, kwargs, ev):
    return {"na": ev.truth_size}


# (module, attribute, span name, attribute extractor). Span names are the
# layer names the benchmark reports.
TARGETS = [
    ("mtnkit.cli", "main", "mtn.main", None),
    ("mtnkit.ted", "tree_edit_distance", "ted.tree_edit_distance",
     _ted_attrs),
    ("mtnkit.trees", "project_tree", "trees.project_tree", _projection_attrs),
    ("mtnkit.timing", "timed_events", "timing.timed_events", None),
    ("mtnkit.xmlio", "parse_work", "xmlio.parse_work", _parse_attrs),
    ("mtnkit.xmlio", "serialize_work", "xmlio.serialize_work", None),
    ("mtnkit.canonical", "canonicalize", "canonical.canonicalize", None),
    ("mtnkit.model", "validate", "model.validate", None),
    ("mtnkit.musicxml", "convert_path", "musicxml.convert_path",
     _convert_attrs),
    ("mtnkit.metrics", "evaluate_measure", "metrics.evaluate_measure",
     _measure_attrs),
    ("mtnkit.metrics", "tally_terminals", "metrics.tally_terminals", None),
    ("mtnkit.metrics", "tier3_counts", "metrics.tier3_counts", None),
    ("mtnkit.metrics", "CorpusTally.add", "harness.merge", None),
    ("mtnkit.harness", "align_measures", "harness.align_measures", None),
    ("mtnkit.harness", "report_to_json", "harness.report", None),
    ("mtnkit.harness", "render_report", "harness.report", None),
]


def _wrap(fn, name, attrs_fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        span = [name, 0, 0, _stack[-1] if _stack else -1, _maxrss(), 0, None]
        _stack.append(len(spans))
        spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            _stack.pop()
            span[5] = _maxrss()
        if attrs_fn is not None:
            try:
                span[6] = attrs_fn(args, kwargs, result)
            except (AttributeError, TypeError, ValueError):
                span[6] = None
        return result
    return wrapper


def install() -> list[str]:
    """Wrap every target that exists; returns the targets that do not."""
    import mtnkit
    modules = {}
    for info in pkgutil.iter_modules(mtnkit.__path__, "mtnkit."):
        modules[info.name] = importlib.import_module(info.name)
    missing = []
    for module_name, attr, name, attrs_fn in TARGETS:
        owner = modules.get(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = _wrap(original, name, attrs_fn)
        setattr(owner, leaf, wrapper)
        if not path:
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <mtn arguments>",
              file=sys.stderr)
        return 2
    out_path, mtn_args = argv[0], argv[2:]
    missing = install()
    cli = sys.modules["mtnkit.cli"]
    try:
        rc = cli.main(mtn_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"missing": missing, "spans": spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
