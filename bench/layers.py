"""Per-layer metrics from the spans bench/tracer.py records.

A span is [name, start_ns, end_ns, parent, rss_before_kb, rss_after_kb,
attrs]. A layer's self time is its spans' durations minus the parts of them
its child spans cover. TED calls are split by cost model and by the truth
tree's size band; the cell count (sum of n_a * n_b over calls that ran the
dynamic program, i.e. did not return cost 0) and the identity hits (calls
that returned cost 0) are deterministic work counts.
"""

from __future__ import annotations

import statistics

BANDS = (("band20", 60), ("band100", 250), ("band400", None))


def band(nodes: int) -> str:
    """Size band of a tree of `nodes` nodes."""
    for name, limit in BANDS[:-1]:
        if nodes < limit:
            return name
    return BANDS[-1][0]


def _units() -> dict[str, str]:
    units = {
        "ted.calls": "count", "ted.identity_hits": "count",
        "ted.identity_hit_ratio": "ratio", "ted.self_share": "ratio",
        "ted.rss_growth_mb": "MB",
        "trees.project_tree.structural.s": "s",
        "trees.project_tree.semantic.s": "s",
        "trees.project_tree.nodes_per_s": "1/s",
        "timing.timed_events.s": "s",
        "xmlio.parse_work.s": "s", "xmlio.parse_work.mb_per_s": "MB/s",
        "canonical.canonicalize.s": "s",
        "harness.align_measures.s": "s", "metrics.tally_terminals.s": "s",
        "metrics.tier3.self_s": "s", "harness.merge.s": "s",
        "harness.report.s": "s",
        "musicxml.convert_path.s": "s",
        "musicxml.convert_path.measures_per_s": "1/s",
        "model.validate.s": "s", "xmlio.serialize_work.self_s": "s",
        "mtn.main.s": "s", "trace.spans": "count", "trace.overhead_s": "s",
    }
    for mode in ("unit", "semantic"):
        units[f"ted.{mode}.s"] = "s"
        units[f"ted.{mode}.cells"] = "count"
        units[f"ted.{mode}.ns_per_cell"] = "ns"
        for name, _ in BANDS:
            units[f"ted.{mode}.s.{name}"] = "s"
    for name, _ in BANDS:
        for q in ("p50", "p99"):
            units[f"metrics.evaluate_measure.ms.{q}.{name}"] = "ms"
    return units


UNITS = _units()


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def one_run(spans: list[list]) -> dict[str, float]:
    duration = [(s[2] - s[1]) / 1e9 for s in spans]
    self_time = list(duration)
    for s, d in zip(spans, duration):
        if s[3] >= 0:
            self_time[s[3]] -= d

    def total(name: str, times=duration, mode: str | None = None) -> float:
        return sum(t for s, t in zip(spans, times) if s[0] == name
                   and (mode is None or (s[6] or {}).get("mode") == mode))

    m = {k: 0.0 for k in UNITS}
    ted = [(s, d) for s, d in zip(spans, duration)
           if s[0] == "ted.tree_edit_distance" and s[6]]
    for mode in ("unit", "semantic"):
        calls = [(s[6], d) for s, d in ted if s[6]["mode"] == mode]
        m[f"ted.{mode}.s"] = sum(d for _, d in calls)
        work = [(a, d) for a, d in calls if not a["zero"]]
        cells = sum(a["na"] * a["nb"] for a, _ in work)
        m[f"ted.{mode}.cells"] = cells
        if cells:
            m[f"ted.{mode}.ns_per_cell"] = 1e9 * sum(d for _, d in work) / cells
        for a, d in calls:
            m[f"ted.{mode}.s.{band(a['na'])}"] += d
    m["ted.calls"] = len(ted)
    m["ted.identity_hits"] = sum(1 for s, _ in ted if s[6]["zero"])
    if ted:
        m["ted.identity_hit_ratio"] = m["ted.identity_hits"] / len(ted)
    m["ted.rss_growth_mb"] = sum(s[5] - s[4] for s, _ in ted) / 1024

    main_s = total("mtn.main")
    m["mtn.main.s"] = main_s
    if main_s:
        m["ted.self_share"] = total("ted.tree_edit_distance",
                                    self_time) / main_s

    per_band: dict[str, list[float]] = {name: [] for name, _ in BANDS}
    for s, d in zip(spans, duration):
        if s[0] == "metrics.evaluate_measure" and s[6]:
            per_band[band(s[6]["na"])].append(1000 * d)
    for name, values in per_band.items():
        m[f"metrics.evaluate_measure.ms.p50.{name}"] = _percentile(values, 50)
        m[f"metrics.evaluate_measure.ms.p99.{name}"] = _percentile(values, 99)

    for mode in ("structural", "semantic"):
        m[f"trees.project_tree.{mode}.s"] = total("trees.project_tree",
                                                  mode=mode)
    projected = sum((s[6] or {}).get("nodes") or 0 for s in spans
                    if s[0] == "trees.project_tree")
    projection_s = total("trees.project_tree")
    if projection_s:
        m["trees.project_tree.nodes_per_s"] = projected / projection_s
    m["timing.timed_events.s"] = total("timing.timed_events")

    m["xmlio.parse_work.s"] = total("xmlio.parse_work")
    parsed = sum((s[6] or {}).get("bytes", 0) for s in spans
                 if s[0] == "xmlio.parse_work")
    if m["xmlio.parse_work.s"]:
        m["xmlio.parse_work.mb_per_s"] = parsed / 1e6 / m["xmlio.parse_work.s"]
    m["canonical.canonicalize.s"] = total("canonical.canonicalize")
    m["harness.align_measures.s"] = total("harness.align_measures")
    m["metrics.tally_terminals.s"] = total("metrics.tally_terminals")
    m["metrics.tier3.self_s"] = total("metrics.tier3_counts", self_time)
    m["harness.merge.s"] = total("harness.merge")
    m["harness.report.s"] = total("harness.report")

    m["musicxml.convert_path.s"] = total("musicxml.convert_path")
    converted = sum((s[6] or {}).get("measures", 0) for s in spans
                    if s[0] == "musicxml.convert_path")
    if m["musicxml.convert_path.s"]:
        m["musicxml.convert_path.measures_per_s"] = (
            converted / m["musicxml.convert_path.s"])
    m["model.validate.s"] = total("model.validate")
    m["xmlio.serialize_work.self_s"] = total("xmlio.serialize_work",
                                             self_time)
    m["trace.spans"] = len(spans)
    return m


def per_layer(runs: list[list[list]], untraced_wall: float,
              traced_wall: float) -> dict[str, float]:
    """Median of each layer metric over the traced runs, plus the tracing
    overhead: traced minus untraced wall time of the whole command."""
    each = [one_run(spans) for spans in runs]
    out = {k: statistics.median(r[k] for r in each) for k in UNITS}
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out
