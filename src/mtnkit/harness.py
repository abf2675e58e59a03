"""Corpus evaluation harness.

A corpus is described by a JSON-lines manifest: one entry per page holding
the work id, page id, the measure ids in top-down reading order, the work
file's path relative to the corpus root, and an optional partition tag.
Truth and prediction trees live under two roots at the same relative
paths.

Alignment is per page: when the predicted work contains every measure id
the page lists, measures pair by id; otherwise the page's truth sequence
is zipped against the predicted work's measures in document order, extra
predictions are discarded (and counted), and leftover truth measures
count as fully missed, entering the metrics as empty predictions unless
the matched-only switch is set.

Each page is evaluated on its own, to a report of its sums, so pages can
run on a process pool; the corpus report merges the page reports in
manifest order, which makes it byte-identical for any worker count. A
page computes only the asked tiers; the per-measure rows are tier 2's.
`ordered_map` is that pool for both `mtn evaluate` and `mtn convert`.
The scoring modules (metrics, trees, ted) are imported by the functions
that score, so `mtn convert` loads none of them.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from . import __version__
from .model import Measure, MTNWork
from .xmlio import FormatError, parse_work


class ManifestError(ValueError):
    pass


# Reference results of a published large-corpus baseline run (a commercial
# recognition engine against an engraved-score corpus). Not reproducible
# from this package; kept to document expected report columns and rough
# magnitudes. Keys name figures of the JSON report, not EvalReport fields.
REFERENCE_BASELINE = {
    "coverage": 0.769,
    "aggregate_precision": 0.894,
    "aggregate_recall": 0.733,
    "truth_tokens": 647965,
    "ter": 0.372,
    "time_shift": -0.096,
    "pitch_shift": -0.091,
    "staff_shift": 0.022,
    "time_precision": 0.802,
    "pitch_precision": 0.749,
    "staff_precision": 0.963,
    "false_positive_rate": 0.097,
    "missed_note_rate": 0.216,
}


class ManifestEntry(NamedTuple):
    work: str
    page: str
    path: str
    measures: tuple[str, ...]
    partition: str | None = None


_ENTRY_KEYS = {"work", "page", "path", "measures", "partition"}


def read_manifest(text: str) -> list[ManifestEntry]:
    """Parse a JSON-lines manifest; one page entry per line."""
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"line {lineno}: bad JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ManifestError(f"line {lineno}: entry must be an object")
        unknown = set(raw) - _ENTRY_KEYS
        if unknown:
            raise ManifestError(
                f"line {lineno}: unknown keys {sorted(unknown)}")
        for key in ("work", "page", "path"):
            if not isinstance(raw.get(key), str):
                raise ManifestError(f"line {lineno}: {key} must be a string")
        measures = raw.get("measures")
        if (not isinstance(measures, list) or not measures
                or not all(isinstance(m, str) for m in measures)):
            raise ManifestError(
                f"line {lineno}: measures must be a non-empty string list")
        if len(set(measures)) != len(measures):
            raise ManifestError(f"line {lineno}: duplicate measure ids")
        partition = raw.get("partition")
        if partition is not None and not isinstance(partition, str):
            raise ManifestError(f"line {lineno}: partition must be a string")
        entries.append(ManifestEntry(raw["work"], raw["page"], raw["path"],
                                     tuple(measures), partition))
    return entries


def write_manifest(entries: list[ManifestEntry]) -> str:
    lines = []
    for e in entries:
        record = {"work": e.work, "page": e.page, "path": e.path,
                  "measures": list(e.measures)}
        if e.partition is not None:
            record["partition"] = e.partition
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def manifest_for_work(work: MTNWork, path: str,
                      partition: str | None = None) -> list[ManifestEntry]:
    """Single-page manifest entries for one work (one entry per work)."""
    ids = [m.id for part in work.parts for m in part.measures]
    return [ManifestEntry(work.work_id, "1", path, tuple(ids), partition)]


# ---------------------------------------------------------------------------
# Alignment.

class Alignment(NamedTuple):
    pairs: list[tuple[Measure, Measure | None]]
    discarded: int  # surplus predicted measures
    missed: int     # truth measures with no prediction


def align_measures(entry: ManifestEntry, truth: MTNWork,
                   predicted: MTNWork | None) -> Alignment:
    """Pair a page's truth measures with predicted measures.

    Pairs by measure id when the prediction has them all, else zips in
    reading order per the discard rule.
    """
    truth_by_id = {m.id: m for part in truth.parts for m in part.measures}
    missing = [mid for mid in entry.measures if mid not in truth_by_id]
    if missing:
        raise ManifestError(
            f"page {entry.page} of {entry.work}: manifest names measures "
            f"missing from the truth work: {missing[:3]}")
    truth_list = [truth_by_id[mid] for mid in entry.measures]
    if predicted is None:
        return Alignment([(t, None) for t in truth_list], 0, len(truth_list))
    pred_by_id = {m.id: m for part in predicted.parts
                  for m in part.measures}
    if all(mid in pred_by_id for mid in entry.measures):
        return Alignment([(t, pred_by_id[t.id]) for t in truth_list], 0, 0)
    pred_list = [m for part in predicted.parts for m in part.measures]
    pairs: list[tuple[Measure, Measure | None]] = []
    for i, t in enumerate(truth_list):
        pairs.append((t, pred_list[i] if i < len(pred_list) else None))
    discarded = max(0, len(pred_list) - len(truth_list))
    missed = max(0, len(truth_list) - len(pred_list))
    return Alignment(pairs, discarded, missed)


# ---------------------------------------------------------------------------
# Independent work, in order.

def _available_cpus() -> int:
    # Where the affinity call is missing (macOS, Windows), pool processes
    # are spawned and import mtnkit anew; no run there has shown that to
    # pay, so those platforms work in one process.
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def ordered_map(function: Callable, items: list,
                workers: int) -> Iterator:
    """function(item) for each item, yielded in item order.

    min(workers, len(items), available CPUs) processes share the calls:
    this one and a pool of the others. A pool started by fork starts all
    its processes at once, hence the CPU cap. This one takes every
    workers-th item, from the first, each when its result is asked for,
    while the pool runs the rest ahead; so it works instead of only
    waiting, and no more processes run than workers. With one process,
    no pool module is imported. The pool starts by the platform's default
    method; on Linux before Python 3.14 that is fork, and its processes
    inherit the imported modules. A call's exception is raised at its
    turn, and pool calls not yet started are cancelled then, or when the
    caller closes the generator.
    """
    workers = min(workers, len(items), _available_cpus())
    if workers < 2:
        yield from map(function, items)
        return
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=workers - 1)
    try:
        pooled = [None if i % workers == 0 else pool.submit(function, item)
                  for i, item in enumerate(items)]
        for item, future in zip(items, pooled):
            yield function(item) if future is None else future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def convert_input(args: tuple) -> tuple[list[str], bytes,
                                        list[ManifestEntry]]:
    """One input of `mtn convert`: its warnings, its .mtn.xml bytes and its
    manifest entries. The work itself is not returned: a worker process
    sends back no trees."""
    from .musicxml import convert_path

    source, target_name, options, partition = args
    result = convert_path(source, options)
    return (result.warnings, result.data,
            manifest_for_work(result.work, target_name, partition))


# ---------------------------------------------------------------------------
# Corpus evaluation.

class EvalConfig(NamedTuple):
    tiers: tuple[int, ...] = (1, 2, 3)
    include_synthetic: bool = True   # count synthetic attributes in tier 1
    matched_only: bool = False       # drop missed measures from tier 2/3
    partition: str | None = None
    jobs: int = 1
    per_measure: bool = False        # add the per-measure rows to tier 2


def _load_work(path: Path, warnings: list[str],
               side: str) -> MTNWork | None:
    try:
        data = path.read_bytes()
    except OSError as exc:
        warnings.append(f"{side} file {path.name} unreadable: {exc.strerror}")
        return None
    try:
        return parse_work(data, on_warning=lambda msg: warnings.append(
            f"{side} {path.name}: {msg}"))
    except FormatError as exc:
        warnings.append(f"{side} file {path.name} rejected: {exc}")
        return None


def _evaluate_entry(args: tuple) -> EvalReport:
    from .metrics import evaluate_measure
    from .trees import untimeable

    truth_root, pred_root, entry, config = args
    page = EvalReport(config)
    page.truth_measures = len(entry.measures)
    truth = _load_work(Path(truth_root) / entry.path, page.warnings, "truth")
    if truth is None:
        page.skipped_pages = 1
        return page
    predicted = _load_work(Path(pred_root) / entry.path, page.warnings,
                           "prediction")
    pairs, page.discarded, page.missed = align_measures(entry, truth,
                                                        predicted)
    name = Path(entry.path).name
    for t, p in pairs:
        if p is not None:
            page.matched += 1
        elif config.matched_only:
            continue
        try:
            ev = evaluate_measure(t, p, config.include_synthetic,
                                  config.tiers)
        except ValueError as exc:  # an untimeable truth, under tier 3 only
            raise untimeable("truth", name, t.id, exc) from None
        if ev.untimed is not None:
            page.warnings.append(
                f"prediction {name}: measure {ev.measure_id} "
                f"not timed, its truth events count as missed: {ev.untimed}")
        page.tally.add(ev)
        if config.per_measure and 2 in config.tiers:
            page.per_measure.append((ev.measure_id, ev.cost, ev.truth_size))
    return page


class EvalReport:
    """Counts, tallies, rows and warnings of a page or of a corpus, whose
    report merges its pages' reports in manifest order."""

    __slots__ = ("config", "tally", "truth_measures", "matched", "discarded",
                 "missed", "skipped_pages", "per_measure", "warnings")

    def __init__(self, config: EvalConfig) -> None:
        from .metrics import CorpusTally

        self.config = config
        self.tally = CorpusTally()
        self.truth_measures = self.matched = self.discarded = 0
        self.missed = self.skipped_pages = 0
        self.per_measure: list[tuple[str, Fraction, int]] = []
        self.warnings: list[str] = []

    @property
    def coverage(self) -> Fraction | None:
        from .metrics import rate

        return rate(self.matched, self.truth_measures)

    def merge(self, page: "EvalReport") -> None:
        """Add another report's counts, tallies, rows and warnings."""
        self.tally.merge(page.tally)
        self.truth_measures += page.truth_measures
        self.matched += page.matched
        self.discarded += page.discarded
        self.missed += page.missed
        self.skipped_pages += page.skipped_pages
        self.per_measure.extend(page.per_measure)
        self.warnings.extend(page.warnings)


def evaluate_corpus(truth_root: str | Path, pred_root: str | Path,
                    entries: list[ManifestEntry],
                    config: EvalConfig | None = None) -> EvalReport:
    """Evaluate every manifest page; deterministic for any worker count."""
    config = config or EvalConfig()
    if config.partition is not None:
        entries = [e for e in entries if e.partition == config.partition]
    report = EvalReport(config)
    args = [(str(truth_root), str(pred_root), entry, config)
            for entry in entries]
    for page in ordered_map(_evaluate_entry, args, config.jobs):
        report.merge(page)
    return report


# ---------------------------------------------------------------------------
# Report serialization.

# The tier-3 rates in the text table's column order, each with its column
# heading; step precision has no column, so only the JSON reports it.
_TIER3_RATES = (
    ("time_shift", "Time Shift"), ("pitch_shift", "Pitch Shift"),
    ("staff_shift", "Staff Shift"), ("time_precision", "Time Prec."),
    ("pitch_precision", "Pitch Prec."), ("staff_precision", "Staff Prec."),
    ("false_positive_rate", "FPR"), ("missed_note_rate", "MNR"),
    ("step_precision", None))


def _report_doc(report: EvalReport) -> dict:
    """The JSON report's document, rates as exact fractions or None (the
    rate is undefined). Both renderings print its figures."""
    from .metrics import rate

    config, tally = report.config, report.tally
    doc: dict = {
        "tool": {"name": "mtnkit", "version": __version__},
        "config": {"tiers": sorted(config.tiers),
                   "include_synthetic": config.include_synthetic,
                   "matched_only": config.matched_only,
                   "partition": config.partition},
        "coverage": {"truth_measures": report.truth_measures,
                     "matched": report.matched, "ratio": report.coverage,
                     "discarded_predictions": report.discarded,
                     "missed_measures": report.missed,
                     "skipped_pages": report.skipped_pages},
        "warnings": list(report.warnings)}
    if 1 in config.tiers:
        total = tally.total_truth
        doc["tier1"] = {
            "classes": {label: dict(c._asdict(), precision=c.precision,
                                    recall=c.recall,
                                    proportion=rate(c.truth, total))
                        for label, c in sorted(tally.classes.items())},
            "aggregate_precision": tally.aggregate_precision,
            "aggregate_recall": tally.aggregate_recall,
            "undefined_precision": list(tally.undefined_precision),
            "total_truth_tokens": total}
    if 2 in config.tiers:
        doc["tier2"] = {"ter": tally.ter, "edit_cost": tally.cost,
                        "truth_nodes": tally.truth_nodes,
                        "measures": tally.measures}
        if config.per_measure:
            doc["tier2"]["per_measure"] = [
                {"id": mid, "cost": cost, "truth_nodes": size,
                 "ter": cost / size}
                for mid, cost, size in report.per_measure]
    if 3 in config.tiers:
        t3 = tally.tier3
        doc["tier3"] = {"truth_events": t3.truth_events,
                        "predicted_events": t3.pred_events,
                        "matched": t3.matched,
                        "matched_notes": t3.matched_notes,
                        **{key: getattr(t3, key) for key, _ in _TIER3_RATES}}
    return doc


def _exact(x: object) -> str:
    """A fraction of the report as its exact "num/den" string."""
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"a report holds no {type(x).__name__}: {x!r}")


def report_to_json(report: EvalReport) -> str:
    """Canonical JSON rendering; rationals as exact "num/den" strings."""
    return json.dumps(_report_doc(report), indent=2, sort_keys=True,
                      default=_exact) + "\n"


def _fmt(x: Fraction | None, width: int) -> str:
    return ("-" if x is None else f"{float(x):.3f}").rjust(width)


def render_report(report: EvalReport) -> str:
    """Human-readable text tables of the JSON report's figures, rounded to
    three places; the per-measure rows print with tier 2, as the JSON
    holds them."""
    doc = _report_doc(report)
    cov = doc["coverage"]
    pct = "-" if cov["ratio"] is None else f"{float(cov['ratio']) * 100:.1f}%"
    lines = [
        f"Coverage: {cov['matched']}/{cov['truth_measures']} measures "
        f"({pct}); {cov['discarded_predictions']} extra predictions "
        f"discarded, {cov['missed_measures']} measures missed, "
        f"{cov['skipped_pages']} pages skipped"]
    if "tier1" in doc:
        t1 = doc["tier1"]
        total = t1["total_truth_tokens"]
        lines += ["", f"{'Class':<28}{'Precision':>10}{'Recall':>8}"
                      f"{'Counts':>8}{'Prop':>7}"]
        for label, c in sorted(t1["classes"].items(),
                               key=lambda kv: (-kv[1]["truth"], kv[0])):
            lines.append(f"{label:<28}{_fmt(c['precision'], 10)}"
                         f"{_fmt(c['recall'], 8)}{c['truth']:>8}"
                         f"{_fmt(c['proportion'], 7)}")
        # the proportions of the classes sum to one
        lines.append(f"{'all (weighted)':<28}"
                     f"{_fmt(t1['aggregate_precision'], 10)}"
                     f"{_fmt(t1['aggregate_recall'], 8)}{total:>8}"
                     f"{'1.000' if total else '-':>7}")
        if t1["undefined_precision"]:
            lines.append("precision undefined (never predicted): "
                         + ", ".join(t1["undefined_precision"]))
    if "tier2" in doc or "tier3" in doc:
        columns = [("TER", doc.get("tier2", {}).get("ter"))]
        if "tier3" in doc:
            columns += [(heading, doc["tier3"][key])
                        for key, heading in _TIER3_RATES if heading]
        lines += ["", "  ".join(name.rjust(max(len(name), 6))
                                for name, _ in columns),
                  "  ".join(_fmt(value, max(len(name), 6))
                            for name, value in columns)]
    rows = doc.get("tier2", {}).get("per_measure")
    if rows:
        lines += ["", f"{'Measure':<24}{'Cost':>8}{'Nodes':>7}{'TER':>8}"]
        for row in rows:
            lines.append(f"{row['id']:<24}{_fmt(row['cost'], 8)}"
                         f"{row['truth_nodes']:>7}{_fmt(row['ter'], 8)}")
    return "\n".join(lines) + "\n"
