"""Harness tests: manifests, alignment, corpus evaluation, reports."""

import json
import multiprocessing
import os
import re
import shutil
from contextlib import closing
from fractions import Fraction
from pathlib import Path

import pytest

from builders import random_work_checked, standard_measure, standard_work, work
from mtnkit.harness import (
    EvalConfig, ManifestEntry, ManifestError, align_measures,
    evaluate_corpus, manifest_for_work, ordered_map, read_manifest,
    render_report, report_to_json, write_manifest,
)
from mtnkit import metrics
from mtnkit.perturb import shift_step_fraction
from mtnkit.ted import SEMANTIC_COSTS, UNIT_COSTS
from mtnkit.xmlio import parse_work, serialize_work
import random

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "fixtures" / "corpus"


def measure_ids(w):
    return [m.id for part in w.parts for m in part.measures]


def entry_for(w, path):
    return ManifestEntry(w.work_id, "1", path, tuple(measure_ids(w)))


def corpus_on_disk(tmp_path, works, pred_works=None):
    """Write truth + prediction roots and a manifest; returns the paths."""
    truth_root = tmp_path / "truth"
    pred_root = tmp_path / "pred"
    truth_root.mkdir()
    pred_root.mkdir()
    entries = []
    pred_works = pred_works if pred_works is not None else works
    for w, p in zip(works, pred_works):
        name = f"{w.work_id}.mtn.xml"
        (truth_root / name).write_bytes(serialize_work(w))
        if p is not None:
            (pred_root / name).write_bytes(serialize_work(p))
        entries.extend(manifest_for_work(w, name))
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(write_manifest(entries))
    return truth_root, pred_root, entries


# -- manifest -----------------------------------------------------------------

def test_manifest_round_trip():
    w = standard_work()
    entries = manifest_for_work(w, "w.mtn.xml", partition="test")
    text = write_manifest(entries)
    assert read_manifest(text) == entries


def test_manifest_rejects_bad_json():
    with pytest.raises(ManifestError):
        read_manifest("{not json}\n")


def test_manifest_rejects_unknown_keys():
    line = json.dumps({"work": "w", "page": "1", "path": "p",
                       "measures": ["m1"], "color": "red"})
    with pytest.raises(ManifestError):
        read_manifest(line)


def test_manifest_rejects_duplicate_measures():
    line = json.dumps({"work": "w", "page": "1", "path": "p",
                       "measures": ["m1", "m1"]})
    with pytest.raises(ManifestError):
        read_manifest(line)


def test_manifest_skips_blank_lines():
    w = standard_work()
    text = "\n" + write_manifest(manifest_for_work(w, "w.mtn.xml")) + "\n\n"
    assert len(read_manifest(text)) == 1


GOOD_ENTRY = {"work": "w", "page": "1", "path": "p", "measures": ["m1"]}


@pytest.mark.parametrize("entry, message", [
    (["w", "1", "p", ["m1"]], "entry must be an object"),
    ({**GOOD_ENTRY, "work": 1}, "work must be a string"),
    ({**GOOD_ENTRY, "page": None}, "page must be a string"),
    ({k: v for k, v in GOOD_ENTRY.items() if k != "path"},
     "path must be a string"),
    ({**GOOD_ENTRY, "measures": []},
     "measures must be a non-empty string list"),
    ({**GOOD_ENTRY, "measures": "m1"},
     "measures must be a non-empty string list"),
    ({**GOOD_ENTRY, "measures": ["m1", 2]},
     "measures must be a non-empty string list"),
    ({**GOOD_ENTRY, "partition": 3}, "partition must be a string"),
], ids=["array", "work", "page", "path", "measures-empty",
        "measures-not-list", "measures-non-string", "partition"])
def test_manifest_type_errors_name_their_line(entry, message):
    text = json.dumps(GOOD_ENTRY) + "\n\n" + json.dumps(entry) + "\n"
    with pytest.raises(ManifestError) as exc:
        read_manifest(text)
    assert str(exc.value) == f"line 3: {message}"


# -- alignment ----------------------------------------------------------------

def test_align_by_id():
    w = standard_work()
    alignment = align_measures(entry_for(w, "p"), w, w)
    assert len(alignment.pairs) == len(measure_ids(w))
    assert alignment.discarded == 0
    assert alignment.missed == 0
    for t, p in alignment.pairs:
        assert p is not None and p.id == t.id


def rename_measures(w, prefix):
    """Give every measure a fresh id so id-based alignment cannot apply."""
    parts = []
    for part in w.parts:
        ms = tuple(m._replace(id=f"{prefix}{i + 1}")
                   for i, m in enumerate(part.measures))
        parts.append(part._replace(measures=ms))
    return w._replace(parts=tuple(parts))


def test_align_zip_discards_extras():
    rng = random.Random(7)
    truth = random_work_checked(rng, measures_n=4)
    pred = rename_measures(random_work_checked(rng, measures_n=5), "p")
    entry = entry_for(truth, "p")
    alignment = align_measures(entry, truth, pred)
    assert len(alignment.pairs) == 4
    assert alignment.discarded == 1
    assert alignment.missed == 0


def test_align_zip_counts_missed():
    rng = random.Random(8)
    truth = random_work_checked(rng, measures_n=4)
    pred = random_work_checked(rng, measures_n=2)
    alignment = align_measures(entry_for(truth, "p"), truth, pred)
    assert len(alignment.pairs) == 4
    assert alignment.missed == 2
    assert alignment.pairs[3][1] is None


def test_align_no_prediction():
    truth = standard_work()
    alignment = align_measures(entry_for(truth, "p"), truth, None)
    assert all(p is None for _, p in alignment.pairs)
    assert alignment.missed == len(alignment.pairs)


def test_align_manifest_mismatch():
    truth = standard_work()
    entry = ManifestEntry("w", "1", "p", ("nope",))
    with pytest.raises(ManifestError):
        align_measures(entry, truth, truth)


# -- corpus evaluation --------------------------------------------------------

def test_truth_vs_truth_report(tmp_path):
    rng = random.Random(11)
    works = [random_work_checked(rng, measures_n=3) for _ in range(3)]
    for i, w in enumerate(works):
        works[i] = w = type(w)(f"w{i}", w.parts)
    truth_root, pred_root, entries = corpus_on_disk(tmp_path, works)
    report = evaluate_corpus(truth_root, pred_root, entries)
    assert report.coverage == 1
    assert report.tally.ter == 0
    assert report.tally.aggregate_precision == 1
    assert report.tally.aggregate_recall == 1
    assert report.tally.tier3.missed_note_rate == 0
    assert report.warnings == []


def test_missing_prediction_file(tmp_path):
    w = standard_work()
    truth_root, pred_root, entries = corpus_on_disk(
        tmp_path, [w], pred_works=[None])
    report = evaluate_corpus(truth_root, pred_root, entries)
    assert report.matched == 0
    assert report.coverage == 0
    assert report.tally.ter == 1  # every measure fully missed
    assert any("unreadable" in w for w in report.warnings)


def test_matched_only_excludes_missed(tmp_path):
    w = standard_work()
    truth_root, pred_root, entries = corpus_on_disk(
        tmp_path, [w], pred_works=[None])
    report = evaluate_corpus(truth_root, pred_root, entries,
                             EvalConfig(matched_only=True))
    assert report.tally.measures == 0
    assert report.tally.ter is None
    assert report.coverage == 0


def test_unreadable_truth_skips_page(tmp_path):
    w = standard_work()
    truth_root, pred_root, entries = corpus_on_disk(tmp_path, [w])
    (truth_root / f"{w.work_id}.mtn.xml").write_text("<broken")
    report = evaluate_corpus(truth_root, pred_root, entries)
    assert report.skipped_pages == 1
    assert report.matched == 0
    assert report.truth_measures == len(measure_ids(w))


def test_partition_filter(tmp_path):
    w1 = standard_work()
    w2 = work(standard_measure(), work_id="other")
    truth_root = tmp_path / "truth"
    truth_root.mkdir()
    entries = []
    for w, part in ((w1, "train"), (w2, "test")):
        name = f"{w.work_id}.mtn.xml"
        (truth_root / name).write_bytes(serialize_work(w))
        entries.extend(manifest_for_work(w, name, partition=part))
    report = evaluate_corpus(truth_root, truth_root, entries,
                             EvalConfig(partition="test"))
    assert report.truth_measures == 1
    assert report.coverage == 1


def test_parallel_jobs_identical_report(tmp_path):
    rng = random.Random(23)
    works = []
    for i in range(6):
        w = random_work_checked(rng, measures_n=2)
        works.append(type(w)(f"w{i}", w.parts))
    truth_root, pred_root, entries = corpus_on_disk(tmp_path, works)
    reports = [
        report_to_json(evaluate_corpus(truth_root, pred_root, entries,
                                       EvalConfig(jobs=jobs)))
        for jobs in (1, 2, 4)
    ]
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("tiers", [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3),
                                   (1, 2, 3)])
def test_each_tier_runs_its_own_work_only(monkeypatch, tiers):
    calls = {UNIT_COSTS: 0, SEMANTIC_COSTS: 0, "tally": 0}
    engine, tally = metrics.tree_edit_distance, metrics.tally_terminals

    def counted_distance(a, b, costs):
        calls[costs] += 1
        return engine(a, b, costs)

    def counted_tally(*args):
        calls["tally"] += 1
        return tally(*args)

    monkeypatch.setattr(metrics, "tree_edit_distance", counted_distance)
    monkeypatch.setattr(metrics, "tally_terminals", counted_tally)
    entries = read_manifest(
        (ROOT / "fixtures" / "manifest.jsonl").read_text(encoding="utf-8"))
    report = evaluate_corpus(CORPUS, CORPUS, entries, EvalConfig(tiers=tiers))
    pairs = report.tally.measures
    assert pairs == 6
    assert calls == {"tally": pairs if 1 in tiers else 0,
                     UNIT_COSTS: pairs if 2 in tiers else 0,
                     SEMANTIC_COSTS: pairs if 3 in tiers else 0}


def every_field_corpus(tmp_path):
    """The fixture corpus, whose predictions are, page by page: perturbed
    (anthem), untimed (carol), missing (etude) and rejected (motif); then a
    page with an extra predicted measure and a page whose truth is
    missing. Returns the roots and the manifest entries."""
    truth_root, pred_root = tmp_path / "truth", tmp_path / "pred"
    shutil.copytree(CORPUS, truth_root)
    pred_root.mkdir()
    anthem = parse_work((CORPUS / "anthem.mtn.xml").read_bytes())
    shifted, _ = shift_step_fraction(anthem, "notehead_black", 1,
                                     Fraction(1, 2))
    (pred_root / "anthem.mtn.xml").write_bytes(serialize_work(shifted))
    carol = (CORPUS / "carol.mtn.xml").read_text(encoding="utf-8")
    (pred_root / "carol.mtn.xml").write_text(  # a chord with no notehead
        re.sub(r'\s*<token id="t4"[^>]*>', "", carol), encoding="utf-8")
    (pred_root / "motif.mtn.xml").write_text("<broken", encoding="utf-8")
    rng = random.Random(31)
    extra = random_work_checked(rng, work_id="extra", measures_n=2)
    (truth_root / "extra.mtn.xml").write_bytes(serialize_work(extra))
    (pred_root / "extra.mtn.xml").write_bytes(serialize_work(rename_measures(
        random_work_checked(rng, work_id="extra", measures_n=3), "p")))
    entries = read_manifest(
        (ROOT / "fixtures" / "manifest.jsonl").read_text(encoding="utf-8"))
    entries += manifest_for_work(extra, "extra.mtn.xml")
    entries.append(ManifestEntry("lost", "1", "lost.mtn.xml", ("m1",)))
    return truth_root, pred_root, entries


@pytest.mark.parametrize("per_measure", [False, True])
@pytest.mark.parametrize("matched_only", [False, True])
def test_jobs_identical_report_filling_every_merged_field(
        tmp_path, per_measure, matched_only):
    truth_root, pred_root, entries = every_field_corpus(tmp_path)
    reports = []
    for jobs in (1, 2, 3):
        report = evaluate_corpus(truth_root, pred_root, entries, EvalConfig(
            per_measure=per_measure, matched_only=matched_only, jobs=jobs))
        reports.append((report_to_json(report), render_report(report)))
    assert reports[0] == reports[1] == reports[2]
    doc = json.loads(reports[0][0])
    assert doc["coverage"] == {
        "truth_measures": 9, "matched": 6, "ratio": "2/3",
        "discarded_predictions": 1, "missed_measures": 2,
        "skipped_pages": 1}
    assert [w.split(":")[0] for w in doc["warnings"]] == [
        "prediction carol.mtn.xml",
        "prediction file etude.mtn.xml unreadable",
        "prediction file motif.mtn.xml rejected",
        "truth file lost.mtn.xml unreadable"]
    assert doc["warnings"][0].endswith("chord has no noteheads")
    assert doc["tier2"]["measures"] == (6 if matched_only else 8)
    assert doc["tier3"]["pitch_shift"] not in (None, "0")
    scored = ("anthem", "carol", "extra") if matched_only else (
        "anthem", "carol", "etude", "motif", "extra")
    if per_measure:
        assert [r["id"] for r in doc["tier2"]["per_measure"]] == [
            mid for e in entries if e.work in scored for mid in e.measures]
    else:
        assert "per_measure" not in doc["tier2"]


def test_report_is_the_same_for_relative_and_absolute_roots(
        tmp_path, monkeypatch):
    # A missing file is named as the manifest names it, so the report does
    # not carry the roots as they were spelled.
    truth_root, pred_root, entries = every_field_corpus(tmp_path)
    monkeypatch.chdir(tmp_path)
    reports = []
    for roots in ((truth_root, pred_root), ("truth", "pred"),
                  ("./truth", "../" + tmp_path.name + "/pred")):
        report = evaluate_corpus(*roots, entries)
        reports.append((report_to_json(report), render_report(report)))
    assert reports[0] == reports[1] == reports[2]
    warnings = json.loads(reports[0][0])["warnings"]
    assert ("prediction file etude.mtn.xml unreadable: "
            "No such file or directory") in warnings
    assert ("truth file lost.mtn.xml unreadable: "
            "No such file or directory") in warnings


def inverse_and_pid(item: int) -> tuple[Fraction, int]:
    """1/item and the process that worked it out (ZeroDivisionError for 0)."""
    return Fraction(1, item), os.getpid()


def available_cpus(monkeypatch, count: int) -> None:
    """Make the process's CPU affinity read count CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


def test_ordered_map_shares_the_items_with_the_caller(monkeypatch):
    available_cpus(monkeypatch, 3)
    items = [1, 2, 3, 4, 5, 6, 7]
    results = list(ordered_map(inverse_and_pid, items, 3))
    assert [value for value, _ in results] == [Fraction(1, i) for i in items]
    here = [pid == os.getpid() for _, pid in results]
    assert here == [True, False, False, True, False, False, True]
    assert all(pid == os.getpid()
               for _, pid in ordered_map(inverse_and_pid, items, 1))


def test_ordered_map_pool_is_capped_at_the_available_cpus(monkeypatch):
    # A pool started by fork starts all its processes at the first submit,
    # so six workers asked for on two CPUs would fork five.
    available_cpus(monkeypatch, 2)
    results = ordered_map(abs, [-1, -2, -3, -4, -5, -6], 6)
    with closing(results):
        assert next(results) == 1
        assert len(multiprocessing.active_children()) <= 1
        assert list(results) == [2, 3, 4, 5, 6]


@pytest.mark.parametrize("items", [[1, 0, 3], [1, 2, 0]],
                         ids=["in-the-pool", "in-the-caller"])
def test_ordered_map_raises_at_the_failing_items_turn(items):
    results = ordered_map(inverse_and_pid, items, 2)
    for value in items[:items.index(0)]:
        assert next(results)[0] == Fraction(1, value)
    with pytest.raises(ZeroDivisionError):
        next(results)


# -- report rendering ---------------------------------------------------------

def eval_standard(tmp_path, **config):
    w = standard_work()
    truth_root, pred_root, entries = corpus_on_disk(tmp_path, [w])
    return evaluate_corpus(truth_root, pred_root, entries,
                           EvalConfig(**config))


def test_json_report_shape(tmp_path):
    report = eval_standard(tmp_path, per_measure=True)
    doc = json.loads(report_to_json(report))
    assert doc["tool"]["name"] == "mtnkit"
    assert doc["coverage"]["ratio"] == "1"
    assert doc["tier2"]["ter"] == "0"
    assert doc["tier3"]["missed_note_rate"] == "0"
    assert doc["tier2"]["per_measure"][0]["ter"] == "0"
    for cls in doc["tier1"]["classes"].values():
        assert cls["precision"] == "1"
        assert cls["recall"] == "1"


def test_json_proportions_sum_to_one(tmp_path):
    report = eval_standard(tmp_path)
    doc = json.loads(report_to_json(report))
    total = sum(Fraction(c["proportion"])
                for c in doc["tier1"]["classes"].values()
                if c["truth"] > 0)
    assert total == 1


def test_text_report_columns(tmp_path):
    report = eval_standard(tmp_path)
    text = render_report(report)
    for column in ("TER", "Time Shift", "Pitch Shift", "Staff Shift",
                   "Time Prec.", "Pitch Prec.", "Staff Prec.", "FPR", "MNR"):
        assert column in text
    assert "Class" in text and "Prop" in text
    assert "Coverage: " in text


def test_tier_selection_trims_report(tmp_path):
    report = eval_standard(tmp_path, tiers=(1,))
    doc = json.loads(report_to_json(report))
    assert "tier2" not in doc and "tier3" not in doc
    text = render_report(report)
    assert "TER" not in text


def three(value: str | None) -> str:
    """A fraction of the JSON report as the text tables print it."""
    return "-" if value is None else f"{float(Fraction(value)):.3f}"


# The rate columns of the text report and the JSON figures they print.
_TEXT_COLUMNS = {
    "TER": ("tier2", "ter"), "Time Shift": ("tier3", "time_shift"),
    "Pitch Shift": ("tier3", "pitch_shift"),
    "Staff Shift": ("tier3", "staff_shift"),
    "Time Prec.": ("tier3", "time_precision"),
    "Pitch Prec.": ("tier3", "pitch_precision"),
    "Staff Prec.": ("tier3", "staff_precision"),
    "FPR": ("tier3", "false_positive_rate"),
    "MNR": ("tier3", "missed_note_rate"),
}


@pytest.mark.parametrize("tiers", [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3),
                                   (1, 2, 3)])
def test_text_tables_print_the_json_reports_fractions(tmp_path, tiers):
    truth_root, pred_root, entries = every_field_corpus(tmp_path)
    report = evaluate_corpus(truth_root, pred_root, entries, EvalConfig(
        tiers=tiers, per_measure=True))
    doc, text = json.loads(report_to_json(report)), render_report(report)
    sections = text.rstrip("\n").split("\n\n")
    ratio = Fraction(doc["coverage"]["ratio"])
    assert f"({float(ratio) * 100:.1f}%)" in sections.pop(0)
    if 1 in tiers:
        t1 = doc["tier1"]
        header, *lines = sections.pop(0).splitlines()
        assert header.split() == ["Class", "Precision", "Recall", "Counts",
                                  "Prop"]
        assert lines.pop() == ("precision undefined (never predicted): "
                               + ", ".join(t1["undefined_precision"]))
        rows = {line[:28].rstrip(): line[28:].split() for line in lines}
        assert rows.pop("all (weighted)") == [
            three(t1["aggregate_precision"]), three(t1["aggregate_recall"]),
            str(t1["total_truth_tokens"]), "1.000"]
        assert rows == {
            label: [three(c["precision"]), three(c["recall"]),
                    str(c["truth"]), three(c["proportion"])]
            for label, c in t1["classes"].items()}
    if 2 in tiers or 3 in tiers:
        names, values = sections.pop(0).splitlines()
        headings = re.split(r"\s{2,}", names.strip())
        assert headings == (list(_TEXT_COLUMNS) if 3 in tiers else ["TER"])
        assert values.split() == [
            three(doc[tier][key]) if tier in doc else "-"
            for tier, key in map(_TEXT_COLUMNS.get, headings)]
    # The per-measure rows print with tier 2, where the JSON holds them.
    if 2 in tiers:
        header, *lines = sections.pop(0).splitlines()
        assert header.split() == ["Measure", "Cost", "Nodes", "TER"]
        assert [line.split() for line in lines] == [
            [row["id"], three(row["cost"]), str(row["truth_nodes"]),
             three(row["ter"])] for row in doc["tier2"]["per_measure"]]
    assert sections == []


def test_json_report_refuses_a_value_it_cannot_write_exactly(tmp_path):
    report = eval_standard(tmp_path)
    report.warnings.append(Path("stray"))  # neither JSON nor a fraction
    with pytest.raises(TypeError):
        report_to_json(report)
