"""Acceptance gate: one test per externally promised behavior.

Every test prints a PASS or FAIL line naming the promise it checks.
All comparisons are exact rational equality; the only tolerance anywhere
is the wall-clock budget on the exhaustive-search cross-check.
"""

import contextlib
import random
import time
from fractions import Fraction
from pathlib import Path

from builders import (
    barline, group, measure, random_tree, random_work_checked, simple_chord,
    treble_attributes, work,
)
from oracles import brute_force_distance
from mtnkit.harness import (
    REFERENCE_BASELINE, EvalConfig, evaluate_corpus, read_manifest,
    render_report, report_to_json,
)
from mtnkit.metrics import evaluate_measure, tier3_counts
from mtnkit.model import BARLINE, CHORD, Token
from mtnkit.musicxml import convert_path
from mtnkit.perturb import relabel_fraction
from mtnkit.ted import SEMANTIC_COSTS, UNIT_COSTS, tree_edit_distance
from mtnkit.trees import project_tree
from mtnkit.xmlio import parse_work, serialize_work

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "fixtures" / "corpus"
MANIFEST = ROOT / "fixtures" / "manifest.jsonl"
TORTURE = ROOT / "fixtures" / "musicxml" / "torture.musicxml"


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL: {name}")
        raise
    print(f"PASS: {name}")


def manifest_entries():
    return read_manifest(MANIFEST.read_text(encoding="utf-8"))


def corpus_work(entry):
    return parse_work((CORPUS / entry.path).read_bytes())


def chord_onsets(m):
    onsets = []

    def walk(node):
        if node.kind == CHORD:
            onsets.append(node.onset)
        for child in node.children:
            if not isinstance(child, Token):
                walk(child)
    for child in m.children:
        walk(child)
    return sorted(onsets)


def test_distance_equals_exhaustive_search():
    with criterion("edit distance matches exhaustive search on 1000 "
                   "random pairs of small trees in under two minutes"):
        rng = random.Random(1234)
        start = time.monotonic()
        for _ in range(1000):
            a = random_tree(rng, 8)
            b = random_tree(rng, 8)
            got = tree_edit_distance(a, b, UNIT_COSTS).cost
            want = brute_force_distance(a, b, UNIT_COSTS)
            assert got == want, (got, want)
        assert time.monotonic() - start < 120


def test_identity_evaluation_is_exactly_perfect():
    with criterion("truth-vs-truth corpus evaluation is exact: "
                   "error rates 0, precisions/recalls 1, shifts 0"):
        entries = manifest_entries()
        report = evaluate_corpus(CORPUS, CORPUS, entries)
        assert report.coverage == 1
        assert report.warnings == []
        assert report.tally.ter == 0
        tier1 = report.tally
        assert tier1.aggregate_precision == 1
        assert tier1.aggregate_recall == 1
        for label, tally in tier1.classes.items():
            assert tally.precision == 1, label
            assert tally.recall == 1, label
        t3 = report.tally.tier3
        assert t3.missed_note_rate == 0
        assert t3.false_positive_rate == 0
        assert t3.pitch_precision == 1
        assert t3.time_precision == 1
        assert t3.staff_precision == 1
        assert t3.pitch_shift == 0
        assert t3.time_shift == 0
        assert t3.staff_shift == 0


def test_error_rate_boundaries():
    with criterion("empty prediction rates exactly 1; one relabeled leaf "
                   "out of five nodes rates exactly 0.200"):
        for entry in manifest_entries():
            w = corpus_work(entry)
            for part in w.parts:
                for m in part.measures:
                    ev = evaluate_measure(m, None)
                    assert ev.cost / ev.truth_size == 1, m.id
        motif = parse_work((CORPUS / "motif.mtn.xml").read_bytes())
        relabeled, changed = relabel_fraction(motif, "dyn_p", "dyn_f",
                                              Fraction(1))
        assert changed == 1
        script = tree_edit_distance(
            project_tree(motif.parts[0].measures[0]),
            project_tree(relabeled.parts[0].measures[0]), UNIT_COSTS)
        rate = Fraction(script.cost) / script.a_size
        assert script.a_size == 5
        assert script.substitutions == 1
        assert rate == Fraction(1, 5)
        assert float(rate) == 0.200


def test_controlled_relabel_recall(tmp_path):
    with criterion("relabeling exactly 10% of black noteheads gives "
                   "recall 9/10 and the hand-computed weighted aggregates"):
        entries = manifest_entries()
        pred_root = tmp_path / "pred"
        pred_root.mkdir()
        total_changed = 0
        for entry in entries:
            w = corpus_work(entry)
            out, changed = relabel_fraction(w, "notehead_black",
                                            "notehead_white",
                                            Fraction(1, 10))
            total_changed += changed
            (pred_root / entry.path).write_bytes(serialize_work(out))
        # the corpus holds 20 black noteheads, 10 per work that has any
        assert total_changed == 2
        report = evaluate_corpus(CORPUS, pred_root, entries)
        tier1 = report.tally
        black = tier1.classes["notehead_black"]
        assert black.recall == Fraction(9, 10)
        assert black.precision == 1
        # 65 tokens total; only the 2 relabeled blacks lose their match,
        # so weighted recall is 63/65. The 2 stray whites meet 2 real
        # ones (precision 1/2 at weight 2/65), so precision is 64/65.
        assert tier1.aggregate_recall == Fraction(63, 65)
        assert tier1.aggregate_precision == Fraction(64, 65)
        assert tier1.undefined_precision == ()


def five_black_measure(last_step):
    return measure(
        treble_attributes(),
        group(simple_chord(4, 0), simple_chord(5, Fraction(1, 2)),
              simple_chord(6, 1), simple_chord(7, Fraction(3, 2)), beams=1),
        group(simple_chord(last_step, 2)),
        barline(onset=4),
        id="m1", line_start=True)


def test_single_step_substitution_cost():
    with criterion("moving one matched notehead by one step adds exactly "
                   "1/2 edit cost and 1/|M| step-precision loss"):
        truth = work(five_black_measure(8)).parts[0].measures[0]
        moved = work(five_black_measure(9)).parts[0].measures[0]
        g, p = project_tree(truth), project_tree(moved)
        same = tree_edit_distance(g, g, SEMANTIC_COSTS).cost
        delta = tree_edit_distance(g, p, SEMANTIC_COSTS).cost
        assert same == 0
        assert delta == Fraction(1, 2)
        counts = tier3_counts(g, p)
        assert counts.matched == 5
        assert counts.step_precision == 1 - Fraction(1, counts.matched)
        assert counts.pitch_shift == Fraction(1, 5)


def test_round_trips_and_determinism():
    with criterion("parse/serialize is a fixed point on 100 random works; "
                   "conversion and reports are byte-stable for any job "
                   "count 1..8"):
        rng = random.Random(99)
        for _ in range(100):
            w = random_work_checked(rng)
            data = serialize_work(w)
            again = parse_work(data)
            assert again == w
            assert serialize_work(again) == data
        assert (serialize_work(convert_path(TORTURE).work)
                == serialize_work(convert_path(TORTURE).work))
        entries = manifest_entries()
        reports = {
            report_to_json(evaluate_corpus(CORPUS, CORPUS, entries,
                                           EvalConfig(jobs=jobs)))
            for jobs in range(1, 9)
        }
        assert len(reports) == 1


def test_converted_onsets_are_exact_rationals():
    with criterion("converted onsets equal hand-computed rationals, "
                   "third-of-a-beat grid included"):
        result = convert_path(TORTURE)
        m = result.work.parts[0].measures[0]
        assert chord_onsets(m) == [
            Fraction(0), Fraction(0), Fraction(3, 2), Fraction(2),
            Fraction(2), Fraction(7, 3), Fraction(8, 3)]
        bar = next(c for c in m.children
                   if not isinstance(c, Token) and c.kind == BARLINE)
        assert bar.onset == 3


def test_reference_constants_and_report_columns():
    with criterion("large-scale baseline figures ship as documented "
                   "constants and the report renders their columns"):
        assert REFERENCE_BASELINE["ter"] == 0.372
        assert REFERENCE_BASELINE["coverage"] == 0.769
        assert REFERENCE_BASELINE["aggregate_precision"] == 0.894
        assert REFERENCE_BASELINE["aggregate_recall"] == 0.733
        report = evaluate_corpus(CORPUS, CORPUS, manifest_entries())
        text = render_report(report)
        for column in ("Class", "Precision", "Recall", "Counts", "Prop",
                       "TER", "Time Shift", "Pitch Shift", "Staff Shift",
                       "Time Prec.", "Pitch Prec.", "Staff Prec.",
                       "FPR", "MNR"):
            assert column in text, column
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        for figure in ("0.372", "76.9", "0.894", "0.733"):
            assert figure in readme, figure
