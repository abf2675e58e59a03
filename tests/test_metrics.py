"""Metric tests with hand-computed expected values."""

from fractions import Fraction

from builders import (
    chord, direction, group, measure, note, rest, simple_chord,
    standard_measure, tok, work,
)
from mtnkit.metrics import (
    ClassTally, CorpusTally, MeasureEval, Tier3Counts, evaluate_measure,
    tally_terminals, tier3_counts,
)
from mtnkit.model import Measure, Token
from mtnkit.trees import project_tree


def relabel_first(m: Measure, old: str, new: str) -> Measure:
    """Copy of a measure with one token label swapped."""
    done = [False]

    def fix(node):
        kids = []
        for child in node.children:
            if isinstance(child, Token):
                if child.label == old and not done[0]:
                    done[0] = True
                    kids.append(child._replace(label=new))
                else:
                    kids.append(child)
            else:
                kids.append(fix(child))
        return node._replace(children=tuple(kids))

    out = fix(m)
    assert done[0], f"no token labeled {old}"
    return out


def tally_of(*classes: dict[str, ClassTally]) -> CorpusTally:
    """A corpus tally of one measure per class-count dict."""
    tally = CorpusTally()
    for i, tier1 in enumerate(classes):
        tally.add(MeasureEval(f"m{i}", cost=Fraction(0), truth_size=1,
                              tier1=tier1, tier3=Tier3Counts()))
    return tally


# -- tier 1 -------------------------------------------------------------------

def test_tally_perfect():
    m = standard_measure()
    tallies = tally_terminals(project_tree(m), project_tree(m))
    for tally in tallies.values():
        assert tally.matched == tally.truth == tally.predicted


def test_recall_two_thirds():
    truth = measure(group(simple_chord(4, 0)),
                    group(simple_chord(5, 1)),
                    group(simple_chord(6, 2)))
    pred = measure(group(simple_chord(4, 0)),
                   group(simple_chord(5, 1)),
                   group(simple_chord(6, 2, direction="stem_down")))
    tallies = tally_terminals(project_tree(truth), project_tree(pred))
    assert tallies["stem_up"].recall == Fraction(2, 3)
    assert tallies["stem_up"].precision == 1
    assert tallies["stem_down"].truth == 0
    assert tallies["stem_down"].recall is None


def test_matched_is_per_measure_min():
    # same corpus totals, different measures: matching cannot cross measures
    t1 = measure(group(simple_chord(4, 0)), group(simple_chord(5, 1)))
    p1 = measure(group(simple_chord(4, 0)))
    t2 = measure(group(simple_chord(4, 0)), id="m2")
    p2 = measure(group(simple_chord(4, 0)), group(simple_chord(5, 1)),
                 id="m2")
    classes = tally_of(
        tally_terminals(project_tree(t1), project_tree(p1)),
        tally_terminals(project_tree(t2), project_tree(p2))).classes
    heads = classes["notehead_black"]
    assert heads.truth == heads.predicted == 3
    assert heads.matched == 2  # min(2,1) + min(1,2)


def test_aggregate_weights():
    classes = {
        "a": ClassTally(truth=8, predicted=8, matched=8),
        "b": ClassTally(truth=2, predicted=2, matched=1),
    }
    report = tally_of(classes)
    assert report.aggregate_recall == Fraction(9, 10)
    assert report.aggregate_precision == Fraction(8, 10) + \
        Fraction(2, 10) * Fraction(1, 2)


def test_aggregate_undefined_precision():
    classes = {
        "a": ClassTally(truth=9, predicted=9, matched=9),
        "b": ClassTally(truth=1, predicted=0, matched=0),
    }
    report = tally_of(classes)
    assert report.undefined_precision == ("b",)
    assert report.aggregate_precision == Fraction(9, 10)
    assert report.aggregate_recall == Fraction(9, 10)


def test_empty_truth_report():
    report = tally_of({})
    assert report.aggregate_precision is None
    assert report.aggregate_recall is None


def test_missing_prediction_tallies():
    m = standard_measure()
    tallies = tally_terminals(project_tree(m), project_tree(None))
    assert all(t.predicted == 0 for t in tallies.values())
    assert all(t.matched == 0 for t in tallies.values())


# -- tier 2 -------------------------------------------------------------------

def test_ter_zero_on_identity():
    m = standard_measure()
    ev = evaluate_measure(m, m)
    assert ev.cost / ev.truth_size == 0
    assert ev.cost == 0


def test_ter_one_leaf_relabeled():
    # 5-node truth tree: measure -> rest(rest_quarter), direction(dyn_p)
    truth = measure(rest("rest_quarter", onset=0),
                    direction("dyn_p", onset=0))
    pred = relabel_first(truth, "rest_quarter", "rest_half")
    ev = evaluate_measure(truth, pred)
    assert ev.truth_size == 5
    assert ev.cost / ev.truth_size == Fraction(1, 5)


def test_ter_missing_prediction_is_one():
    m = standard_measure()
    ev = evaluate_measure(m, None)
    assert ev.cost / ev.truth_size == 1


def test_ter_corpus_ratio_of_sums():
    tally = CorpusTally()
    tally.add(MeasureEval("a", cost=Fraction(10), truth_size=10,
                          tier1={}, tier3=Tier3Counts()))
    tally.add(MeasureEval("b", cost=Fraction(0), truth_size=90,
                          tier1={}, tier3=Tier3Counts()))
    assert tally.ter == Fraction(1, 10)


# -- tier 3 -------------------------------------------------------------------

def four_note_measure(steps, onsets=None):
    onsets = onsets if onsets is not None else range(len(steps))
    return measure(*[group(simple_chord(step, onset))
                     for step, onset in zip(steps, onsets)])


def test_tier3_perfect():
    m = standard_measure()
    counts = tier3_counts(project_tree(m), project_tree(m))
    assert counts.missed_note_rate == 0
    assert counts.false_positive_rate == 0
    assert counts.pitch_precision == 1
    assert counts.time_precision == 1
    assert counts.pitch_shift == 0
    assert counts.time_shift == 0
    assert counts.staff_shift == 0


def test_tier3_one_step_high():
    truth = four_note_measure([4, 5, 6, 7])
    pred = four_note_measure([4, 5, 6, 8])  # last note a step high
    counts = tier3_counts(project_tree(truth), project_tree(pred))
    assert counts.matched_notes == 4
    assert counts.step_precision == Fraction(3, 4)
    assert counts.pitch_precision == Fraction(3, 4)
    assert counts.staff_precision == 1
    assert counts.pitch_shift == Fraction(1, 4)
    assert counts.staff_shift == 0


def test_tier3_shift_antisymmetry():
    truth = four_note_measure([4, 5, 6, 7])
    pred = four_note_measure([4, 5, 6, 8])
    forward = tier3_counts(project_tree(truth), project_tree(pred))
    backward = tier3_counts(project_tree(pred), project_tree(truth))
    assert forward.pitch_shift == -backward.pitch_shift
    assert forward.time_shift == -backward.time_shift


def test_tier3_missed_notes():
    truth = four_note_measure([4, 5, 6, 7])
    pred = four_note_measure([4, 5])
    counts = tier3_counts(project_tree(truth), project_tree(pred))
    assert counts.truth_events == 4
    assert counts.pred_events == 2
    assert counts.matched == 2
    assert counts.missed_note_rate == Fraction(1, 2)
    assert counts.false_positive_rate == 0


def test_tier3_spurious_notes():
    truth = four_note_measure([4, 5])
    pred = four_note_measure([4, 5, 6, 7])
    counts = tier3_counts(project_tree(truth), project_tree(pred))
    assert counts.false_positive_rate == Fraction(1, 2)
    assert counts.missed_note_rate == 0


def test_tier3_rests_count_as_events():
    truth = measure(rest("rest_quarter", onset=0),
                    group(simple_chord(4, 1)))
    counts = tier3_counts(project_tree(truth), project_tree(truth))
    assert counts.truth_events == 2
    assert counts.matched == 2
    assert counts.matched_notes == 1
    assert counts.time_precision == 1


def test_tier3_rest_and_notehead_never_match():
    # The semantic costs pair rest_quarter with notehead_black, so the edit
    # mapping aligns the dotted rest with the dotted note; a rest event and
    # a note event are no like-for-like pair, so neither is matched.
    truth = measure(rest("rest_quarter", 0, extras=(tok("dot"),)))
    pred = measure(group(chord(note("notehead_black", 4,
                                    extras=(tok("dot"),)))))
    counts = tier3_counts(project_tree(truth), project_tree(pred))
    assert counts.truth_events == 1
    assert counts.pred_events == 1
    assert counts.matched == 0
    assert counts.missed_note_rate == 1
    assert counts.false_positive_rate == 1


def test_tier3_time_shift():
    truth = measure(group(simple_chord(4, 0)), group(simple_chord(5, 1)))
    pred = measure(group(simple_chord(4, 0)),
                   group(simple_chord(5, Fraction(3, 2))))
    counts = tier3_counts(project_tree(truth), project_tree(pred))
    assert counts.time_correct == 1
    assert counts.time_precision == Fraction(1, 2)
    assert counts.time_shift == Fraction(1, 4)  # (0 + 1/2) / 2


def test_tier3_empty_prediction():
    truth = four_note_measure([4, 5, 6, 7])
    counts = tier3_counts(project_tree(truth), project_tree(None))
    assert counts.missed_note_rate == 1
    assert counts.false_positive_rate is None
    assert counts.pitch_precision is None
    assert counts.time_shift is None


def test_tier3_accumulation():
    tally = CorpusTally()
    truth = four_note_measure([4, 5, 6, 7])
    pred = four_note_measure([4, 5, 6, 8])
    tally.add(evaluate_measure(truth, pred))
    tally.add(evaluate_measure(truth, truth))
    assert tally.tier3.matched_notes == 8
    assert tally.tier3.step_precision == Fraction(7, 8)
    assert tally.tier3.pitch_shift == Fraction(1, 8)


# -- combined -----------------------------------------------------------------

def test_corpus_tally_sums_every_count_field():
    # every field holds its own value, so a count left out of the sum or
    # added into another field changes the totals; three records, two
    # added and one merged, so that no such fault cancels itself out
    def ev(scale: int, time_diff: Fraction, **tier1: ClassTally):
        return MeasureEval("m", Fraction(1), 2, tier1, Tier3Counts(
            *(scale * k for k in range(1, 11)), time_diff))

    tally, other = CorpusTally(), CorpusTally()
    tally.add(ev(1, Fraction(1, 2), x=ClassTally(1, 2, 3)))
    tally.add(ev(10, Fraction(1, 3), x=ClassTally(10, 20, 30),
                 y=ClassTally(4, 5, 6)))
    other.add(ev(100, Fraction(1, 5), x=ClassTally(100, 200, 300)))
    tally.merge(other)
    assert tally.classes == {"x": ClassTally(111, 222, 333),
                             "y": ClassTally(4, 5, 6)}
    assert tally.tier3 == Tier3Counts(111, 222, 333, 444, 555, 666, 777,
                                      888, 999, 1110, Fraction(31, 30))


def test_evaluate_measure_fields():
    m = standard_measure()
    ev = evaluate_measure(m, m)
    assert ev.cost == 0
    assert ev.truth_size > 0
    assert ev.measure_id == m.id
    assert ev.tier3.missed_note_rate == 0


def test_truth_vs_truth_full_stack():
    w = work(standard_measure())
    tally = CorpusTally()
    for m in w.parts[0].measures:
        tally.add(evaluate_measure(m, m))
    assert tally.ter == 0
    assert tally.aggregate_precision == 1
    assert tally.aggregate_recall == 1
    assert tally.tier3.missed_note_rate == 0
    assert tally.tier3.false_positive_rate == 0
