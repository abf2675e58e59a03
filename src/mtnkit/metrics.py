"""Three-tier evaluation metrics for predicted measures against truth.

Tier 1 scores primitive detection: per-class precision and recall over
the token leaves of the projections, matched per measure as the minimum
of the two counts. The truth-frequency-weighted aggregates over the summed
classes are properties of CorpusTally.

Tier 2 is the tree error rate: edit distance between the tree projections
under unit costs, normalized by the truth tree size.

Tier 3 reads the semantic-cost edit mapping over the same projections and
scores the matched note events: missed/spurious rates, pitch and staff and
time precision, and signed average shifts. A note event is a notehead or rest leaf; pitch
metrics apply to notehead pairs, time metrics to all matched events. It
runs only when asked, as it alone needs the truth's events timed.

All counts are accumulated corpus-wide and divided once at the end, so
every rate is a ratio of sums, never a mean of per-measure ratios. Rates
are exact fractions; callers format them as floats.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import NamedTuple, TypeVar

from .model import Measure
from .trees import LabeledTree, project_tree, token_counts
from .ted import SEMANTIC_COSTS, UNIT_COSTS, tree_edit_distance

_Counts = TypeVar("_Counts", "ClassTally", "Tier3Counts")  # count records


def rate(num: int | Fraction, den: int) -> Fraction | None:
    """num/den as an exact fraction, or None (undefined) when den is 0."""
    return None if den == 0 else Fraction(num, den)


# ---------------------------------------------------------------------------
# Tier 1: primitive detection.

class ClassTally(NamedTuple):
    """Counts for one token class; _plus sums them across measures."""

    truth: int = 0
    predicted: int = 0
    matched: int = 0

    @property
    def precision(self) -> Fraction | None:
        return rate(self.matched, self.predicted)

    @property
    def recall(self) -> Fraction | None:
        return rate(self.matched, self.truth)


def tally_terminals(truth: LabeledTree, predicted: LabeledTree,
                    include_synthetic: bool = True) -> dict[str, ClassTally]:
    """Per-class counts for one projected measure pair."""
    g = token_counts(truth, include_synthetic=include_synthetic)
    p = token_counts(predicted, include_synthetic=include_synthetic)
    out: dict[str, ClassTally] = {}
    for label in set(g) | set(p):
        out[label] = ClassTally(truth=g.get(label, 0),
                                predicted=p.get(label, 0),
                                matched=min(g.get(label, 0), p.get(label, 0)))
    return out


# ---------------------------------------------------------------------------
# Tier 3: semantic note metrics.

class Tier3Counts(NamedTuple):
    """Note-event counts; _plus sums them, rates are derived properties.

    truth_events/pred_events count notehead and rest leaves; matched is
    |M|. Pitch fields cover only the matched notehead pairs.
    """

    truth_events: int = 0
    pred_events: int = 0
    matched: int = 0
    matched_notes: int = 0
    step_correct: int = 0
    staff_correct: int = 0
    tuple_correct: int = 0
    time_correct: int = 0
    step_diff: int = 0
    staff_diff: int = 0
    time_diff: Fraction = Fraction(0)

    # -- rates -------------------------------------------------------------

    @property
    def missed_note_rate(self) -> Fraction | None:
        return rate(self.truth_events - self.matched, self.truth_events)

    @property
    def false_positive_rate(self) -> Fraction | None:
        return rate(self.pred_events - self.matched, self.pred_events)

    @property
    def pitch_precision(self) -> Fraction | None:
        """Both staff and step correct, over matched notehead pairs."""
        return rate(self.tuple_correct, self.matched_notes)

    @property
    def step_precision(self) -> Fraction | None:
        return rate(self.step_correct, self.matched_notes)

    @property
    def staff_precision(self) -> Fraction | None:
        return rate(self.staff_correct, self.matched_notes)

    @property
    def time_precision(self) -> Fraction | None:
        return rate(self.time_correct, self.matched)

    @property
    def pitch_shift(self) -> Fraction | None:
        return rate(self.step_diff, self.matched_notes)

    @property
    def staff_shift(self) -> Fraction | None:
        return rate(self.staff_diff, self.matched_notes)

    @property
    def time_shift(self) -> Fraction | None:
        return rate(self.time_diff, self.matched)


def tier3_counts(truth: LabeledTree, predicted: LabeledTree) -> Tier3Counts:
    """Score matched note events from the semantic edit mapping.

    Raises the timing error of a truth tree whose events could not be
    timed. A prediction that could not be timed has no events, so every
    truth event counts as missed.
    """
    g, p = truth, predicted
    if g.timing_error is not None:
        raise g.timing_error
    truth_events = sum(1 for n in g.nodes if n.meta is not None)
    if p.timing_error is not None:
        return Tier3Counts(truth_events=truth_events)
    script = tree_edit_distance(g, p, SEMANTIC_COSTS)
    matched = matched_notes = step_correct = staff_correct = 0
    tuple_correct = time_correct = step_diff = staff_diff = 0
    time_diff = Fraction(0)
    for gi, pi in script.mapping:
        gm = g.nodes[gi].meta
        pm = p.nodes[pi].meta
        if gm is None or pm is None or gm.is_rest != pm.is_rest:
            continue  # only like-for-like event pairs enter M
        matched += 1
        time_correct += gm.onset == pm.onset
        time_diff += pm.onset - gm.onset
        if not gm.is_rest:
            matched_notes += 1
            step_correct += gm.step == pm.step
            staff_correct += gm.staff == pm.staff
            tuple_correct += gm.step == pm.step and gm.staff == pm.staff
            step_diff += pm.step - gm.step
            staff_diff += pm.staff - gm.staff
    return Tier3Counts(
        truth_events=truth_events,
        pred_events=sum(1 for n in p.nodes if n.meta is not None),
        matched=matched, matched_notes=matched_notes,
        step_correct=step_correct, staff_correct=staff_correct,
        tuple_correct=tuple_correct, time_correct=time_correct,
        step_diff=step_diff, staff_diff=staff_diff, time_diff=time_diff)


# ---------------------------------------------------------------------------
# Combined per-measure evaluation and corpus accumulation.

class MeasureEval(NamedTuple):
    """Everything the harness needs from one aligned measure pair."""

    measure_id: str
    cost: Fraction
    truth_size: int
    tier1: dict[str, ClassTally]
    tier3: Tier3Counts
    untimed: str | None = None  # why the prediction could not be timed


def evaluate_measure(truth: Measure, predicted: Measure | None,
                     include_synthetic: bool = True,
                     tiers: tuple[int, ...] = (1, 2, 3)) -> MeasureEval:
    """The counts of the asked tiers for one measure pair: tier-1 tallies,
    unit edit cost (tier 2) and tier-3 counts. A tier not asked gets its
    empty value, which no report prints. A missing prediction (the empty
    tree) costs one deletion per truth node."""
    g, p = project_tree(truth), project_tree(predicted)
    return MeasureEval(
        measure_id=truth.id,
        cost=(Fraction(tree_edit_distance(g, p, UNIT_COSTS).cost)
              if 2 in tiers else Fraction(0)),
        truth_size=len(g.nodes),
        tier1=tally_terminals(g, p, include_synthetic) if 1 in tiers else {},
        tier3=tier3_counts(g, p) if 3 in tiers else Tier3Counts(),
        untimed=None if p.timing_error is None else str(p.timing_error),
    )


def _plus(a: _Counts, b: _Counts) -> _Counts:
    """The field-by-field sum of two count records of one type."""
    return a._make(map(operator.add, a, b))


class CorpusTally:
    """Ratio-of-sums accumulator over measure evaluations."""

    __slots__ = ("cost", "truth_nodes", "measures", "classes", "tier3")

    def __init__(self) -> None:
        self.cost = Fraction(0)
        self.truth_nodes = 0
        self.measures = 0
        self.classes: dict[str, ClassTally] = {}
        self.tier3 = Tier3Counts()

    def add(self, ev: MeasureEval) -> None:
        self._sum(ev.cost, ev.truth_size, 1, ev.tier1, ev.tier3)

    def merge(self, other: "CorpusTally") -> None:
        self._sum(other.cost, other.truth_nodes, other.measures,
                  other.classes, other.tier3)

    def _sum(self, cost: Fraction, truth_nodes: int, measures: int,
             classes: dict[str, ClassTally], tier3: Tier3Counts) -> None:
        self.cost += cost
        self.truth_nodes += truth_nodes
        self.measures += measures
        for label, tally in classes.items():
            self.classes[label] = _plus(
                self.classes.get(label, ClassTally()), tally)
        self.tier3 = _plus(self.tier3, tier3)

    @property
    def ter(self) -> Fraction | None:
        return rate(self.cost, self.truth_nodes)

    # -- tier-1 aggregates: class weights are truth-count shares ------------

    @property
    def total_truth(self) -> int:
        return sum(t.truth for t in self.classes.values())

    @property
    def aggregate_recall(self) -> Fraction | None:
        """The weighted class recall, which is sum matched / sum truth."""
        return rate(sum(t.matched for t in self.classes.values()),
                    self.total_truth)

    @property
    def aggregate_precision(self) -> Fraction | None:
        """The weighted class precision; a truth class never predicted
        adds zero."""
        total = self.total_truth
        if total == 0:
            return None
        return sum((Fraction(t.truth, total) * t.precision
                    for t in self.classes.values() if t.truth and t.predicted),
                   Fraction(0))

    @property
    def undefined_precision(self) -> tuple[str, ...]:
        """The truth classes never predicted, sorted."""
        return tuple(sorted(label for label, t in self.classes.items()
                            if t.truth and not t.predicted))
