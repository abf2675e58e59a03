"""Perturbation tests: exact counts, even spread, determinism."""

from fractions import Fraction

import pytest

from builders import direction, group, measure, simple_chord, work
from mtnkit.model import Token, validate
from mtnkit.perturb import relabel_fraction, shift_step_fraction
from mtnkit.xmlio import serialize_work


def black_head_work(n):
    chords = [group(simple_chord(k % 8, k)) for k in range(n)]
    return work(measure(*chords, id="m1"))


def labels_of(w):
    out = []

    def walk(node):
        for child in node.children:
            if isinstance(child, Token):
                out.append(child.label)
            else:
                walk(child)
    for part in w.parts:
        for m in part.measures:
            for child in m.children:
                walk(child)
    return out


def test_relabel_exact_tenth():
    out, changed = relabel_fraction(black_head_work(20), "notehead_black",
                                    "notehead_white", Fraction(1, 10))
    assert changed == 2
    labels = labels_of(out)
    assert labels.count("notehead_white") == 2
    assert labels.count("notehead_black") == 18
    assert validate(out) == []


def test_relabel_count_is_floor_of_n_times_f():
    cases = [(9, Fraction(1, 10), 0), (10, Fraction(1, 10), 1),
             (25, Fraction(1, 10), 2), (7, Fraction(1, 3), 2),
             (5, Fraction(1), 5), (5, Fraction(0), 0)]
    for n, frac, want in cases:
        _, changed = relabel_fraction(black_head_work(n), "notehead_black",
                                      "notehead_white", frac)
        assert changed == want, (n, frac)


def test_relabel_spreads_evenly():
    out, _ = relabel_fraction(black_head_work(20), "notehead_black",
                              "notehead_white", Fraction(1, 10))
    heads = [lab for lab in labels_of(out) if lab.startswith("notehead")]
    hit = [i for i, lab in enumerate(heads) if lab == "notehead_white"]
    assert hit == [9, 19]


def test_relabel_deterministic():
    runs = [relabel_fraction(black_head_work(20), "notehead_black",
                             "notehead_white", Fraction(3, 10))[0]
            for _ in range(2)]
    assert serialize_work(runs[0]) == serialize_work(runs[1])


def test_relabel_restores_canonical_order():
    w = work(measure(direction("dyn_f", 0), direction("dyn_p", 0), id="m1"))
    out, changed = relabel_fraction(w, "dyn_f", "dyn_pp", Fraction(1))
    assert changed == 1
    assert validate(out) == []
    first = out.parts[0].measures[0].children[0]
    assert first.children[0].label == "dyn_p"


def test_shift_step_moves_heads():
    out, changed = shift_step_fraction(black_head_work(4), "notehead_black",
                                       2, Fraction(1))
    assert changed == 4
    steps = []

    def walk(node):
        for child in node.children:
            if isinstance(child, Token):
                if child.label == "notehead_black":
                    steps.append(child.position.step)
            else:
                walk(child)
    for child in out.parts[0].measures[0].children:
        walk(child)
    assert sorted(steps) == [2, 3, 4, 5]
    assert validate(out) == []


def test_fraction_out_of_range():
    w = black_head_work(2)
    for bad in (Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            relabel_fraction(w, "notehead_black", "notehead_white", bad)


def test_missing_class_changes_nothing():
    w = black_head_work(3)
    out, changed = relabel_fraction(w, "notehead_whole", "notehead_white",
                                    Fraction(1))
    assert changed == 0
    assert serialize_work(out) == serialize_work(w)


def test_shift_step_counts_only_changed_tokens():
    # stem_up is positionless: the shift leaves it as it is, so it counts
    # for nothing; a zero shift changes nothing either.
    w = black_head_work(4)
    out, changed = shift_step_fraction(w, "stem_up", 1, Fraction(1))
    assert changed == 0
    assert serialize_work(out) == serialize_work(w)
    _, changed = shift_step_fraction(w, "notehead_black", 0, Fraction(1))
    assert changed == 0
