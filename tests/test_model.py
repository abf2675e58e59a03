"""Model constraints and the validator."""

from dataclasses import replace
from fractions import Fraction

import pytest

import builders as B
from mtnkit.model import (
    BARLINE, CHORD, CLEF, DIRECTION, MTNWork, NOTE, NOTE_GROUP, Node, Part,
    StaffPosition, Token, iter_tokens, map_tokens, validate,
)


def rules(work):
    return {v.rule for v in validate(work)}


def found(rule, *children):
    """(subject, message) of each violation of rule in a one-measure work."""
    w = B.work(B.measure(*children), normalize=False)
    return [(v.subject, v.message) for v in validate(w) if v.rule == rule]


def test_standard_work_is_valid():
    assert validate(B.standard_work()) == []


def test_duplicate_token_id():
    t1 = Token("t1", "rest_quarter", StaffPosition(1))
    t2 = Token("t1", "rest_quarter", StaffPosition(1))
    m = B.measure(Node("rest", (t1,), onset=Fraction(0)),
                  Node("rest", (t2,), onset=Fraction(1)))
    w = B.work(m, normalize=False)
    assert "duplicate-token-id" in rules(w)


def test_duplicate_measure_id():
    w = B.work(B.standard_measure("m1"), B.standard_measure("m1"),
               normalize=False)
    assert "duplicate-measure-id" in rules(w)


def test_unknown_label():
    m = B.measure(Node("rest", (B.tok("rest_quarterX"),), onset=Fraction(0)))
    assert "unknown-label" in rules(B.work(m, normalize=False))
    assert found(
        "unknown-label",
        Node(DIRECTION, (Token("u1", "dyn_zzz", StaffPosition(1)),),
             onset=Fraction(0)),
    ) == [("u1", "label dyn_zzz is not in the vocabulary")]


def test_chord_with_two_stems_cites_the_chord():
    bad = Node(CHORD, (B.stem("stem_up"), B.stem("stem_down"), B.note()),
               onset=Fraction(0))
    m = B.measure(B.group(bad))
    out = validate(B.work(m, normalize=False))
    hits = [v for v in out if v.rule == "chord-stems"]
    assert len(hits) == 1
    assert hits[0].subject.startswith("m1/")


def test_note_requires_exactly_one_notehead():
    empty_note = Node(NOTE, (B.tok("dot"),))
    m = B.measure(B.group(Node(CHORD, (empty_note,), onset=Fraction(0))))
    assert "note-noteheads" in rules(B.work(m, normalize=False))


def test_pair_id_rules():
    # paired label without pair id
    bad1 = B.measure(B.group(B.simple_chord(
        extras=(Token("q1", "slur_start", StaffPosition(1)),))))
    assert "pair-id-missing" in rules(B.work(bad1, normalize=False))
    # unpaired label with a pair id
    bad2 = B.measure(B.group(B.simple_chord(
        extras=(Token("q2", "dot", StaffPosition(1), pair_id="p9"),))))
    assert "pair-id-forbidden" in rules(B.work(bad2, normalize=False))


def test_pair_multiplicity_three_tokens():
    m1 = B.measure(B.group(B.simple_chord(
        extras=(B.tok("slur_start", pair="pp"),))), id="m1")
    m2 = B.measure(B.group(B.simple_chord(
        extras=(B.tok("slur_stop", pair="pp"),))), id="m2")
    m3 = B.measure(B.group(B.simple_chord(
        extras=(B.tok("slur_stop", pair="pp"),))), id="m3")
    out = validate(B.work(m1, m2, m3, normalize=False))
    hits = [v for v in out if v.rule == "pair-multiplicity"]
    assert len(hits) == 1
    assert hits[0].subject == "pp"


def test_pair_roles_two_starts():
    m1 = B.measure(B.group(B.simple_chord(
        extras=(B.tok("slur_start", pair="pp"),))), id="m1")
    m2 = B.measure(B.group(B.simple_chord(
        extras=(B.tok("slur_start", pair="pp"),))), id="m2")
    assert "pair-roles" in rules(B.work(m1, m2, normalize=False))


def test_wedge_pairing_is_valid():
    m = B.measure(
        B.direction("wedge_crescendo", onset=0, pair="w1"),
        B.direction("wedge_stop", onset=2, pair="w1"))
    assert validate(B.work(m)) == []


def test_step_rules():
    # positioned class without step
    m1 = B.measure(B.group(B.chord(
        Node(NOTE, (Token("a1", "notehead_black", StaffPosition(1)),)),
        stem_node=B.stem())))
    assert "step-required" in rules(B.work(m1, normalize=False))
    # positionless class with step
    m2 = B.measure(Node("rest", (Token("a2", "rest_quarter",
                                       StaffPosition(1, 4)),),
                        onset=Fraction(0)))
    assert "step-forbidden" in rules(B.work(m2, normalize=False))


def test_numeric_value_rules():
    sig = Node("time_sig", (Token("n1", "timesig_number", StaffPosition(1, 8)),))
    m1 = B.measure(B.attributes(B.attr_staff(sig)))
    assert "value-required" in rules(B.work(m1, normalize=False))
    m2 = B.measure(Node("rest", (Token("n2", "rest_quarter", StaffPosition(1),
                                       numeric_value=3),), onset=Fraction(0)))
    assert "value-forbidden" in rules(B.work(m2, normalize=False))


def test_onset_rules():
    no_onset = Node("rest", (B.tok("rest_quarter"),))
    assert "missing-onset" in rules(B.work(B.measure(no_onset), normalize=False))
    negative = Node("rest", (B.tok("rest_quarter"),), onset=Fraction(-1))
    assert "negative-onset" in rules(B.work(B.measure(negative), normalize=False))
    timed_note = Node(NOTE, (B.tok("notehead_black", step=0),),
                      onset=Fraction(0))
    m = B.measure(B.group(Node(CHORD, (B.stem(), timed_note),
                               onset=Fraction(0))))
    assert "onset-not-allowed" in rules(B.work(m, normalize=False))


def test_field_types():
    # staff, step and numeric value must be ints, a bool is not one, and a
    # mistyped staff is not range-checked
    sig = Node("time_sig", (Token("n1", "timesig_number", StaffPosition(1),
                                  numeric_value="4"),))
    assert found(
        "field-type",
        B.attributes(B.attr_staff(sig)),
        B.group(B.chord(B.note(), stem_node=Node("stem", (
            Token("s1", "stem_up", StaffPosition(True)),)))),
        Node("rest", (Token("r1", "rest_quarter", StaffPosition("0")),),
             onset=Fraction(2)),
        B.group(B.chord(Node(NOTE, (Token("h1", "notehead_black",
                                          StaffPosition(1, "<x")),)),
                        onset=3, stem_node=B.stem())),
        B.group(B.chord(Node(NOTE, (Token("h2", "notehead_black",
                                          StaffPosition(1, False)),)),
                        onset=4, stem_node=B.stem())),
    ) == [("n1", "numeric_value '4' is not an int"),
          ("s1", "staff True is not an int"),
          ("r1", "staff '0' is not an int"),
          ("h1", "step '<x' is not an int"),
          ("h2", "step False is not an int")]
    w = MTNWork("w", (Part("2", (B.measure(B.rest(onset=0)),)),))
    assert rules(w) == {"field-type"}


def test_onset_types():
    # an onset that is neither an int nor a Fraction is a violation, not a
    # traceback from the sign check or from ordering the measure
    assert found(
        "field-type",
        Node("rest", (B.tok("rest_quarter"),), onset="-1"),
        Node("rest", (B.tok("rest_quarter"),), onset=1.5),
        Node("rest", (B.tok("rest_quarter"),), onset=True),
        Node("rest", (B.tok("rest_quarter"),), onset=3),
    ) == [("m1/0", "onset '-1' is neither an int nor a Fraction"),
          ("m1/1", "onset 1.5 is neither an int nor a Fraction"),
          ("m1/2", "onset True is neither an int nor a Fraction")]
    w = B.work(B.measure(Node("rest", (B.tok("rest_quarter"),), onset="x"),
                         B.rest(onset=0)), normalize=False)
    assert rules(w) == {"field-type"}


def test_serialize_refuses_a_mistyped_step():
    from mtnkit.xmlio import InvalidWorkError, serialize_work
    bad = Token("t1", "notehead_black", StaffPosition(1, "<x"))
    w = B.work(B.measure(B.group(B.chord(Node(NOTE, (bad,)),
                                         stem_node=B.stem()))),
               normalize=False)
    with pytest.raises(InvalidWorkError, match="field-type"):
        serialize_work(w)


def test_child_kind_rules():
    # rest token directly under a note group
    m = B.measure(Node("note_group", (B.tok("rest_quarter"),
                                      B.simple_chord()), onset=Fraction(0)))
    assert "child-kind" in rules(B.work(m, normalize=False))
    # a chord and a token under a measure, a rest node under a note group
    assert found(
        "child-kind",
        B.simple_chord(onset=0),
        Node(NOTE_GROUP, (B.simple_chord(onset=1), B.rest(onset=1)),
             onset=Fraction(1)),
        B.tok("rest_quarter"),
    ) == [("m1/0", "chord not allowed under a measure"),
          ("m1/1/1", "rest not allowed under note_group"),
          ("m1/2", "token rest_quarter not allowed under a measure")]


def test_staff_range():
    m = B.measure(B.group(B.simple_chord(staff=3)))
    w = MTNWork("w", (Part(2, (m,)),))
    assert "staff-range" in rules(w)


def test_staff_count_positive():
    w = MTNWork("w", (Part(0, ()),))
    assert "staff-count" in rules(w)


def test_non_canonical_order_detected():
    late = B.group(B.simple_chord(onset=2))
    early = B.rest(onset=0)
    w = B.work(B.measure(late, early), normalize=False)
    assert "non-canonical" in rules(w)


def test_synthetic_only_on_attributes():
    m = B.measure(Node("rest", (B.tok("rest_quarter"),), onset=Fraction(0),
                       synthetic=True))
    assert "synthetic-not-allowed" in rules(B.work(m, normalize=False))


def test_random_works_validate_clean():
    import random
    rng = random.Random(31337)
    for i in range(25):
        B.random_work_checked(rng, f"w{i}")


def test_chord_without_a_note():
    assert found("chord-notes", B.group(B.chord(stem_node=B.stem()))) == [
        ("m1/0/0", "chord has no note")]


def test_stem_holds_exactly_one_direction():
    flag_only = Node(CHORD, (Node("stem", (B.tok("flag"),)), B.note()),
                     onset=Fraction(0))
    assert found("stem-tokens", B.group(flag_only)) == [
        ("m1/0/0/0", "stem has 0 direction tokens, wants exactly 1")]


def test_direction_holds_exactly_one_token():
    assert found(
        "direction-tokens",
        Node(DIRECTION, (B.tok("dyn_p"), B.tok("dyn_f")), onset=Fraction(0)),
        Node(DIRECTION, (), onset=Fraction(1)),
    ) == [("m1/0", "direction holds exactly one token"),
          ("m1/1", "direction holds exactly one token")]


def test_note_group_without_chords():
    assert found("group-empty",
                 Node(NOTE_GROUP, (B.tok("beam"),), onset=Fraction(0))) == [
        ("m1/0", "note group has no chords")]


def test_empty_structural_nodes():
    assert found(
        "node-empty",
        B.attributes(B.attr_staff(Node(CLEF, ()))),
        Node("barline", (), onset=Fraction(4)),
    ) == [("m1/0/0/0", "clef has no children"),
          ("m1/1", "barline has no children")]


# -- map_tokens ---------------------------------------------------------------

def test_map_tokens_calls_fn_in_document_order():
    w = B.standard_work(n_measures=3)
    seen = []

    def record(tok):
        seen.append(tok)
        return tok

    assert map_tokens(w, record) == w
    assert seen == list(iter_tokens(w))
    assert [t.id for t in seen] == [f"t{i + 1}" for i in range(len(seen))]


def test_map_tokens_drops_none_and_the_nodes_it_empties():
    dyn = B.direction("dyn_p", onset=0)
    lower, upper = B.note(step=2), B.note(step=6)
    both = B.chord(lower, upper, onset=1, stem_node=B.stem())
    lone = B.simple_chord(step=4, onset=2)
    w = B.work(B.measure(dyn, B.group(both), B.group(lone)),
               normalize=False)
    gone = {dyn.children[0], upper.children[0], *iter_tokens(lone)}
    out = map_tokens(w, lambda tok: None if tok in gone else tok)
    # the direction, the upper note and the whole second group are gone
    assert out.parts[0].measures[0].children == (
        B.group(replace(both, children=(both.children[0], lower))),)


def test_map_tokens_keeps_empty_nodes_and_every_measure():
    empty = Node(BARLINE, (), onset=Fraction(4))
    w = B.work(B.measure(B.rest(onset=0), empty, id="m1"),
               B.measure(B.direction("dyn_f", onset=0), id="m2"),
               normalize=False)
    out = map_tokens(w, lambda tok: None)
    assert [(m.id, m.children) for m in out.parts[0].measures] == [
        ("m1", (empty,)), ("m2", ())]
    assert map_tokens(w, lambda tok: tok) == w
