"""Canonical reading order: the documented sort criteria, idempotence, and
construction-order independence."""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

import builders as B
from mtnkit.canonical import (
    CanonicalizeError, assign_ids, canonicalize, canonicalize_work,
)
from mtnkit.model import Measure, Node
from mtnkit.musicxml import convert_path
from mtnkit.xmlio import parse_work
from oracles import reference_canonicalize

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def kinds(measure):
    return [c.kind for c in measure.children]


def onsets(measure):
    return [c.onset for c in measure.children]


def test_onset_before_class():
    m = B.measure(
        B.barline(onset=4),
        B.rest(onset=2),
        B.group(B.simple_chord(onset=0)))
    out = canonicalize(m)
    assert onsets(out) == [Fraction(0), Fraction(2), Fraction(4)]


def test_class_rank_at_equal_onset():
    m = B.measure(
        B.barline(onset=0),
        B.group(B.simple_chord(onset=0)),
        B.rest(onset=0),
        B.direction(onset=0),
        B.treble_attributes(onset=0))
    out = canonicalize(m)
    assert kinds(out) == ["attributes", "direction", "rest", "note_group",
                          "barline"]


def test_staff_then_step_at_equal_onset_and_class():
    lower_staff = B.group(B.simple_chord(onset=0, staff=2, step=4))
    upper_staff_high = B.group(B.simple_chord(onset=0, staff=1, step=8))
    upper_staff_low = B.group(B.simple_chord(onset=0, staff=1, step=4))
    m = B.measure(lower_staff, upper_staff_high, upper_staff_low)
    out = canonicalize(m)
    got = [(c.children[-1].children[-1].children[0].position.staff,
            c.children[-1].children[-1].children[0].position.step)
           for c in out.children]
    assert got == [(1, 4), (1, 8), (2, 4)]


def test_stem_direction_tiebreak():
    down = B.group(B.simple_chord(onset=0, step=6, direction="stem_down"))
    up = B.group(B.simple_chord(onset=0, step=6, direction="stem_up"))
    m = B.measure(down, up)
    out = canonicalize(m)
    first_stem = [t.label for t in
                  out.children[0].children[0].children[0].children][0]
    assert first_stem == "stem_up"


def test_token_alphabetical_tiebreak():
    # two positionless tokens on one note: accent before dot before staccato
    extras = (B.tok("staccato"), B.tok("dot"), B.tok("accent"))
    m = B.measure(B.group(B.simple_chord(extras=extras)))
    out = canonicalize(m)
    note = out.children[0].children[0].children[-1]
    labels = [t.label for t in note.children]
    assert labels == ["notehead_black", "accent", "dot", "staccato"]


def test_positioned_tokens_before_positionless():
    extras = (B.tok("dot"), B.tok("accidental_sharp", step=6))
    m = B.measure(B.group(B.simple_chord(step=6, extras=extras)))
    note = canonicalize(m).children[0].children[0].children[-1]
    labels = [t.label for t in note.children]
    assert labels == ["accidental_sharp", "notehead_black", "dot"]


def test_chord_stem_first_then_notes_low_to_high():
    ch = B.chord(B.note(step=8), B.note(step=4), B.note(step=6),
                 stem_node=B.stem())
    m = B.measure(B.group(ch))
    out = canonicalize(m).children[0].children[0]
    assert out.children[0].kind == "stem"
    steps = [n.children[0].position.step for n in out.children[1:]]
    assert steps == [4, 6, 8]


def test_attr_staff_clef_key_timesig_order():
    sig = Node("time_sig", (B.tok("timesig_common"),))
    key = Node("key", (B.tok("accidental_sharp", step=10),))
    clef = B.clef_node()
    m = B.measure(B.attributes(B.attr_staff(sig, key, clef)))
    out = canonicalize(m)
    block = out.children[0].children[0]
    assert [c.kind for c in block.children] == ["clef", "key", "time_sig"]


def test_attributes_staves_top_down():
    m = B.measure(B.attributes(
        B.attr_staff(B.clef_node("clef_F", staff=2, step=8)),
        B.attr_staff(B.clef_node("clef_G", staff=1, step=4))))
    out = canonicalize(m)
    staves = [blk.children[0].children[0].position.staff
              for blk in out.children[0].children]
    assert staves == [1, 2]


def test_beam_tokens_before_group_content():
    g = Node("note_group",
             (B.simple_chord(onset=0), B.tok("beam"), B.simple_chord(onset=Fraction(1, 2))),
             onset=Fraction(0))
    out = canonicalize(B.measure(g))
    labels = ["beam" if not isinstance(c, Node) else c.kind
              for c in out.children[0].children]
    assert labels == ["beam", "chord", "chord"]


def test_every_permutation_reaches_the_same_measure():
    parts = [B.treble_attributes(), B.rest(onset=0),
             B.group(B.simple_chord(onset=0, step=4)),
             B.direction("dyn_f", onset=0)]
    outs = set()
    for perm in itertools.permutations(parts):
        outs.add(canonicalize(B.measure(*perm)))
    assert len(outs) == 1


def test_idempotent():
    rng = random.Random(2024)
    for i in range(30):
        m = B.random_measure(rng, f"m{i}")
        once = canonicalize(m)
        assert canonicalize(once) == once


def test_canonicalize_is_sorting_only():
    # same multiset of children before and after
    rng = random.Random(7)
    for i in range(20):
        m = B.random_measure(rng, f"m{i}")
        out = canonicalize(m)
        assert sorted(map(repr, m.children)) == sorted(map(repr, out.children))


def test_assign_ids_renumbers_in_document_order():
    w = B.standard_work(1)
    ids = [t.id for t in __import__("mtnkit.model", fromlist=["iter_tokens"])
           .iter_tokens(w)]
    assert ids == [f"t{i + 1}" for i in range(len(ids))]


def test_assign_ids_pairs_in_first_appearance_order():
    m1 = B.measure(B.group(B.simple_chord(
        extras=(B.tok("slur_start", pair="zz"),))), id="m1")
    m2 = B.measure(B.group(B.simple_chord(
        extras=(B.tok("slur_stop", pair="zz"),),
        onset=0)), id="m2")
    w = B.work(m1, m2)
    from mtnkit.model import iter_tokens
    pair_ids = [t.pair_id for t in iter_tokens(w) if t.pair_id]
    assert pair_ids == ["p1", "p1"]


def test_construction_order_independence_end_to_end():
    rng = random.Random(99)
    for i in range(20):
        m = B.random_measure(rng, "m1")
        shuffled_children = list(m.children)
        rng.shuffle(shuffled_children)
        m2 = Measure(m.id, tuple(shuffled_children), m.line_start)
        a = assign_ids(canonicalize_work(B.work(m, normalize=False)))
        b = assign_ids(canonicalize_work(B.work(m2, normalize=False)))
        assert a == b


def fixture_measures():
    measures = []
    for path in sorted((FIXTURES / "corpus").glob("*.mtn.xml")):
        warnings = []
        work = parse_work(path.read_bytes(), on_warning=warnings.append)
        assert warnings == []
        measures += [m for part in work.parts for m in part.measures]
    for path in sorted((FIXTURES / "musicxml").glob("*.musicxml")):
        work = convert_path(path).work
        measures += [m for part in work.parts for m in part.measures]
    return measures


def test_canonical_measures_come_back_unchanged():
    measures = fixture_measures()
    assert measures
    for m in measures:
        assert canonicalize(m) is m


def _shuffled(item, rng):
    """item with every sibling list below it shuffled."""
    children = [_shuffled(c, rng) if isinstance(c, Node) else c
                for c in item.children]
    rng.shuffle(children)
    return item._replace(children=tuple(children))


def test_random_works_canonicalize_whatever_the_construction_order():
    rng = random.Random(4711)
    for i in range(40):
        work = B.random_work_checked(rng, f"w{i}")
        for m in (m for part in work.parts for m in part.measures):
            assert canonicalize(m) is m
            once = canonicalize(_shuffled(m, rng))
            assert once == m
            assert canonicalize(once) is once


def _group_at_zero(*children):
    return Node("note_group", children, onset=Fraction(0))


def _beam_only_group():
    return _group_at_zero(B.tok("beam"))


# case -> (measure builder, whether canonicalize raises)
FAILURE_CASES = {
    "well-formed": (B.standard_measure, False),
    "top-level-node-without-onset": (
        lambda: B.measure(Node("rest", (B.tok("rest_quarter"),))), True),
    "chord-without-onset-in-group": (
        lambda: B.measure(_group_at_zero(B.simple_chord(onset=None))), True),
    "chord-without-onset-in-nested-group": (
        lambda: B.measure(_group_at_zero(
            B.simple_chord(onset=0),
            _group_at_zero(B.simple_chord(onset=None)))), True),
    "beam-only-group-at-top-level": (
        lambda: B.measure(_beam_only_group()), False),
    "beam-only-group-nested": (
        lambda: B.measure(_group_at_zero(
            B.simple_chord(onset=0), _beam_only_group())), True),
    "empty-stem-in-chord-in-group": (
        lambda: B.measure(B.group(B.chord(
            B.note(step=4), onset=0, stem_node=Node("stem", ())))), True),
    "empty-direction": (
        lambda: B.measure(Node("direction", (), onset=Fraction(0))), True),
    "empty-attr-staff": (
        lambda: B.measure(B.attributes(B.attr_staff())), True),
    "token-under-measure": (
        lambda: B.measure(B.rest(onset=0), B.tok("barline_tok_regular")),
        True),
}


@pytest.mark.parametrize("case", sorted(FAILURE_CASES))
def test_which_measures_cannot_be_ordered(case):
    build, raises = FAILURE_CASES[case]
    if raises:
        with pytest.raises(CanonicalizeError):
            canonicalize(build())
    else:
        canonicalize(build())


_EXTRAS = [("dot", None), ("staccato", None), ("accent", None),
           ("fermata", None), ("accidental_sharp", 0), ("accidental_flat", 0),
           ("slur_start", None), ("tied_stop", None)]


def _rich_note(rng, staff, step):
    extras = []
    for label, at in rng.sample(_EXTRAS, rng.randint(0, 2)):
        pair = "p1" if label in ("slur_start", "tied_stop") else None
        extras.append(B.tok(label, staff, None if at is None else step,
                            pair=pair))
    if rng.random() < 0.05:  # a stem direction outside a stem
        extras.append(B.tok(rng.choice(["stem_up", "stem_down"]), staff))
    head = rng.choice(["notehead_black", "notehead_white"])
    return B.note(head, step, staff, tuple(extras))


def _rich_chord(rng, onset, staff):
    steps = rng.sample(range(-2, 14), rng.randint(1, 3))
    notes = [_rich_note(rng, staff, step) for step in steps]
    stem = None
    if rng.random() < 0.8:
        stem = B.stem(rng.choice(["stem_up", "stem_down"]),
                      rng.randint(0, 2), staff)
    elif rng.random() < 0.5:  # no stem, but a note of one direction token
        notes.append(Node("note", (B.tok(
            rng.choice(["stem_up", "stem_down"]), staff),)))
    return B.chord(*notes, onset=onset, stem_node=stem)


def _rich_group(rng, onset, staff, depth=0):
    members = [_rich_chord(rng, onset + Fraction(i, 2), staff)
               for i in range(rng.randint(1, 3))]
    if rng.random() < 0.3:  # a second voice at the first chord's onset
        members.append(_flip_stems(members[0]))
    if depth == 0 and rng.random() < 0.3:
        nested = _rich_group(rng, onset + Fraction(1, 4), staff, 1)
        # a nested group is ordered by its earliest chord, not its onset
        members.append(nested._replace(onset=rng.choice(
            [nested.onset, Fraction(0), Fraction(3)])))
    return B.group(*members, beams=rng.randint(0, 2), staff=staff)


def _rich_attributes(rng):
    blocks = []
    for staff in rng.sample([1, 2], rng.randint(1, 2)):
        kids = [B.clef_node(rng.choice(["clef_G", "clef_F"]), staff,
                            rng.choice([4, 8]))]
        if rng.random() < 0.5:
            kids.append(Node("key", tuple(
                B.tok("accidental_sharp", staff, step)
                for step in rng.sample(range(4, 12), rng.randint(1, 3)))))
        if rng.random() < 0.5:
            kids.append(Node("time_sig", (
                B.tok("timesig_number", staff, 8, value=rng.choice([2, 3])),
                B.tok("timesig_number", staff, 4, value=4))))
        rng.shuffle(kids)
        blocks.append(B.attr_staff(*kids))
    return B.attributes(*blocks, onset=rng.choice([0, 2]),
                        synthetic=rng.random() < 0.3)


def _flip_stems(item):
    if isinstance(item, Node):
        return item._replace(children=tuple(map(_flip_stems, item.children)))
    flipped = {"stem_up": "stem_down", "stem_down": "stem_up"}
    return item._replace(label=flipped.get(item.label, item.label))


def rich_measure(rng, mid):
    """A measure holding every node kind at a few shared onsets, on two
    staves, with chords, modifiers, flags, beams and nested groups, and
    now and then a stem direction token inside a note."""
    children = []
    for _ in range(rng.randint(2, 7)):
        onset = rng.choice([0, Fraction(1, 2), 1, 2])
        staff = rng.choice([1, 1, 2])
        kind = rng.random()
        if kind < 0.4:
            group = _rich_group(rng, onset, staff)
            children.append(group)
            if rng.random() < 0.3:  # the same group, stems flipped
                children.append(_flip_stems(group))
        elif kind < 0.55:
            extras = (B.tok("dot", staff),) if rng.random() < 0.3 else ()
            children.append(B.rest(rng.choice(["rest_quarter", "rest_half"]),
                                   onset, staff, extras))
        elif kind < 0.7:
            children.append(B.direction(
                rng.choice(["dyn_p", "dyn_f", "dyn_mf"]), onset, staff))
        elif kind < 0.85:
            children.append(B.barline(onset, rng.choice(
                ["barline_tok_regular", "barline_tok_heavy"]), staff))
        else:
            children.append(_rich_attributes(rng))
    return B.measure(*children, id=mid)


def test_reference_canonicalizer_agrees_on_shuffled_measures():
    rng = random.Random(5150)
    measures = fixture_measures() + [B.standard_measure()]
    measures += [B.random_measure(rng, f"m{i}") for i in range(40)]
    measures += [rich_measure(rng, f"m{i}") for i in range(150)]
    moved = 0
    for m in measures:
        for given in (m, _shuffled(m, rng), _shuffled(m, rng)):
            out = canonicalize(given)
            expected = reference_canonicalize(given)
            assert out == expected
            # returned itself exactly when already in canonical order
            assert (out is given) == (expected == given)
            moved += out is not given
            assert canonicalize(out) is out
    assert 0 < moved < 3 * len(measures)


@pytest.mark.parametrize("case", sorted(FAILURE_CASES))
def test_reference_canonicalizer_agrees_on_errors(case):
    build, _ = FAILURE_CASES[case]
    measure = build()
    try:
        expected = reference_canonicalize(measure)
    except CanonicalizeError as error:
        with pytest.raises(CanonicalizeError) as raised:
            canonicalize(measure)
        assert type(raised.value) is CanonicalizeError
        assert str(raised.value) == str(error)
    else:
        assert canonicalize(measure) == expected
