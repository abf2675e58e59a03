"""Builders shared by the test modules.

Compact constructors for tokens, chords, measures and whole works, plus
seeded random generators for labeled trees and valid works. Token ids are
handed out by a per-call counter; call sites that need canonical ids run
assign_ids afterwards.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from mtnkit.canonical import assign_ids, canonicalize_work
from mtnkit.model import (
    ATTR_STAFF, ATTRIBUTES, BARLINE, CHORD, CLEF, DIRECTION, MTNWork,
    Measure, NOTE, NOTE_GROUP, Node, Part, REST, STEM, StaffPosition,
    Token, iter_tokens, map_tokens,
)
from mtnkit.trees import LabeledTree, TreeNode

_ids = itertools.count(1)


def tok(label: str, staff: int = 1, step: int | None = None,
        pair: str | None = None, value: int | None = None) -> Token:
    return Token(f"x{next(_ids)}", label, StaffPosition(staff, step),
                 pair_id=pair, numeric_value=value)


def note(head: str = "notehead_black", step: int = 0, staff: int = 1,
         extras: tuple[Token, ...] = ()) -> Node:
    return Node(NOTE, (tok(head, staff, step),) + extras)


def stem(direction: str = "stem_up", flags: int = 0, staff: int = 1) -> Node:
    toks = (tok(direction, staff),) + tuple(tok("flag", staff) for _ in range(flags))
    return Node(STEM, toks)


def chord(*notes: Node, onset: Fraction | int | None = 0,
          stem_node: Node | None = None) -> Node:
    kids = ((stem_node,) if stem_node is not None else ()) + notes
    return Node(CHORD, kids,
                onset=None if onset is None else Fraction(onset))


def simple_chord(step: int = 0, onset: Fraction | int | None = 0,
                 head: str = "notehead_black", direction: str = "stem_up",
                 flags: int = 0, staff: int = 1,
                 extras: tuple[Token, ...] = ()) -> Node:
    stem_node = None if head in ("notehead_breve",) else stem(direction, flags, staff)
    return chord(note(head, step, staff, extras), onset=onset, stem_node=stem_node)


def group(*children: Node, beams: int = 0, staff: int = 1) -> Node:
    toks = tuple(tok("beam", staff) for _ in range(beams))
    onset = min((c.onset for c in children
                 if c.onset is not None), default=None)
    return Node(NOTE_GROUP, toks + children, onset=onset)


def rest(label: str = "rest_quarter", onset: Fraction | int = 0,
         staff: int = 1, extras: tuple[Token, ...] = ()) -> Node:
    return Node(REST, (tok(label, staff),) + extras,
                onset=Fraction(onset))


def direction(label: str = "dyn_p", onset: Fraction | int = 0,
              staff: int = 1, pair: str | None = None) -> Node:
    return Node(DIRECTION, (tok(label, staff, pair=pair),),
                onset=Fraction(onset))


def clef_node(label: str = "clef_G", staff: int = 1, step: int = 4) -> Node:
    return Node(CLEF, (tok(label, staff, step),))


def attributes(*staff_blocks: Node, onset: Fraction | int = 0,
               synthetic: bool = False) -> Node:
    return Node(ATTRIBUTES, staff_blocks, onset=Fraction(onset),
                synthetic=synthetic)


def attr_staff(*kids: Node) -> Node:
    return Node(ATTR_STAFF, kids)


def treble_attributes(staff: int = 1, onset: Fraction | int = 0,
                      synthetic: bool = False) -> Node:
    return attributes(attr_staff(clef_node("clef_G", staff, 4)),
                      onset=onset, synthetic=synthetic)


def barline(onset: Fraction | int = 4, label: str = "barline_tok_regular",
            staff: int = 1) -> Node:
    return Node(BARLINE, (tok(label, staff),), onset=Fraction(onset))


def measure(*children: Node, id: str = "m1", line_start: bool = False) -> Measure:
    return Measure(id, children, line_start=line_start)


def work(*measures: Measure, staff_count: int = 1,
         work_id: str = "w", normalize: bool = True) -> MTNWork:
    w = MTNWork(work_id, (Part(staff_count, measures),))
    if normalize:
        w = assign_ids(canonicalize_work(w))
    return w


# A small well-formed measure used all over: treble clef, two beamed
# eighths, a quarter rest, a dynamic, and a final barline. 4/4 worth of
# content on one staff.
def standard_measure(id: str = "m1", line_start: bool = True) -> Measure:
    return measure(
        treble_attributes(),
        group(simple_chord(step=6, onset=0),
              simple_chord(step=8, onset=Fraction(1, 2)),
              beams=1),
        rest("rest_quarter", onset=1),
        direction("dyn_p", onset=0),
        group(simple_chord(step=4, onset=2, head="notehead_white")),
        barline(onset=4),
        id=id, line_start=line_start)


def standard_work(n_measures: int = 2, work_id: str = "w") -> MTNWork:
    ms = tuple(standard_measure(f"m{i + 1}", line_start=(i == 0))
               for i in range(n_measures))
    return work(*ms, work_id=work_id)


# ---------------------------------------------------------------------------
# Random generators (seeded by the caller).

def random_tree(rng: random.Random, max_nodes: int = 8,
                labels: str = "abcd") -> LabeledTree:
    n = rng.randint(0, max_nodes)
    if n == 0:
        return LabeledTree(None)

    def build(budget: list[int]) -> TreeNode:
        budget[0] -= 1
        kids = []
        while budget[0] > 0 and rng.random() < 0.6:
            kids.append(build(budget))
        return TreeNode(rng.choice(labels), tuple(kids))

    budget = [n]
    root_kids = []
    budget[0] -= 1
    while budget[0] > 0:
        root_kids.append(build(budget))
    return LabeledTree(TreeNode(rng.choice(labels), tuple(root_kids)))


_STEPS = list(range(-2, 14))


def random_measure(rng: random.Random, mid: str,
                   line_start: bool = False) -> Measure:
    children: list[Node] = []
    if line_start or rng.random() < 0.3:
        children.append(treble_attributes())
    onset = Fraction(0)
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.25:
            children.append(rest(rng.choice(
                ["rest_quarter", "rest_eighth", "rest_half"]), onset=onset))
            onset += 1
        elif kind < 0.5:
            a = simple_chord(step=rng.choice(_STEPS), onset=onset)
            b = simple_chord(step=rng.choice(_STEPS),
                             onset=onset + Fraction(1, 2))
            children.append(group(a, b, beams=1))
            onset += 1
        else:
            head = rng.choice(["notehead_black", "notehead_white"])
            direction_label = rng.choice(["stem_up", "stem_down"])
            children.append(group(simple_chord(
                step=rng.choice(_STEPS), onset=onset, head=head,
                direction=direction_label)))
            onset += 2 if head == "notehead_white" else 1
    if rng.random() < 0.4:
        children.append(direction(rng.choice(
            ["dyn_p", "dyn_f", "dyn_mf", "dyn_pp"]), onset=0))
    if rng.random() < 0.5:
        children.append(barline(onset=onset))
    return measure(*children, id=mid, line_start=line_start)


def random_work(rng: random.Random, work_id: str = "w",
                measures_n: int | None = None) -> MTNWork:
    n = measures_n if measures_n is not None else rng.randint(1, 3)
    measures = []
    for i in range(n):
        measures.append(random_measure(rng, f"m{i + 1}", line_start=(i == 0)))
    if n >= 2 and rng.random() < 0.5:
        # cross-measure slur: start on a chord of m1, stop on one of m2;
        # only attached when both measures have a chord to carry it
        with_start = _attach_slur(measures[0], "slur_start", "sl1")
        with_stop = _attach_slur(measures[1], "slur_stop", "sl1")
        if with_start is not None and with_stop is not None:
            measures[0], measures[1] = with_start, with_stop
    w = MTNWork(work_id, (Part(1, tuple(measures)),))
    return assign_ids(canonicalize_work(w))


def _attach_slur(m: Measure, label: str, pair: str) -> Measure | None:
    """Add a slur token to the first note of the first chord, if any."""
    for ci, child in enumerate(m.children):
        if child.kind != NOTE_GROUP:
            continue
        for gi, sub in enumerate(child.children):
            if isinstance(sub, Node) and sub.kind == CHORD:
                for ni, nn in enumerate(sub.children):
                    if isinstance(nn, Node) and nn.kind == NOTE:
                        slur = tok(label, 1, pair=pair)
                        new_note = Node(NOTE, nn.children + (slur,))
                        new_chord = Node(CHORD, sub.children[:ni] + (new_note,)
                                         + sub.children[ni + 1:], onset=sub.onset)
                        new_group = Node(NOTE_GROUP,
                                         child.children[:gi] + (new_chord,)
                                         + child.children[gi + 1:],
                                         onset=child.onset)
                        return Measure(m.id, m.children[:ci] + (new_group,)
                                       + m.children[ci + 1:], m.line_start)
    return None


def random_work_checked(rng: random.Random, work_id: str = "w",
                        measures_n: int | None = None) -> MTNWork:
    from mtnkit.model import validate
    w = random_work(rng, work_id, measures_n)
    problems = validate(w)
    assert not problems, f"random work generator produced invalid work: {problems[:3]}"
    return w


def work_with_id_suffix(suffix: str) -> MTNWork:
    """A valid two-measure work holding one slur pair, whose work id, first
    measure id, first token id and pair id each end in suffix."""
    start = simple_chord(step=6, extras=(tok("slur_start", pair="p"),))
    stop = simple_chord(step=6, extras=(tok("slur_stop", pair="p"),))
    first, second = work(measure(group(start), id="m1"),
                         measure(group(stop), id="m2")).parts[0].measures
    first_id = next(iter_tokens(first)).id

    def rename(token: Token) -> Token:
        if token.id == first_id:
            token = token._replace(id=first_id + suffix)
        if token.pair_id is not None:
            token = token._replace(pair_id=token.pair_id + suffix)
        return token

    w = MTNWork("w" + suffix, (Part(1, (first._replace(id="m1" + suffix),
                                        second)),))
    return map_tokens(w, rename)
