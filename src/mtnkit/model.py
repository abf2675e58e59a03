"""Tree score data model.

A work holds parts, a part holds measures, and a measure is an ordered tree:
internal nodes are structural kinds (note groups, chords, stems, ...), leaves
are tokens (music primitives with optional staff position).

All types are immutable named tuples; edits build new values with the
constructors or ``._replace``. Equality is structural, ids included.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Union

from . import vocabulary
from .vocabulary import (
    ACCIDENTALS, ARPEGGIATE, ARTICULATIONS, BARLINE_TOKENS, BEAM, CAESURA,
    CLEFS, DOT, DYNAMICS, FERMATA, FLAG, MARKS, NOTEHEADS, ORNAMENTS, REPEATS,
    RESTS, SLURS, STEM_DIRECTIONS, TIES, TIMESIG_NUMBER, TIMESIG_SYMBOLS,
    TUPLETS, WEDGES,
)

# Structural node kinds.
ATTRIBUTES = "attributes"
ATTR_STAFF = "attr_staff"
CLEF = "clef"
KEY = "key"
TIME_SIG = "time_sig"
BARLINE = "barline"
DIRECTION = "direction"
NOTE_GROUP = "note_group"
CHORD = "chord"
STEM = "stem"
NOTE = "note"
REST = "rest"

# Kinds allowed directly under a measure, with their reading-order class
# rank: attributes, then directions, then rests, then note groups, then
# barlines at equal onsets.
TOP_LEVEL_RANK = {
    ATTRIBUTES: 0,
    DIRECTION: 1,
    REST: 2,
    NOTE_GROUP: 3,
    BARLINE: 4,
}

_NONE: frozenset[str] = frozenset()

# The node grammar: kind -> (node kinds, token labels) admissible as direct
# children.
_GRAMMAR: dict[str, tuple[frozenset[str], frozenset[str]]] = {
    ATTRIBUTES: (frozenset({ATTR_STAFF}), _NONE),
    ATTR_STAFF: (frozenset({CLEF, KEY, TIME_SIG}), _NONE),
    CLEF: (_NONE, CLEFS),
    KEY: (_NONE, ACCIDENTALS),
    TIME_SIG: (_NONE, TIMESIG_SYMBOLS | TIMESIG_NUMBER),
    BARLINE: (_NONE, BARLINE_TOKENS | REPEATS | FERMATA),
    DIRECTION: (_NONE, DYNAMICS | WEDGES | MARKS),
    NOTE_GROUP: (frozenset({NOTE_GROUP, CHORD}), BEAM),
    CHORD: (frozenset({STEM, NOTE}), _NONE),
    STEM: (_NONE, STEM_DIRECTIONS | FLAG),
    NOTE: (_NONE, NOTEHEADS | ACCIDENTALS | DOT | ARTICULATIONS | ORNAMENTS
           | FERMATA | ARPEGGIATE | CAESURA | SLURS | TIES | TUPLETS),
    REST: (_NONE, RESTS | DOT | FERMATA | TUPLETS),
}
NODE_KINDS = frozenset(_GRAMMAR)

# kind -> (rule, token class, what the message calls it) for the kinds that
# hold exactly one token of a class.
_EXACTLY_ONE: dict[str, tuple[str, frozenset[str], str]] = {
    NOTE: ("note-noteheads", NOTEHEADS, "noteheads"),
    REST: ("rest-tokens", RESTS, "rest tokens"),
    STEM: ("stem-tokens", STEM_DIRECTIONS, "direction tokens"),
}

# Kinds that carry an onset: measure children and every chord.
_ONSET_KINDS = frozenset(TOP_LEVEL_RANK) | {CHORD}


class StaffPosition(NamedTuple):
    """Vertical placement of a token.

    staff counts from 1 at the top of the part. step counts diatonic steps
    from the first ledger line below the staff, so the bottom staff line is
    2 and the top line is 10; positionless token classes leave step unset.
    """

    staff: int
    step: int | None = None


class Token(NamedTuple):
    """A music primitive leaf."""

    id: str
    label: str
    position: StaffPosition
    pair_id: str | None = None
    numeric_value: int | None = None


class Node(NamedTuple):
    """Internal tree node of a measure."""

    kind: str
    children: tuple[Union["Node", Token], ...] = ()
    onset: Fraction | None = None
    synthetic: bool = False


class Measure(NamedTuple):
    id: str
    children: tuple[Node, ...] = ()
    line_start: bool = False


class Part(NamedTuple):
    staff_count: int
    measures: tuple[Measure, ...] = ()


class MTNWork(NamedTuple):
    work_id: str
    parts: tuple[Part, ...] = ()


def iter_nodes(root: Node) -> Iterator[Node]:
    """Yield root and every descendant Node, depth first, document order."""
    yield root
    for child in root.children:
        if isinstance(child, Node):
            yield from iter_nodes(child)


def iter_tokens(item: Node | Measure | Part | MTNWork) -> Iterator[Token]:
    """Yield all tokens below item in document order."""
    if isinstance(item, MTNWork):
        for part in item.parts:
            yield from iter_tokens(part)
    elif isinstance(item, Part):
        for measure in item.measures:
            yield from iter_tokens(measure)
    elif isinstance(item, Measure):
        for child in item.children:
            yield from iter_tokens(child)
    else:
        for child in item.children:
            if isinstance(child, Token):
                yield child
            else:
                yield from iter_tokens(child)


def map_tokens(work: MTNWork,
               fn: Callable[[Token], Token | None]) -> MTNWork:
    """Rebuild work with fn applied to every token in document order.

    A token that fn maps to None is dropped, and so is every node that this
    leaves without children. Nodes that were empty already stay, and so do
    measures.
    """
    def children(items: tuple) -> tuple:
        out = []
        for child in items:
            if isinstance(child, Token):
                child = fn(child)
            else:
                kind, kids, onset, synthetic = child
                new_kids = children(kids)
                child = (Node(kind, new_kids, onset, synthetic)
                         if new_kids or not kids else None)
            if child is not None:
                out.append(child)
        return tuple(out)

    return MTNWork(work.work_id, tuple(
        Part(part.staff_count, tuple(
            Measure(m.id, children(m.children), m.line_start)
            for m in part.measures))
        for part in work.parts))


class Violation(NamedTuple):
    """One validation failure.

    subject is a token id, a measure id, or a path like "m4/1/0" naming a
    node by child indices below its measure.
    """

    rule: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.subject}: {self.message}"


# The first character outside XML 1.0's Char production: no XML 1.0 file
# can hold one, escaped or not.
_NOT_XML_CHAR = re.compile(
    "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]").search

# A type that a field wants -> how a field-type message names it.
_TYPE_NAMES = {str: "a str", int: "an int", StaffPosition: "a StaffPosition"}


class _Validator:
    def __init__(self, work: MTNWork, check_order: bool = True):
        self.work = work
        self.check_order = check_order
        self.out: list[Violation] = []
        self.token_ids: dict[str, str] = {}
        self.pairs: dict[str, list[Token]] = {}

    def fail(self, rule: str, subject: str, message: str) -> None:
        self.out.append(Violation(rule, subject, message))

    def check_chars(self, field: str, value: str) -> None:
        """Report an id that holds a character XML 1.0 cannot hold. The
        subject is the id's repr, so that the report shows the character."""
        bad = _NOT_XML_CHAR(value)
        if bad is not None:
            self.fail("xml-char", repr(value), f"{field} holds "
                      f"U+{ord(bad.group()):04X}, which XML 1.0 cannot hold")

    def run(self) -> list[Violation]:
        if not isinstance(self.work, MTNWork):
            self.fail("field-type", "work",
                      f"work {self.work!r} is not an MTNWork")
            return self.out
        work_id = self.work.work_id
        if type(work_id) is not str:
            work_id = repr(work_id)
            self.fail("field-type", work_id, f"work_id {work_id} is not a str")
        else:
            self.check_chars("work_id", work_id)
        measure_ids: set[str] = set()
        for part in self.records(self.work.parts, "parts", Part, work_id):
            if type(part.staff_count) is not int:
                self.fail("field-type", work_id,
                          f"part has staff_count {part.staff_count!r}, "
                          "not an int")
            elif part.staff_count < 1:
                self.fail("staff-count", work_id,
                          f"part has staff_count {part.staff_count}")
            for measure in self.records(part.measures, "measures", Measure,
                                        work_id):
                mid = measure.id
                if type(mid) is not str:
                    mid = repr(mid)
                    self.fail("field-type", mid, f"measure id {mid} is not a str")
                elif mid in measure_ids:
                    self.fail("duplicate-measure-id", mid,
                              "measure id appears more than once")
                else:
                    measure_ids.add(mid)
                    self.check_chars("measure id", mid)
                if type(measure.line_start) is not bool:
                    self.fail("field-type", mid, f"line_start "
                              f"{measure.line_start!r} is not a bool")
                self.check_measure(part, measure, mid)
        self.check_pairs()
        return self.out

    def records(self, items: tuple, field: str, record: type,
                subject: str) -> Iterator:
        """Each item of a parts or measures tuple that is of the record
        type; a field-type report for any other item, and for a field that
        is not a tuple."""
        if type(items) is not tuple:
            self.fail("field-type", subject, f"{field} {items!r} is not a tuple")
            return
        for item in items:
            if isinstance(item, record):
                yield item
            else:
                self.fail("field-type", subject,
                          f"{item!r} in {field} is not a {record.__name__}")

    def check_measure(self, part: Part, measure: Measure, mid: str) -> None:
        start = len(self.out)
        children = measure.children
        if type(children) is not tuple:
            self.fail("field-type", mid,
                      f"children {children!r} is not a tuple")
            return
        for i, child in enumerate(children):
            path = f"{mid}/{i}"
            if isinstance(child, Token):
                self.fail("child-kind", path,
                          f"token {child.label} not allowed under a measure")
            elif isinstance(child, Node) and type(child.kind) is str:
                if child.kind in TOP_LEVEL_RANK:
                    self.check_node(part, child, path)
                    continue
                self.fail("child-kind", path,
                          f"{child.kind} not allowed under a measure")
            self.check_types_below(child, path)
        if not self.check_order:
            return
        if any(v.rule == "field-type" for v in self.out[start:]):
            return  # ordering would compare values of the wrong type
        # Canonical order is validated measure-wide: canonicalize returns
        # the measure itself when nothing moved. Imported lazily to avoid a
        # module cycle.
        from .canonical import canonicalize, CanonicalizeError
        try:
            if canonicalize(measure) is not measure:
                self.fail("non-canonical", mid,
                          "children are not in canonical reading order")
        except CanonicalizeError:
            pass  # missing onsets are reported by the onset rules

    def check_node(self, part: Part, node: Node, path: str) -> None:
        kind, children, onset, synthetic = node
        typed = (onset is None or isinstance(onset, Fraction)
                 or type(onset) is int)
        if (not typed or type(synthetic) is not bool
                or type(children) is not tuple):
            self.check_node_types(node, path)
        if kind in _ONSET_KINDS:
            if onset is None:
                self.fail("missing-onset", path, f"{kind} requires an onset")
            elif typed and onset.numerator < 0:
                self.fail("negative-onset", path, f"onset {onset} is negative")
        elif onset is not None:
            self.fail("onset-not-allowed", path,
                      f"{kind} must not carry an onset")
        if synthetic is True and kind != ATTRIBUTES:
            self.fail("synthetic-not-allowed", path,
                      "only attributes nodes can be synthetic")
        if type(children) is not tuple:
            return

        allowed_kinds, allowed_tokens = _GRAMMAR[kind]
        for i, child in enumerate(children):
            if isinstance(child, Token):
                tid, label, position, pair_id, value = child
                # every token of a valid work passes this test
                if not (type(tid) is str and type(label) is str
                        and type(position) is StaffPosition
                        and type(position.staff) is int
                        and (position.step is None
                             or type(position.step) is int)
                        and (pair_id is None or type(pair_id) is str)
                        and (value is None or type(value) is int)):
                    if self.check_types(child, f"{path}/{i}"):
                        continue  # the token rules read its id and label
                if label in allowed_tokens:
                    self.check_token(part, child)
                elif not vocabulary.is_known(label):
                    self.fail("unknown-label", tid,
                              f"label {label} is not in the vocabulary")
                else:
                    self.fail("child-kind", f"{path}/{i}",
                              f"token {label} not allowed under {kind}")
                continue
            if isinstance(child, Node) and type(child.kind) is str:
                if child.kind in allowed_kinds:
                    self.check_node(part, child, f"{path}/{i}")
                    continue
                self.fail("child-kind", f"{path}/{i}",
                          f"{child.kind} not allowed under {kind}")
            self.check_types_below(child, f"{path}/{i}")
        self.check_counts(node, path)

    def check_node_types(self, node: Node, path: str) -> None:
        """Report a kind that is not a str, children that are not a tuple,
        an onset that is neither an int nor a Fraction, and a synthetic
        flag that is not a bool."""
        if type(node.kind) is not str:
            self.fail("field-type", path, f"kind {node.kind!r} is not a str")
        if type(node.children) is not tuple:
            self.fail("field-type", path,
                      f"children {node.children!r} is not a tuple")
        onset = node.onset
        if not (onset is None or isinstance(onset, Fraction)
                or type(onset) is int):
            self.fail("field-type", path,
                      f"onset {onset!r} is neither an int nor a Fraction")
        if type(node.synthetic) is not bool:
            self.fail("field-type", path,
                      f"synthetic {node.synthetic!r} is not a bool")

    def check_types_below(self, item, path: str) -> None:
        """Report the mistyped values in a subtree that the walk does not
        enter, and a child that is neither a Node nor a Token: the order
        check reads them."""
        if isinstance(item, Token):
            self.check_types(item, path)
        elif not isinstance(item, Node):
            self.fail("field-type", path,
                      f"child {item!r} is neither a Node nor a Token")
        else:
            self.check_node_types(item, path)
            if type(item.children) is tuple:
                for i, child in enumerate(item.children):
                    self.check_types_below(child, f"{path}/{i}")

    def check_counts(self, node: Node, path: str) -> None:
        kind, children = node.kind, node.children
        if kind in _EXACTLY_ONE:
            rule, labels, what = _EXACTLY_ONE[kind]
            n = len([c for c in children if isinstance(c, Token)
                     and type(c.label) is str and c.label in labels])
            if n != 1:
                self.fail(rule, path, f"{kind} has {n} {what}, wants exactly 1")
        elif kind == CHORD:
            kinds = [c.kind for c in children if isinstance(c, Node)]
            if kinds.count(STEM) > 1:
                self.fail("chord-stems", path, "chord has more than one stem")
            if NOTE not in kinds:
                self.fail("chord-notes", path, "chord has no note")
        elif kind == DIRECTION:
            if len(children) != 1 or isinstance(children[0], Node):
                self.fail("direction-tokens", path,
                          "direction holds exactly one token")
        elif kind == NOTE_GROUP:
            if not any(isinstance(c, Node) and c.kind in (CHORD, NOTE_GROUP)
                       for c in children):
                self.fail("group-empty", path, "note group has no chords")
        elif kind in (CLEF, KEY, TIME_SIG, BARLINE, ATTR_STAFF, ATTRIBUTES):
            if not children:
                self.fail("node-empty", path, f"{kind} has no children")

    def check_types(self, token: Token, path: str) -> bool:
        """Report each field of the token of the wrong type: id and label
        are str, position a StaffPosition, pair_id str or None, staff an int
        (a bool is not one), step and numeric value an int or None. A token
        with a mistyped id is named by its path. True when id, label,
        position or pair_id is mistyped."""
        tid, label, position, pair_id, value = token
        subject = tid if type(tid) is str else path
        placed = type(position) is StaffPosition
        staff, step = position if placed else (None, None)
        mistyped = False
        for name, got, want, optional in (
                ("id", tid, str, False), ("label", label, str, False),
                ("position", position, StaffPosition, False),
                ("staff", staff, int, not placed), ("step", step, int, True),
                ("pair_id", pair_id, str, True),
                ("numeric_value", value, int, True)):
            if type(got) is not want and not (optional and got is None):
                self.fail("field-type", subject,
                          f"{name} {got!r} is not {_TYPE_NAMES[want]}")
                mistyped = mistyped or want is not int
        return mistyped

    def check_token(self, part: Part, token: Token) -> None:
        if token.id in self.token_ids:
            self.fail("duplicate-token-id", token.id,
                      "token id appears more than once")
        self.token_ids[token.id] = token.label
        self.check_chars("token id", token.id)
        pos = token.position
        if (type(pos.staff) is int and type(part.staff_count) is int
                and not 1 <= pos.staff <= part.staff_count):
            self.fail("staff-range", token.id,
                      f"staff {pos.staff} outside 1..{part.staff_count}")
        if vocabulary.is_positioned(token.label):
            if pos.step is None:
                self.fail("step-required", token.id,
                          f"{token.label} requires a staff step")
        elif pos.step is not None:
            self.fail("step-forbidden", token.id,
                      f"{token.label} is positionless, has step {pos.step}")
        role = vocabulary.pair_role(token.label)
        if role is None:
            if token.pair_id is not None:
                self.fail("pair-id-forbidden", token.id,
                          f"{token.label} does not pair")
        else:
            if token.pair_id is None:
                self.fail("pair-id-missing", token.id,
                          f"{token.label} requires a pair id")
            else:
                self.pairs.setdefault(token.pair_id, []).append(token)
        if token.label in TIMESIG_NUMBER:
            if token.numeric_value is None:
                self.fail("value-required", token.id,
                          f"{token.label} requires a numeric value")
        elif token.numeric_value is not None:
            self.fail("value-forbidden", token.id,
                      f"{token.label} must not carry a numeric value")

    def check_pairs(self) -> None:
        for pair_id, members in sorted(self.pairs.items()):
            self.check_chars("pair id", pair_id)
            if len(members) != 2:
                self.fail("pair-multiplicity", pair_id,
                          f"pair used by {len(members)} tokens, wants exactly 2")
                continue
            roles = sorted(members, key=lambda t: vocabulary.pair_role(t.label))
            a, b = roles
            if (vocabulary.pair_role(a.label) != "start"
                    or vocabulary.pair_role(b.label) != "stop"
                    or b.label not in vocabulary.PAIR_PARTNERS[a.label]):
                self.fail("pair-roles", pair_id,
                          f"{members[0].label} and {members[1].label} "
                          "do not form a start/stop pair")


def validate(work: MTNWork) -> list[Violation]:
    """Check a work against the model constraints.

    Returns all violations found (empty list means valid). Never raises,
    whatever Python values work holds: a value of the wrong type, work
    itself included, is a field-type violation.
    """
    return _Validator(work).run()
