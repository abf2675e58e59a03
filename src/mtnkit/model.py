"""Tree score data model.

A work holds parts, a part holds measures, and a measure is an ordered tree:
internal nodes are structural kinds (note groups, chords, stems, ...), leaves
are tokens (music primitives with optional staff position).

All types are immutable; edits build new values with the constructors or
``dataclasses.replace``. Equality is structural, ids included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Union

from . import vocabulary

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

NODE_KINDS = frozenset({
    ATTRIBUTES, ATTR_STAFF, CLEF, KEY, TIME_SIG, BARLINE, DIRECTION,
    NOTE_GROUP, CHORD, STEM, NOTE, REST,
})

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

# kind -> node kinds admissible as children. Token admissibility is separate
# (see _TOKEN_RULES below).
_CHILD_KINDS: dict[str, frozenset[str]] = {
    ATTRIBUTES: frozenset({ATTR_STAFF}),
    ATTR_STAFF: frozenset({CLEF, KEY, TIME_SIG}),
    CLEF: frozenset(),
    KEY: frozenset(),
    TIME_SIG: frozenset(),
    BARLINE: frozenset(),
    DIRECTION: frozenset(),
    NOTE_GROUP: frozenset({NOTE_GROUP, CHORD}),
    CHORD: frozenset({STEM, NOTE}),
    STEM: frozenset(),
    NOTE: frozenset(),
    REST: frozenset(),
}

# kind -> token labels admissible as direct children.
_TOKEN_RULES: dict[str, frozenset[str]] = {
    ATTRIBUTES: frozenset(),
    ATTR_STAFF: frozenset(),
    CLEF: vocabulary.CLEFS,
    KEY: vocabulary.ACCIDENTALS,
    TIME_SIG: vocabulary.TIMESIG_TOKENS,
    BARLINE: vocabulary.BARLINE_NODE_TOKENS,
    DIRECTION: vocabulary.DIRECTION_TOKENS,
    NOTE_GROUP: vocabulary.BEAM,
    CHORD: frozenset(),
    STEM: vocabulary.STEM_TOKENS,
    NOTE: vocabulary.NOTE_TOKENS,
    REST: vocabulary.REST_TOKENS,
}

# Kinds that carry an onset: measure children and every chord.
_ONSET_KINDS = frozenset(TOP_LEVEL_RANK) | {CHORD}


@dataclass(frozen=True, slots=True)
class StaffPosition:
    """Vertical placement of a token.

    staff counts from 1 at the top of the part. step counts diatonic steps
    from the first ledger line below the staff, so the bottom staff line is
    2 and the top line is 10; positionless token classes leave step unset.
    """

    staff: int
    step: int | None = None


@dataclass(frozen=True, slots=True)
class Token:
    """A music primitive leaf."""

    id: str
    label: str
    position: StaffPosition
    pair_id: str | None = None
    numeric_value: int | None = None


@dataclass(frozen=True, slots=True)
class Node:
    """Internal tree node of a measure."""

    kind: str
    children: tuple[Union["Node", Token], ...] = ()
    onset: Fraction | None = None
    synthetic: bool = False


@dataclass(frozen=True, slots=True)
class Measure:
    id: str
    children: tuple[Node, ...] = ()
    line_start: bool = False


@dataclass(frozen=True, slots=True)
class Part:
    staff_count: int
    measures: tuple[Measure, ...] = ()


@dataclass(frozen=True, slots=True)
class MTNWork:
    work_id: str
    parts: tuple[Part, ...] = ()


Child = Union[Node, Token]


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
            new = fn(child) if isinstance(child, Token) else node(child)
            if new is not None:
                out.append(new)
        return tuple(out)

    def node(item: Node) -> Node | None:
        kids = children(item.children)
        if item.children and not kids:
            return None
        return Node(item.kind, kids, item.onset, item.synthetic)

    return MTNWork(work.work_id, tuple(
        Part(part.staff_count, tuple(
            Measure(m.id, children(m.children), m.line_start)
            for m in part.measures))
        for part in work.parts))


@dataclass(frozen=True, slots=True)
class Violation:
    """One validation failure.

    subject is a token id, a measure id, or a path like "m4/1/0" naming a
    node by child indices below its measure.
    """

    rule: str
    subject: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"[{self.rule}] {self.subject}: {self.message}"


def _note_kind_name(child: Child) -> str:
    return child.kind if isinstance(child, Node) else f"token {child.label}"


class _Validator:
    def __init__(self, work: MTNWork):
        self.work = work
        self.out: list[Violation] = []
        self.token_ids: dict[str, str] = {}
        self.pairs: dict[str, list[Token]] = {}

    def fail(self, rule: str, subject: str, message: str) -> None:
        self.out.append(Violation(rule, subject, message))

    def run(self) -> list[Violation]:
        measure_ids: set[str] = set()
        for part in self.work.parts:
            if type(part.staff_count) is not int:
                self.fail("field-type", self.work.work_id,
                          f"part has staff_count {part.staff_count!r}, "
                          "not an int")
            elif part.staff_count < 1:
                self.fail("staff-count", self.work.work_id,
                          f"part has staff_count {part.staff_count}")
            for measure in part.measures:
                if measure.id in measure_ids:
                    self.fail("duplicate-measure-id", measure.id,
                              "measure id appears more than once")
                measure_ids.add(measure.id)
                self.check_measure(part, measure)
        self.check_pairs()
        return self.out

    def check_measure(self, part: Part, measure: Measure) -> None:
        start = len(self.out)
        for i, child in enumerate(measure.children):
            path = f"{measure.id}/{i}"
            if not isinstance(child, Node) or child.kind not in TOP_LEVEL_RANK:
                self.fail("child-kind", path,
                          f"{_note_kind_name(child)} not allowed under a measure")
                continue
            self.check_node(part, child, path)
        if any(v.rule == "field-type" for v in self.out[start:]):
            return  # ordering would compare values of the wrong type
        # Canonical order is validated measure-wide: canonicalize returns
        # the measure itself when nothing moved. Imported lazily to avoid a
        # module cycle.
        from .canonical import canonicalize, CanonicalizeError
        try:
            if canonicalize(measure) is not measure:
                self.fail("non-canonical", measure.id,
                          "children are not in canonical reading order")
        except CanonicalizeError:
            pass  # missing onsets are reported by the onset rules

    def check_node(self, part: Part, node: Node, path: str) -> None:
        onset = node.onset
        typed = (onset is None or isinstance(onset, Fraction)
                 or type(onset) is int)
        if not typed:
            self.fail("field-type", path,
                      f"onset {onset!r} is neither an int nor a Fraction")
        if node.kind in _ONSET_KINDS:
            if onset is None:
                self.fail("missing-onset", path,
                          f"{node.kind} requires an onset")
            elif typed and onset < 0:
                self.fail("negative-onset", path,
                          f"onset {node.onset} is negative")
        elif node.onset is not None:
            self.fail("onset-not-allowed", path,
                      f"{node.kind} must not carry an onset")
        if node.synthetic and node.kind != ATTRIBUTES:
            self.fail("synthetic-not-allowed", path,
                      "only attributes nodes can be synthetic")

        allowed_kinds = _CHILD_KINDS[node.kind]
        allowed_tokens = _TOKEN_RULES[node.kind]
        for i, child in enumerate(node.children):
            sub = f"{path}/{i}"
            if isinstance(child, Token):
                pos = child.position  # every token of a valid work passes
                if not (type(pos.staff) is int
                        and (pos.step is None or type(pos.step) is int)
                        and (child.numeric_value is None
                             or type(child.numeric_value) is int)):
                    self.check_types(child)
                if child.label in allowed_tokens:
                    self.check_token(part, child)
                elif not vocabulary.is_known(child.label):
                    self.fail("unknown-label", child.id,
                              f"label {child.label} is not in the vocabulary")
                else:
                    self.fail("child-kind", sub,
                              f"token {child.label} not allowed under {node.kind}")
            elif child.kind in allowed_kinds:
                self.check_node(part, child, sub)
            else:
                self.fail("child-kind", sub,
                          f"{child.kind} not allowed under {node.kind}")
        self.check_counts(node, path)

    def check_counts(self, node: Node, path: str) -> None:
        tokens = [c for c in node.children if isinstance(c, Token)]
        nodes = [c for c in node.children if isinstance(c, Node)]
        if node.kind == CHORD:
            stems = [n for n in nodes if n.kind == STEM]
            notes = [n for n in nodes if n.kind == NOTE]
            if len(stems) > 1:
                self.fail("chord-stems", path, "chord has more than one stem")
            if not notes:
                self.fail("chord-notes", path, "chord has no note")
        elif node.kind == NOTE:
            heads = [t for t in tokens if t.label in vocabulary.NOTEHEADS]
            if len(heads) != 1:
                self.fail("note-noteheads", path,
                          f"note has {len(heads)} noteheads, wants exactly 1")
        elif node.kind == REST:
            rests = [t for t in tokens if t.label in vocabulary.RESTS]
            if len(rests) != 1:
                self.fail("rest-tokens", path,
                          f"rest has {len(rests)} rest tokens, wants exactly 1")
        elif node.kind == STEM:
            dirs = [t for t in tokens if t.label in vocabulary.STEM_DIRECTIONS]
            if len(dirs) != 1:
                self.fail("stem-tokens", path,
                          f"stem has {len(dirs)} direction tokens, wants exactly 1")
        elif node.kind == DIRECTION:
            if len(tokens) != 1 or nodes:
                self.fail("direction-tokens", path,
                          "direction holds exactly one token")
        elif node.kind == NOTE_GROUP:
            chords = [n for n in nodes if n.kind in (CHORD, NOTE_GROUP)]
            if not chords:
                self.fail("group-empty", path, "note group has no chords")
        elif node.kind in (CLEF, KEY, TIME_SIG, BARLINE, ATTR_STAFF, ATTRIBUTES):
            if not node.children:
                self.fail("node-empty", path, f"{node.kind} has no children")

    def check_types(self, token: Token) -> None:
        """Report each of the token's staff, step and numeric value that is
        not an int (a bool is not one); step and numeric value may be
        None."""
        pos = token.position
        for name, value in (("staff", pos.staff), ("step", pos.step),
                            ("numeric_value", token.numeric_value)):
            if type(value) is not int and (value is not None
                                           or name == "staff"):
                self.fail("field-type", token.id,
                          f"{name} {value!r} is not an int")

    def check_token(self, part: Part, token: Token) -> None:
        if token.id in self.token_ids:
            self.fail("duplicate-token-id", token.id,
                      "token id appears more than once")
        self.token_ids[token.id] = token.label
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
        if token.label in vocabulary.TIMESIG_NUMBER:
            if token.numeric_value is None:
                self.fail("value-required", token.id,
                          f"{token.label} requires a numeric value")
        elif token.numeric_value is not None:
            self.fail("value-forbidden", token.id,
                      f"{token.label} must not carry a numeric value")

    def check_pairs(self) -> None:
        for pair_id, members in sorted(self.pairs.items()):
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

    Returns all violations found (empty list means valid). Never raises on
    bad content; structural impossibilities are reported as violations.
    """
    return _Validator(work).run()
