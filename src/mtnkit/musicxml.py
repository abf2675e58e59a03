"""MusicXML to tree-score conversion.

Walks score-partwise (or timewise, regrouped first) documents with an exact
rational time cursor, maps engraving-level content to primitive tokens, and
assembles the measure trees: beam runs become nested note groups, spanners
pair through shared ids, key signatures expand to clef-dependent accidental
positions, and system breaks mark line-start measures which then receive
synthetic clef/key restatements.

A MusicXML tag has one of three outcomes: token labels; an approximation,
whose labels come with a warning; or no token and a warning that the tag is
unsupported or not representable. The notation families below state these
as one table row per tag, and a tag missing from its family's table gets
the family's "unsupported" warning. Warnings carry the element's location.
Content excluded by design (lyrics; the layout, playback and analysis
elements of a measure; and the footnote, level, part-symbol and
instruments children of <attributes>) is dropped without a warning.
"""

from __future__ import annotations

import itertools
import zipfile
import zlib
from fractions import Fraction
from io import BytesIO
from pathlib import Path
from typing import Iterable, NamedTuple
from xml.etree import ElementTree as ET

from .canonical import assign_ids, canonicalize_work
from .model import (
    ATTR_STAFF, ATTRIBUTES, BARLINE, CHORD, CLEF, DIRECTION, KEY, MTNWork,
    Measure, NOTE, NOTE_GROUP, Node, Part, REST, STEM, StaffPosition,
    TIME_SIG, Token, map_tokens,
)
from .vocabulary import DYNAMICS, REPEATS
from .xmlio import InvalidWorkError, _serialize_ordered

_LETTERS = {"C": 0, "D": 1, "E": 2, "F": 3, "G": 4, "A": 5, "B": 6}

MIDDLE_STEP = 6  # the middle staff line
# Largest .mxl archive member the importer unpacks; score XML of a long
# orchestral work stays well below it.
MAX_MXL_MEMBER_BYTES = 64 * 2**20


class ConversionError(ValueError):
    pass


def _integer(text: str | None) -> int | None:
    """text as an int if it has the xs:integer form (an optional sign and
    ASCII digits, with optional XML whitespace around them), else None.
    int() alone also reads "1_2" and "٤"."""
    if text is None:
        return None
    digits = text.strip(" \t\n\r")
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        return None
    return int(text)


class ClefState(NamedTuple):
    """Active clef of one staff: token label, staff step of the clef token,
    and the diatonic index that maps to step 0."""

    label: str | None
    line_step: int
    ref_index: int  # diatonic index (octave*7 + letter) rendered at step 0

    @staticmethod
    def treble() -> "ClefState":
        return ClefState("clef_G", 4, 28)


# A staff with no <clef> or an unsupported one: treble positions and no
# clef token.
_NO_CLEF_TOKEN = ClefState.treble()._replace(label=None)


def clef_state(sign: str, line: int | None, octave_change: int = 0) -> ClefState | None:
    """Clef element to state; None for unpositioned signs (percussion, TAB).

    A G clef fixes G4 on its line, F fixes F3, C fixes C4; an octave change
    shifts the reference by seven steps per octave.
    """
    defaults = {"G": 2, "F": 4, "C": 3}
    anchors = {"G": 4 * 7 + 4, "F": 3 * 7 + 3, "C": 4 * 7 + 0}
    if sign not in defaults:
        return None
    line = line if line is not None else defaults[sign]
    line_step = 2 * line
    ref = anchors[sign] - line_step + 7 * octave_change
    if sign == "C":
        label = "clef_C"
    elif octave_change:
        label = f"clef_oct_{sign}"
    else:
        label = f"clef_{sign}"
    return ClefState(label, line_step, ref)


def pitch_to_step(letter: str, octave: int, clef: ClefState) -> int:
    """Staff step of a written pitch under a clef.

    Steps count diatonic positions from the first ledger line below the
    staff: bottom line 2, top line 10. Treble C4 is 0; bass E2 is 0.
    """
    if letter not in _LETTERS:
        raise ValueError(f"bad pitch letter {letter!r}")
    return octave * 7 + _LETTERS[letter] - clef.ref_index


# Key signature accidental steps per clef family at its default line.
# Derived from standard engraving pitch sequences (e.g. treble sharps
# F5 C5 G5 D5 A4 E5 B4).
_SHARP_STEPS = {
    ("G", 4): (10, 7, 11, 8, 5, 9, 6),
    ("F", 8): (8, 5, 9, 6, 3, 7, 4),
    ("C", 6): (9, 6, 10, 7, 4, 8, 5),
    ("C", 8): (4, 8, 5, 9, 6, 10, 7),
}
_FLAT_STEPS = {
    ("G", 4): (6, 9, 5, 8, 4, 7, 3),
    ("F", 8): (4, 7, 3, 6, 2, 5, 1),
    ("C", 6): (5, 8, 4, 7, 3, 6, 2),
    ("C", 8): (7, 10, 6, 9, 5, 8, 4),
}


def key_signature_steps(fifths: int, clef: ClefState) -> tuple[str, tuple[int, ...]]:
    """(accidental label, steps) for a key signature under a clef.

    Non-default clef lines reuse the family table shifted by the line
    delta. fifths 0 yields no accidentals here; cancellation naturals are
    the caller's concern.
    """
    if fifths == 0:
        return ("accidental_natural", ())
    table = _SHARP_STEPS if fifths > 0 else _FLAT_STEPS
    label = "accidental_sharp" if fifths > 0 else "accidental_flat"
    family = (clef.label or "clef_G").split("_")[-1]
    default_line = {"G": 4, "F": 8,
                    "C": 6 if clef.line_step <= 6 else 8}[family]
    steps = table[(family, default_line)]
    shift = clef.line_step - default_line
    count = min(abs(fifths), 7)
    return (label, tuple(s + shift for s in steps[:count]))


class TimeCursor:
    """Measure-local time in quarter notes, driven by divisions-based
    durations with backup/forward moves."""

    def __init__(self, divisions: int = 1):
        self.divisions = divisions
        self.reset()

    def reset(self) -> None:
        self.now = Fraction(0)
        self.high_water = Fraction(0)

    def quarters(self, duration_divisions: int) -> Fraction:
        return Fraction(duration_divisions, self.divisions)

    def advance(self, duration_divisions: int) -> Fraction:
        """Consume a duration; returns the onset it started at."""
        onset = self.now
        self.now += self.quarters(duration_divisions)
        if self.now > self.high_water:
            self.high_water = self.now
        return onset

    def backup(self, duration_divisions: int) -> bool:
        """Move back a duration, stopping at 0; returns whether it
        stopped there short of the whole duration."""
        self.now -= self.quarters(duration_divisions)
        if self.now < 0:
            self.now = Fraction(0)
            return True
        return False


# ---------------------------------------------------------------------------
# Notation families as tables. A family maps a tag to its row: (token
# labels, warning or None). An _IN_X family holds the tags of <X>'s
# children, the others the texts of one element. A tag with no row gets no
# labels and the family's "unsupported" warning.
# {tag} in a warning is the tag looked up. _Converter.lookup reads them all.

_Row = tuple[tuple[str, ...], str | None]


class _Family(NamedTuple):
    rows: dict[str, _Row]
    unsupported: str | None


def _silent(labels: Iterable[str], prefix: str = "") -> dict[str, _Row]:
    """Rows without a warning: each label under its name less prefix."""
    return {label.removeprefix(prefix): ((label,), None) for label in labels}


# Measure content other than <attributes>, <note>, <backup>, <forward>,
# <direction> and <barline>: layout, playback and analysis content is
# excluded by design.
_IN_MEASURE = _Family(dict.fromkeys((
    "print", "sound", "listening", "grouping", "harmony", "figured-bass",
    "bookmark", "link"), ((), None)), "unhandled element <{tag}>")
# <attributes> children: the five read by handle_attributes, then the
# editorial, layout and instrument content excluded by design.
_IN_ATTRIBUTES = _Family(dict.fromkeys((
    "divisions", "key", "time", "staves", "clef",
    "footnote", "level", "part-symbol", "instruments"), ((), None)),
    "unhandled attributes content <{tag}>")
_IN_DYNAMICS = _Family(_silent(DYNAMICS, "dyn_"),
                       "dynamics mark <{tag}> unsupported")
# <dynamics> and <wedge> are read before this table.
_IN_DIRECTION_TYPE = _Family({
    **_silent(("segno", "coda")),
    **dict.fromkeys((
        "words", "rehearsal", "metronome", "octave-shift", "pedal", "dashes",
        "bracket", "principal-voice", "percussion", "accordion-registration",
        "string-mute", "scordatura", "image", "harp-pedals", "damp",
        "damp-all", "eyeglasses", "symbol", "other-direction",
        "staff-divide"), ((), "direction <{tag}> is not representable")),
}, "unhandled direction <{tag}>")
_REPEATS = _Family(_silent(REPEATS, "repeat_"),
                   "repeat direction {tag!r} unsupported")
_REGULAR, _HEAVY = "barline_tok_regular", "barline_tok_heavy"
_BAR_STYLES = _Family({
    "none": ((), None), "regular": ((_REGULAR,), None),
    "heavy": ((_HEAVY,), None), "light-light": ((_REGULAR, _REGULAR), None),
    "light-heavy": ((_REGULAR, _HEAVY), None),
    "heavy-light": ((_HEAVY, _REGULAR), None),
    "heavy-heavy": ((_HEAVY, _HEAVY), None),
    **dict.fromkeys(("dotted", "dashed", "tick", "short"), (
        (_REGULAR,), "bar style {tag!r} approximated as regular")),
}, "bar style {tag!r} unsupported")
_ACCIDENTALS = _Family({
    **_silent(("accidental_sharp", "accidental_flat", "accidental_natural"),
              "accidental_"),
    **dict.fromkeys(("double-sharp", "sharp-sharp"),
                    (("accidental_double_sharp",), None)),
    "flat-flat": (("accidental_double_flat",), None),
}, "accidental {tag!r} unsupported")
_IN_ARTICULATIONS = _Family({
    **_silent(("staccato", "accent", "tenuto", "caesura")),
    "strong-accent": (("accent",), "strong accent approximated as accent"),
    "breath-mark": ((), "breath mark is not representable"),
}, "articulation <{tag}> unsupported")
# A wavy line's stop is dropped before this table.
_IN_ORNAMENTS = _Family({
    "trill-mark": (("trill",), None), "turn": (("turn",), None),
    **dict.fromkeys(("delayed-turn", "inverted-turn"), (
        ("turn",), "{tag} approximated as a turn")),
    "wavy-line": (("wavy_line",), None),
    "accidental-mark": ((), None),  # engraved with its ornament
}, "ornament <{tag}> unsupported")
# Spanners, <articulations> and <ornaments> are read before this table.
_IN_NOTATIONS = _Family(_silent(("fermata", "arpeggiate")),
                        "notation <{tag}> unsupported")


class _NoteType(NamedTuple):
    quarters: Fraction  # its length
    kind: str  # the kind of chord it heads; long: longer than a breve
    flags: int
    rest: str | None  # None: a rest of the type is classified by duration


# Every MusicXML note type, longest first.
_NOTE_TYPES = {
    "maxima": _NoteType(Fraction(32), "long", 0, "rest_maxima"),
    "long": _NoteType(Fraction(16), "long", 0, "rest_long"),
    "breve": _NoteType(Fraction(8), "breve", 0, "rest_breve"),
    "whole": _NoteType(Fraction(4), "whole", 0, "rest_whole"),
    "half": _NoteType(Fraction(2), "half", 0, "rest_half"),
    "quarter": _NoteType(Fraction(1), "black", 0, "rest_quarter"),
    "eighth": _NoteType(Fraction(1, 2), "black", 1, "rest_eighth"),
    "16th": _NoteType(Fraction(1, 4), "black", 2, "rest_16th"),
    "32nd": _NoteType(Fraction(1, 8), "black", 3, "rest_32nd"),
    "64th": _NoteType(Fraction(1, 16), "black", 4, "rest_64th"),
    "128th": _NoteType(Fraction(1, 32), "black", 5, "rest_128th"),
    "256th": _NoteType(Fraction(1, 64), "black", 6, "rest_128th"),
    "512th": _NoteType(Fraction(1, 128), "black", 7, None),
    "1024th": _NoteType(Fraction(1, 256), "black", 8, None),
}


def _heads(approximated: str, other: tuple[str, str],
           **heads: tuple[str, str]) -> _Family:
    """A row per note type: the (notehead label, chord kind) of its kind in
    heads, else other, which warns approximated unless it is of that kind."""
    return _Family({tag: (head, None if head[1] == t.kind else approximated)
                    for tag, t in _NOTE_TYPES.items()
                    for head in [heads.get(t.kind, other)]}, None)


# head_class classifies a type with no row by its duration, with its own
# warning, before it looks the type up in one of these.
_PLAIN_HEADS = _heads("note type {tag!r} approximated as a breve",
                      ("notehead_breve", "breve"),
                      black=("notehead_black", "black"),
                      half=("notehead_white", "half"),
                      whole=("notehead_white", "whole"))
_CUE_HEADS = _heads("cue note type {tag!r} approximated as a cue whole",
                    ("notehead_cue_white", "whole"),
                    black=("notehead_cue_black", "black"),
                    half=("notehead_cue_white", "half"))
_GRACE_HEADS = _heads(  # the vocabulary has one grace head
    "grace note type {tag!r} approximated as a black grace head",
    ("notehead_grace_black", "black"))
# No labels: every notehead shape is drawn as a normal one.
_NOTEHEADS = _Family({"normal": ((), None)},
                     "notehead {tag!r} converted as a normal notehead")
# A rest type with no row is classified by its duration.
_REST_TYPES = _Family({tag: ((t.rest,), None)
                       for tag, t in _NOTE_TYPES.items() if t.rest},
                      "rest type {tag!r} unsupported; using duration")

# Spanner token prefix -> (name in warnings, types that open a pair, types
# passed over without a warning). A pair closes on type "stop".
_SPANNERS = {
    "slur": ("slur", ("start",), ("continue",)),
    "tied": ("tie", ("start",), ("continue", "let-ring")),
    "tuplet": ("tuplet", ("start",), ()),
    "wedge": ("wedge", ("crescendo", "diminuendo"), ("continue",)),
}


class _ChordEvent:
    __slots__ = ("onset", "voice", "notes", "stem", "beams", "flags",
                 "stemless")

    def __init__(self, onset: Fraction, voice: str) -> None:
        self.onset = onset
        self.voice = voice
        # each note's tokens: its notehead, then its modifiers
        self.notes: list[list[Token]] = []
        self.stem: str | None = None
        self.beams: dict[int, str] = {}
        self.flags = 0
        self.stemless = True  # until a note of a stemmed kind joins


class _PartState:
    __slots__ = ("cursor", "clefs", "fifths", "staves")

    def __init__(self) -> None:
        self.cursor = TimeCursor()
        self.clefs: dict[int, ClefState] = {}
        self.fifths: dict[int, int] = {}
        self.staves = 1

    def clef(self, staff: int) -> ClefState:
        return self.clefs.get(staff, ClefState.treble())


class ConvertOptions(NamedTuple):
    work_id: str | None = None
    use_print_breaks: bool = True
    explicit_breaks: tuple[str, ...] = ()  # measure numbers starting lines


class ConversionResult(NamedTuple):
    work: MTNWork
    warnings: list[str]
    data: bytes  # the .mtn.xml bytes of work


class _Converter:
    def __init__(self, options: ConvertOptions):
        self.options = options
        self.pair_numbers = itertools.count(1)
        self.warnings: list[str] = []
        self.open_spanners: dict[tuple, str] = {}
        self.unclosed_pairs: set[str] = set()  # started, not yet stopped
        self.where = ""
        self.part_scope = ""  # spanners never pair across parts

    def warn(self, message: str) -> None:
        self.warnings.append(f"{self.where}: {message}" if self.where
                             else message)

    def lookup(self, family: _Family, tag: str | None) -> tuple[str, ...]:
        """The labels of tag's row in family, after warning its warning."""
        labels, warning = family.rows.get(tag) or ((), family.unsupported)
        if warning is not None:
            self.warn(warning.format(tag=tag))
        return labels

    # -- token helpers ----------------------------------------------------

    def token(self, label: str, staff: int, step: int | None = None,
              pair: str | None = None, value: int | None = None) -> Token:
        """A token without an id: assign_ids numbers them all at the end."""
        return Token("", label, StaffPosition(staff, step),
                     pair_id=pair, numeric_value=value)

    def spanner(self, prefix: str, elem: ET.Element, staff: int,
                step: int | None) -> list[Token]:
        """[start or stop token] of a slur, tie, tuplet or wedge element, or
        []. Ties pair by staff position, the others by number attribute."""
        name, starts, silent = _SPANNERS[prefix]
        stype = elem.get("type")
        key = (self.part_scope, prefix,
               (staff, step) if prefix == "tied" else elem.get("number", "1"))
        if stype in starts:
            pair = f"q{next(self.pair_numbers)}"
            self.open_spanners[key] = pair
            self.unclosed_pairs.add(pair)
        elif stype == "stop":
            pair = self.open_spanners.pop(key, None)
            if pair is None:
                self.warn(f"{name} stop without a start; dropped")
                return []
            self.unclosed_pairs.remove(pair)
        else:
            if stype not in silent:
                self.warn(f"{name} type {stype!r} unsupported")
            return []
        return [self.token(f"{prefix}_{stype}", staff, pair=pair)]

    # -- conversion -------------------------------------------------------

    def convert(self, root: ET.Element, work_id: str) -> ConversionResult:
        if root.tag == "score-timewise":
            root = _timewise_to_partwise(root)
        if root.tag != "score-partwise":
            raise ConversionError(
                f"expected score-partwise or score-timewise, got <{root.tag}>")
        part_elems = root.findall("part")
        if not part_elems:
            raise ConversionError("score has no parts")
        # each part's measures as (element, number): a measure without a
        # number takes its 1-based place in its part
        parts = [(part_id, [(me, me.get("number", str(index + 1)))
                            for index, me in enumerate(pe.findall("measure"))])
                 for part_id, pe in zip(_part_ids(part_elems), part_elems)]
        breaks: set[str] = set(self.options.explicit_breaks)
        known_numbers: set[str] = set()
        for _, measures in parts:
            for me, number in measures:
                known_numbers.add(number)
                pr = me.find("print")
                if self.options.use_print_breaks and pr is not None and (
                        pr.get("new-system") == "yes"
                        or pr.get("new-page") == "yes"):
                    breaks.add(number)
        for number in self.options.explicit_breaks:
            if number not in known_numbers:
                raise ConversionError(
                    f"explicit break names unknown measure {number!r}")
        work = MTNWork(work_id, tuple(
            self.convert_part(part_id, measures, breaks)
            for part_id, measures in parts))
        dangling = self.unclosed_pairs
        for pid in sorted(dangling):
            self.warnings.append(
                f"spanner pair {pid} never completed; its token was dropped")
        if dangling:
            # a dropped wedge empties its direction node, which goes with it
            work = map_tokens(work, lambda tok: None if tok.pair_id in dangling
                              else tok)
        # One order pass: renumbering moves no sibling, so the writer skips
        # validate's order check. The drop above stays before it, since a
        # dropped token changes its note's fingerprint.
        work = assign_ids(canonicalize_work(work))
        try:
            data = _serialize_ordered(work)
        except InvalidWorkError as exc:
            raise ConversionError(
                f"conversion produced an invalid work: {exc}") from None
        return ConversionResult(work, self.warnings, data)

    def convert_part(self, part_id: str,
                     measures: list[tuple[ET.Element, str]],
                     breaks: set[str]) -> Part:
        self.part_scope = part_id
        state = _PartState()
        converted = []
        seen_ids: set[str] = set()
        for index, (me, number) in enumerate(measures):
            self.where = f"part {part_id} measure {number}"
            if me.get("implicit") == "yes":
                self.warn("pickup measure (implicit); converted as ordinary")
            line_start = index == 0 or number in breaks
            measure_id = f"{part_id}.{number}"
            while measure_id in seen_ids:
                measure_id += "+"
                self.warn(f"duplicate measure number; renamed {measure_id}")
            seen_ids.add(measure_id)
            converted.append(self.convert_measure(me, state, measure_id,
                                                  line_start))
        return Part(state.staves, tuple(converted))

    def convert_measure(self, me: ET.Element, state: _PartState,
                        measure_id: str, line_start: bool) -> Measure:
        state.cursor.reset()
        # staff -> (clef, fifths) in force at the measure start; a line
        # start restates those of each staff without a clef at onset 0.
        # A staff that never had a <clef> restates no clef token, as for
        # an unsupported clef.
        restate = ({staff: (state.clefs.get(staff, _NO_CLEF_TOKEN),
                            state.fifths.get(staff, 0))
                    for staff in state.clefs.keys() | state.fifths.keys()}
                   if line_start else {})
        top: list[Node] = []          # rests, directions, attributes
        events: list[_ChordEvent] = []
        barlines: list[tuple[str, list[Token]]] = []  # (location, tokens)
        for elem in me:
            tag = elem.tag
            if tag == "attributes":
                node = self.handle_attributes(elem, state, restate)
                if node is not None:
                    top.append(node)
            elif tag == "note":
                self.handle_note(elem, state, events, top)
            elif tag == "backup":
                if state.cursor.backup(self._duration(elem)):
                    self.warn("backup before measure start; clamped")
            elif tag == "forward":
                state.cursor.advance(self._duration(elem))
            elif tag == "direction":
                top.extend(self.handle_direction(elem, state))
            elif tag == "barline":
                got = self.handle_barline(elem)
                if got is not None:
                    barlines.append(got)
            else:
                self.lookup(_IN_MEASURE, tag)
        top.extend(self.build_note_groups(events))
        end = state.cursor.high_water
        for location, tokens in barlines:
            onset = Fraction(0) if location == "left" else end
            top.append(Node(BARLINE, tuple(tokens), onset=onset))
        blocks = [self.restatement(staff, clef, fifths)
                  for staff, (clef, fifths) in sorted(restate.items())]
        blocks = [block for block in blocks if block is not None]
        if blocks:
            top.append(Node(ATTRIBUTES, tuple(blocks), onset=Fraction(0),
                            synthetic=True))
        return Measure(measure_id, tuple(top), line_start=line_start)

    def restatement(self, staff: int, clef: ClefState,
                    fifths: int) -> Node | None:
        """The attr_staff node restating a clef and key on a line start:
        no clef token for an unsupported clef, no key node for no key."""
        kids = []
        if clef.label is not None:
            kids.append(Node(CLEF, (self.token(clef.label, staff,
                                               clef.line_step),)))
        label, steps = key_signature_steps(fifths, clef)
        if steps:
            kids.append(Node(KEY, tuple(self.token(label, staff, s)
                                        for s in steps)))
        return Node(ATTR_STAFF, tuple(kids)) if kids else None

    def integer(self, text: str, element: str) -> int:
        """text as an int, or a ConversionError naming element and text."""
        value = _integer(text)
        if value is None:
            raise ConversionError(
                f"{self.where}: <{element}> must be an integer, "
                f"got {text!r}")
        return value

    def positive_integer(self, text: str, element: str) -> int:
        """text as an int of 1 or more (a staff or beam number), or a
        ConversionError naming element and text."""
        value = self.integer(text, element)
        if value < 1:
            raise ConversionError(
                f"{self.where}: <{element}> must be a positive integer, "
                f"got {text!r}")
        return value

    def staff_number(self, text: str, element: str, state: _PartState) -> int:
        """A staff number of 1 or more, or a ConversionError naming element
        and text; the part gets at least that many staves."""
        staff = self.positive_integer(text, element)
        state.staves = max(state.staves, staff)
        return staff

    def staff_step(self, letter: str, octave: str, prefix: str,
                   clef: ClefState) -> int:
        """Staff step of <step> and <octave>, or with prefix "display-"."""
        octave_number = self.integer(octave, f"{prefix}octave")
        if letter not in _LETTERS:
            raise ConversionError(
                f"{self.where}: <{prefix}step> must be one of A-G, "
                f"got {letter!r}")
        return pitch_to_step(letter, octave_number, clef)

    def _duration(self, elem: ET.Element) -> int:
        value = _integer(elem.findtext("duration"))
        if value is None or value < 0:
            self.warn(f"missing or bad duration in <{elem.tag}>")
            return 0
        return value

    # -- attributes -------------------------------------------------------

    def handle_attributes(self, elem: ET.Element, state: _PartState,
                          restate: dict[int, tuple]) -> Node | None:
        """The attributes node, or None; a clef at onset 0 takes its staff
        out of restate (see convert_measure)."""
        onset = state.cursor.now
        divisions = elem.findtext("divisions")
        if divisions:
            value = _integer(divisions)
            if value is None or value < 1:
                raise ConversionError(
                    f"{self.where}: divisions must be a positive integer, "
                    f"got {divisions!r}")
            state.cursor.divisions = value
        staves = elem.findtext("staves")
        if staves:
            state.staves = max(state.staves,
                               self.integer(staves, "staves"))
        per_staff: dict[int, list[Node]] = {}

        for ce in elem.findall("clef"):
            staff = self.staff_number(ce.get("number", "1"), "clef number",
                                      state)
            sign = ce.findtext("sign", "G")
            line = ce.findtext("line")
            octave_change = self.integer(
                ce.findtext("clef-octave-change") or "0", "clef-octave-change")
            line_number = self.integer(line, "line") if line else None
            cs = clef_state(sign, line_number, octave_change)
            if onset == 0:
                restate.pop(staff, None)
            if cs is None:
                self.warn(f"clef sign {sign!r} unsupported; "
                          "treating staff as treble for positions")
                state.clefs[staff] = _NO_CLEF_TOKEN
                continue
            state.clefs[staff] = cs
            per_staff.setdefault(staff, []).append(
                Node(CLEF, (self.token(cs.label, staff, cs.line_step),)))

        for ke in elem.findall("key"):
            target_staves = self.target_staves(ke, "key number", state)
            raw = ke.findtext("fifths")
            if raw is None:
                self.warn("key without fifths")
                continue
            fifths = self.integer(raw, "fifths")
            if abs(fifths) > 7:
                self.warn(f"key with {fifths} fifths clipped to 7 accidentals")
            for staff in target_staves:
                tokens = self.key_tokens(fifths, staff, state)
                state.fifths[staff] = fifths
                if tokens:
                    per_staff.setdefault(staff, []).append(
                        Node(KEY, tuple(tokens)))

        for te in elem.findall("time"):
            if len(te.findall("beats")) != len(te.findall("beat-type")):
                self.warn("unpaired <beats> or <beat-type> in time "
                          "signature dropped")
            target_staves = self.target_staves(te, "time number", state)
            placed = self.time_signature(te)
            for staff in target_staves if placed else ():
                per_staff.setdefault(staff, []).append(Node(TIME_SIG, tuple(
                    self.token(label, staff, step, value=value)
                    for label, step, value in placed)))

        for tag in dict.fromkeys(child.tag for child in elem):
            self.lookup(_IN_ATTRIBUTES, tag)

        if not per_staff:
            return None
        blocks = tuple(Node(ATTR_STAFF, tuple(kids))
                       for _, kids in sorted(per_staff.items()))
        return Node(ATTRIBUTES, blocks, onset=onset)

    def target_staves(self, elem: ET.Element, element: str,
                      state: _PartState) -> Iterable[int]:
        """The staff that a key or time names by its number, else every
        staff of the part."""
        number = elem.get("number")
        return ([self.staff_number(number, element, state)] if number
                else range(1, state.staves + 1))

    def key_tokens(self, fifths: int, staff: int,
                   state: _PartState) -> list[Token]:
        clef = state.clef(staff)
        if fifths == 0:
            previous = state.fifths.get(staff, 0)
            if previous == 0:
                return []
            _, steps = key_signature_steps(previous, clef)
            return [self.token("accidental_natural", staff, s) for s in steps]
        label, steps = key_signature_steps(fifths, clef)
        return [self.token(label, staff, s) for s in steps]

    def time_signature(self, te: ET.Element) -> list[tuple]:
        """The (label, step, value) of each token a <time> puts on a staff."""
        symbol = te.get("symbol")
        if te.find("senza-misura") is not None:
            self.warn("senza-misura time signature has no tokens")
            return []
        if symbol in ("common", "cut"):
            return [(f"timesig_{symbol}", None, None)]
        if symbol not in (None, "normal"):
            self.warn(f"time symbol {symbol!r} rendered as numbers")
        tokens: list[tuple] = []
        beats_list = te.findall("beats")
        types_list = te.findall("beat-type")
        for be, ty in zip(beats_list, types_list):
            for raw, step in ((be.text, 8), (ty.text, 4)):
                for piece in (raw or "").split("+"):
                    piece = piece.strip()
                    if not (piece.isascii() and piece.isdecimal()):
                        self.warn(f"non-numeric time signature part {raw!r}")
                        continue
                    tokens.append(("timesig_number", step, int(piece)))
        if len(beats_list) > 1:
            self.warn("compound interchangeable time signature flattened")
        return tokens

    # -- directions -------------------------------------------------------

    def handle_direction(self, elem: ET.Element,
                         state: _PartState) -> list[Node]:
        staff = self.staff_number(elem.findtext("staff") or "1", "staff",
                                  state)
        onset = state.cursor.now
        offset = elem.findtext("offset")
        if offset:
            value = _integer(offset)
            if value is None:
                self.warn(f"bad direction offset {offset!r}")
            else:
                onset = onset + state.cursor.quarters(value)
            if onset < 0:
                self.warn("direction offset before measure start; clamped")
                onset = Fraction(0)
        tokens: list[Token] = []
        for dt in elem.findall("direction-type"):
            for child in dt:
                if child.tag == "wedge":
                    tokens.extend(self.spanner("wedge", child, staff, None))
                    continue
                labels = ([label for mark in child
                           for label in self.lookup(_IN_DYNAMICS, mark.tag)]
                          if child.tag == "dynamics"
                          else self.lookup(_IN_DIRECTION_TYPE, child.tag))
                tokens.extend(self.token(label, staff) for label in labels)
        return [Node(DIRECTION, (token,), onset=onset) for token in tokens]

    # -- barlines ---------------------------------------------------------

    def handle_barline(self, elem: ET.Element) -> tuple[str, list[Token]] | None:
        location = elem.get("location", "right")
        tokens = [self.token(label, 1) for label in self.lookup(
            _BAR_STYLES, elem.findtext("bar-style", "none"))]
        repeat = elem.find("repeat")
        if repeat is not None:
            tokens.extend(self.token(label, 1) for label in self.lookup(
                _REPEATS, repeat.get("direction")))
        for fe in elem.findall("fermata"):
            tokens.append(self.token("fermata", 1))
        if elem.find("ending") is not None:
            self.warn("volta ending bracket is not representable")
        if not tokens:
            return None
        return (location, tokens)

    # -- notes ------------------------------------------------------------

    def handle_note(self, elem: ET.Element, state: _PartState,
                    events: list[_ChordEvent], top: list[Node]) -> None:
        staff = self.staff_number(elem.findtext("staff") or "1", "staff",
                                  state)
        voice = elem.findtext("voice") or "1"
        grace = elem.find("grace") is not None
        is_chord_note = elem.find("chord") is not None
        duration = 0 if grace else self._duration(elem)

        rest_elem = elem.find("rest")
        if rest_elem is not None:
            onset = state.cursor.advance(duration)
            node = self.rest_node(elem, rest_elem, staff, onset,
                                  state.cursor.quarters(duration))
            top.append(node)
            return

        pitch = elem.find("pitch")
        unpitched = elem.find("unpitched")
        if pitch is not None:
            step = self.staff_step(pitch.findtext("step", "C"),
                                   pitch.findtext("octave", "4"), "",
                                   state.clef(staff))
        elif unpitched is not None:
            letter = unpitched.findtext("display-step")
            octave_text = unpitched.findtext("display-octave")
            if letter and octave_text:
                step = self.staff_step(letter, octave_text, "display-",
                                       state.clef(staff))
            else:
                self.warn("unpitched note without display position; "
                          "placed on the middle line")
                step = MIDDLE_STEP
        else:
            self.warn("note without pitch; placed on the middle line")
            step = MIDDLE_STEP

        if is_chord_note and events:
            event = events[-1]
        else:
            onset = (state.cursor.now if grace
                     else state.cursor.advance(duration))
            event = _ChordEvent(onset, voice)
            events.append(event)

        ntype = elem.findtext("type")
        head, kind = self.head_class(elem, ntype, duration, state, grace)
        shape = elem.findtext("notehead")
        if shape is not None:
            self.lookup(_NOTEHEADS, shape.strip())
        tokens = [self.token(head, staff, step)]
        self.note_modifiers(elem, tokens)
        event.notes.append(tokens)
        # a mixed chord keeps a stem if any member is a stemmed shape
        event.stemless = event.stemless and kind in ("whole", "breve")
        stem_text = elem.findtext("stem")
        if stem_text in ("up", "down") and event.stem is None:
            event.stem = f"stem_{stem_text}"
        elif stem_text == "none":
            event.stem = "none"
        for be in elem.findall("beam"):
            level = self.positive_integer(be.get("number", "1"),
                                          "beam number")
            event.beams[level] = (be.text or "").strip()
        # Note groups are built from level-1 beams only. Every chord gets the
        # flags of its type, and stem_node drops them inside a beamed group.
        if ntype in _NOTE_TYPES and _NOTE_TYPES[ntype].flags:
            if event.beams and 1 not in event.beams:
                self.warn("beam without a level-1 beam ignored; "
                          "the note keeps its flags")
            event.flags = _NOTE_TYPES[ntype].flags

    def head_class(self, elem: ET.Element, ntype: str | None, duration: int,
                   state: _PartState, grace: bool) -> tuple[str, ...]:
        """(notehead token label, chord kind) for one note element. A type
        with no row, or a missing one on a note neither grace nor cue, is
        classified by the note's duration."""
        cue = elem.find("cue") is not None
        if ntype not in _NOTE_TYPES and not (
                ntype is None and (grace or cue)):
            quarters = state.cursor.quarters(duration) if duration else Fraction(1)
            guess = ("breve" if quarters >= 8 else "whole" if quarters >= 4
                     else "half" if quarters >= 2 else "quarter")
            what = ("note without type" if ntype is None
                    else f"note type {ntype!r} unsupported")
            self.warn(f"{what}; assuming {guess} from duration")
            ntype = guess
        family = _GRACE_HEADS if grace else _CUE_HEADS if cue else _PLAIN_HEADS
        return self.lookup(family, ntype or "quarter")  # typeless: black

    def note_modifiers(self, elem: ET.Element, tokens: list[Token]) -> None:
        """Append the modifiers of a note or rest to tokens, which holds its
        notehead or rest token."""
        staff, step = tokens[0].position
        acc = elem.findtext("accidental")
        if acc is not None:
            tokens.extend(self.token(label, staff, step) for label
                          in self.lookup(_ACCIDENTALS, acc.strip()))
        for _ in elem.findall("dot"):
            tokens.append(self.token("dot", staff))

        handled_tie = False
        for notations in elem.findall("notations"):
            for item in notations:
                tag = item.tag
                if tag in ("slur", "tied", "tuplet"):
                    tokens.extend(self.spanner(tag, item, staff, step))
                    handled_tie = handled_tie or tag == "tied"
                    continue
                if tag == "articulations":
                    labels = [label for art in item
                              for label in self.lookup(_IN_ARTICULATIONS,
                                                       art.tag)]
                elif tag == "ornaments":
                    labels = [label for orn in item
                              if not (orn.tag == "wavy-line"
                                      and orn.get("type") == "stop")
                              for label in self.lookup(_IN_ORNAMENTS, orn.tag)]
                else:
                    labels = self.lookup(_IN_NOTATIONS, tag)
                tokens.extend(self.token(label, staff) for label in labels)
        if not handled_tie:
            for tie in elem.findall("tie"):
                tokens.extend(self.spanner("tied", tie, staff, step))

    def rest_node(self, elem: ET.Element, rest_elem: ET.Element, staff: int,
                  onset: Fraction, quarters: Fraction) -> Node:
        ntype = elem.findtext("type")
        if rest_elem.get("measure") == "yes":
            label = "rest_breve" if quarters >= 8 else "rest_whole"
        elif ntype is None:
            self.warn("typeless rest classified by duration")
            label = ("rest_whole" if quarters == 0
                     else _rest_for_duration(quarters))
        else:
            labels = self.lookup(_REST_TYPES, ntype)
            label = labels[0] if labels else _rest_for_duration(quarters)
        tokens = [self.token(label, staff)]
        self.note_modifiers(elem, tokens)
        return Node(REST, tuple(tokens), onset=onset)

    # -- beam grouping ----------------------------------------------------

    def build_note_groups(self, events: list[_ChordEvent]) -> list[Node]:
        """Assemble per-voice note groups from beam states."""
        groups: list[Node] = []
        by_voice: dict[str, list[_ChordEvent]] = {}
        for ev in events:
            by_voice.setdefault(ev.voice, []).append(ev)
        for voice in sorted(by_voice):
            run: list[_ChordEvent] = []
            for ev in by_voice[voice]:
                if ev.beams.get(1) in ("begin", "continue", "end"):
                    run.append(ev)
                    if ev.beams.get(1) == "end":
                        groups.append(self.beamed_group(run, 1))
                        run = []
                else:
                    if run:  # unterminated run
                        self.warn("beam run without an end; closed early")
                        groups.append(self.beamed_group(run, 1))
                        run = []
                    if 1 in ev.beams:
                        self.warn(f"level-1 beam {ev.beams[1]!r} outside a "
                                  "run ignored; the note keeps its flags")
                    groups.append(self.singleton_group(ev))
            if run:
                self.warn("beam run without an end; closed early")
                groups.append(self.beamed_group(run, 1))
        return groups

    def singleton_group(self, ev: _ChordEvent) -> Node:
        chord = self.chord_node(ev, beamed=False)
        return Node(NOTE_GROUP, (chord,), onset=chord.onset)

    def beamed_group(self, run: list[_ChordEvent], level: int) -> Node:
        """One beam level's run; deeper levels nest, full-width deeper runs
        collapse into extra beam tokens on the same group."""
        staff = run[0].notes[0][0].position.staff
        beam_tokens = [self.token("beam", staff)]
        # a deeper beam spanning the whole run joins this group directly
        while (len(run) > 1
               and run[0].beams.get(level + 1) == "begin"
               and run[-1].beams.get(level + 1) == "end"
               and all(ev.beams.get(level + 1) == "continue"
                       for ev in run[1:-1])):
            beam_tokens.append(self.token("beam", staff))
            level += 1
        children: list[Node] = []
        i = 0
        while i < len(run):
            ev = run[i]
            state_here = ev.beams.get(level + 1)
            if state_here in ("begin", "continue", "end"):
                sub = [ev]
                while (state_here != "end" and i + 1 < len(run)
                       and run[i + 1].beams.get(level + 1)
                       in ("continue", "end")):
                    i += 1
                    sub.append(run[i])
                    state_here = run[i].beams.get(level + 1)
                children.append(self.beamed_group(sub, level + 1))
            elif state_here in ("forward hook", "backward hook"):
                hook_staff = ev.notes[0][0].position.staff
                chord = self.chord_node(ev, beamed=True)
                children.append(Node(
                    NOTE_GROUP,
                    (self.token("beam", hook_staff), chord),
                    onset=chord.onset))
            else:
                children.append(self.chord_node(ev, beamed=True))
            i += 1
        onset = min(c.onset for c in children if c.onset is not None)
        return Node(NOTE_GROUP, tuple(beam_tokens) + tuple(children),
                    onset=onset)

    def chord_node(self, ev: _ChordEvent, beamed: bool) -> Node:
        notes = tuple(Node(NOTE, tuple(tokens)) for tokens in ev.notes)
        stem = self.stem_node(ev, beamed)
        kids = ((stem,) if stem is not None else ()) + notes
        return Node(CHORD, kids, onset=ev.onset)

    def stem_node(self, ev: _ChordEvent, beamed: bool) -> Node | None:
        if ev.stemless or ev.stem == "none":
            return None
        direction = ev.stem or self.infer_stem(ev)
        staff = ev.notes[0][0].position.staff
        flags = 0 if beamed else ev.flags
        tokens = [self.token(direction, staff)]
        tokens.extend(self.token("flag", staff) for _ in range(flags))
        return Node(STEM, tuple(tokens))

    def infer_stem(self, ev: _ChordEvent) -> str:
        steps = [tokens[0].position.step for tokens in ev.notes]
        above = max(steps) - MIDDLE_STEP
        below = MIDDLE_STEP - min(steps)
        return "stem_down" if above >= below else "stem_up"


def _rest_for_duration(quarters: Fraction) -> str:
    """The rest of the longest type no longer than quarters."""
    return next((t.rest for t in _NOTE_TYPES.values()
                 if t.rest and t.quarters <= quarters), "rest_128th")


# ---------------------------------------------------------------------------
# Entry points.

def _part_ids(part_elems: list[ET.Element]) -> list[str]:
    """The id of each <part>, "P" where it has none; a ConversionError if
    two of them share one."""
    part_ids = [pe.get("id", "P") for pe in part_elems]
    for part_id in part_ids:
        if part_ids.count(part_id) > 1:
            raise ConversionError(
                f"part id {part_id!r} is used by more than one part")
    return part_ids


def _timewise_to_partwise(root: ET.Element) -> ET.Element:
    out = ET.Element("score-partwise")
    for child in root:
        if child.tag != "measure":
            out.append(child)
    parts: dict[str, ET.Element] = {}
    for me in root.findall("measure"):
        part_elems = me.findall("part")
        for pid, pe in zip(_part_ids(part_elems), part_elems):
            if pid not in parts:
                parts[pid] = ET.SubElement(out, "part", {"id": pid})
            measure = ET.SubElement(parts[pid], "measure",
                                    dict(me.attrib))
            measure.extend(list(pe))
    return out


def convert_score(source: bytes | str,
                  options: ConvertOptions | None = None) -> ConversionResult:
    """Convert a MusicXML document to a canonical tree-score work."""
    options = options or ConvertOptions()
    try:
        root = ET.fromstring(source)
    except ET.ParseError as exc:
        raise ConversionError(f"unparseable MusicXML: {exc}") from exc
    work_id = options.work_id or "work"
    return _Converter(options).convert(root, work_id)


def convert_path(path: str | Path,
                 options: ConvertOptions | None = None) -> ConversionResult:
    """Convert a .musicxml/.xml file or a compressed .mxl archive."""
    path = Path(path)
    options = options or ConvertOptions()
    if options.work_id is None:
        options = options._replace(work_id=path.stem)
    data = path.read_bytes()
    if zipfile.is_zipfile(BytesIO(data)):
        data = _read_mxl(data, path)
    try:
        return convert_score(data, options)
    except ConversionError as exc:
        raise ConversionError(f"{path}: {exc}") from None


def _read_mxl(data: bytes, path: Path) -> bytes:
    try:
        archive = zipfile.ZipFile(BytesIO(data))
    except zipfile.BadZipFile as exc:
        raise ConversionError(f"{path}: corrupt archive: {exc}") from None
    except NotImplementedError as exc:  # a zip version zipfile cannot read
        raise ConversionError(f"{path}: unreadable archive: {exc}") from None
    with archive as zf:
        rootfile = None
        try:
            container = ET.fromstring(
                _read_member(zf, "META-INF/container.xml", path))
            first = container.find(".//rootfile")
            if first is not None:
                rootfile = first.get("full-path")
        except KeyError:
            pass
        except ET.ParseError as exc:
            raise ConversionError(
                f"{path}: unparseable META-INF/container.xml: {exc}") from None
        if rootfile is None:
            candidates = [n for n in zf.namelist()
                          if n.endswith(".xml") and not n.startswith("META-INF")]
            if not candidates:
                raise ConversionError(f"{path}: no score file in archive")
            rootfile = candidates[0]
        try:
            return _read_member(zf, rootfile, path)
        except KeyError:
            raise ConversionError(
                f"{path}: archive has no member {rootfile!r}") from None


def _read_member(zf: zipfile.ZipFile, name: str, path: Path) -> bytes:
    """An archive member's bytes, refused before reading if too large."""
    size = zf.getinfo(name).file_size
    if size > MAX_MXL_MEMBER_BYTES:
        raise ConversionError(
            f"{path}: archive member {name!r} unpacks to {size} bytes, "
            f"over the limit of {MAX_MXL_MEMBER_BYTES}")
    try:
        return zf.read(name)
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as exc:
        # ValueError: a header offset that seeks before the archive start
        raise ConversionError(
            f"{path}: archive member {name!r} is corrupt: {exc}") from None
    except RuntimeError as exc:
        # Encrypted, or (NotImplementedError) compressed by a method or
        # flagged with a feature zipfile cannot read.
        raise ConversionError(
            f"{path}: archive member {name!r} cannot be read: {exc}") from None
