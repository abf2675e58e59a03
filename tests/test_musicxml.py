"""Converter tests against hand-computed fixture expectations."""

import io
import re
import struct
import zipfile
from fractions import Fraction
from pathlib import Path

import pytest

from test_golden_line_starts import BOTH, BREAK, CASES, two_staff

from mtnkit.canonical import assign_ids, canonicalize
from mtnkit.cli import main
from mtnkit.model import (
    ATTRIBUTES, BARLINE, CHORD, DIRECTION, NOTE_GROUP, REST, Token,
    iter_tokens, map_tokens, validate,
)
from mtnkit.musicxml import (
    ClefState, ConversionError, ConvertOptions, TimeCursor, clef_state,
    convert_path, convert_score, key_signature_steps, pitch_to_step,
)
from mtnkit.xmlio import parse_work, serialize_work

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "musicxml"


def score(measures: str, part_id: str = "P1") -> str:
    return f"""<score-partwise version="4.0">
  <part-list><score-part id="{part_id}"><part-name>x</part-name></score-part></part-list>
  <part id="{part_id}">{measures}</part>
</score-partwise>"""


def note(pitch: str, octave: int, duration: int, ntype: str = "",
         extra: str = "") -> str:
    type_elem = f"<type>{ntype}</type>" if ntype else ""
    return (f"<note><pitch><step>{pitch}</step><octave>{octave}</octave>"
            f"</pitch><duration>{duration}</duration>{type_elem}{extra}</note>")


ATTRS_44 = """<attributes><divisions>4</divisions>
  <key><fifths>0</fifths></key>
  <time><beats>4</beats><beat-type>4</beat-type></time>
  <clef><sign>G</sign><line>2</line></clef></attributes>"""


def tokens_of(measure):
    out = []

    def walk(node):
        for child in node.children:
            if isinstance(child, Token):
                out.append(child)
            else:
                walk(child)
    for child in measure.children:
        walk(child)
    return out


def chord_onsets(measure):
    onsets = []

    def walk(node):
        if node.kind == CHORD:
            onsets.append(node.onset)
        for child in node.children:
            if not isinstance(child, Token):
                walk(child)
    for child in measure.children:
        if not isinstance(child, Token):
            walk(child)
    return sorted(onsets)


# -- pitch geometry ---------------------------------------------------------

def test_treble_steps():
    treble = ClefState.treble()
    assert pitch_to_step("C", 4, treble) == 0
    assert pitch_to_step("E", 4, treble) == 2
    assert pitch_to_step("F", 5, treble) == 10
    assert pitch_to_step("A", 3, treble) == -2


def test_bass_steps():
    bass = clef_state("F", 4)
    assert bass.label == "clef_F"
    assert bass.line_step == 8
    assert pitch_to_step("E", 2, bass) == 0
    assert pitch_to_step("A", 3, bass) == 10
    assert pitch_to_step("G", 2, bass) == 2


def test_c_clef_steps():
    alto = clef_state("C", 3)
    tenor = clef_state("C", 4)
    assert alto.label == "clef_C" and alto.line_step == 6
    assert pitch_to_step("D", 3, alto) == 0
    assert pitch_to_step("C", 4, alto) == 6
    assert tenor.line_step == 8
    assert pitch_to_step("B", 2, tenor) == 0


def test_octave_clef():
    vocal_tenor = clef_state("G", 2, octave_change=-1)
    assert vocal_tenor.label == "clef_oct_G"
    # written G3 sits on the clef's line
    assert pitch_to_step("G", 3, vocal_tenor) == 4
    assert pitch_to_step("C", 3, vocal_tenor) == 0


def test_unsupported_clef_sign():
    assert clef_state("percussion", None) is None


# -- key signature geometry ---------------------------------------------------

def test_key_steps_treble():
    label, steps = key_signature_steps(3, ClefState.treble())
    assert label == "accidental_sharp"
    assert steps == (10, 7, 11)
    label, steps = key_signature_steps(-2, ClefState.treble())
    assert label == "accidental_flat"
    assert steps == (6, 9)


def test_key_steps_other_clefs():
    assert key_signature_steps(7, clef_state("F", 4))[1] == \
        (8, 5, 9, 6, 3, 7, 4)
    assert key_signature_steps(7, clef_state("C", 4))[1] == \
        (4, 8, 5, 9, 6, 10, 7)
    assert key_signature_steps(-7, clef_state("C", 3))[1] == \
        (5, 8, 4, 7, 3, 6, 2)


# -- cursor -------------------------------------------------------------------

def test_cursor_advance_and_backup():
    cur = TimeCursor(480)
    assert cur.advance(480) == 0
    assert cur.now == 1
    cur.backup(480)
    assert cur.now == 0
    cur.divisions = 24
    assert cur.advance(16) == 0
    assert cur.now == Fraction(2, 3)


def test_cursor_backup_stops_at_the_measure_start():
    cur = TimeCursor(4)
    cur.advance(4)
    assert cur.backup(4) is False
    assert cur.backup(1) is True
    assert cur.now == 0


# -- basic conversion ---------------------------------------------------------

def test_single_quarter_note():
    xml = score(f'<measure number="1">{ATTRS_44}'
                + note("C", 4, 4, "quarter")
                + "</measure>")
    result = convert_score(xml)
    work = result.work
    assert validate(work) == []
    (measure,) = work.parts[0].measures
    assert measure.id == "P1.1"
    assert measure.line_start
    groups = [c for c in measure.children if c.kind == NOTE_GROUP]
    assert len(groups) == 1
    chord = next(c for c in groups[0].children if c.kind == CHORD)
    assert chord.onset == 0
    heads = [t for t in tokens_of(measure) if t.label == "notehead_black"]
    assert len(heads) == 1
    assert heads[0].position.staff == 1
    assert heads[0].position.step == 0


def test_time_signature_tokens():
    xml = score(f'<measure number="1">{ATTRS_44}'
                + note("C", 4, 16, "whole") + "</measure>")
    measure = convert_score(xml).work.parts[0].measures[0]
    numbers = [t for t in tokens_of(measure) if t.label == "timesig_number"]
    assert sorted((t.position.step, t.numeric_value) for t in numbers) == \
        [(4, 4), (8, 4)]


def test_whole_note_has_no_stem():
    xml = score(f'<measure number="1">{ATTRS_44}'
                + note("C", 5, 16, "whole") + "</measure>")
    measure = convert_score(xml).work.parts[0].measures[0]
    labels = [t.label for t in tokens_of(measure)]
    assert "notehead_white" in labels
    assert "stem_up" not in labels and "stem_down" not in labels


def test_two_voices_with_backup():
    body = (f'<measure number="1">{ATTRS_44}'
            + note("C", 5, 4, "quarter", "<voice>1</voice>")
            + note("D", 5, 4, "quarter", "<voice>1</voice>")
            + "<backup><duration>8</duration></backup>"
            + note("E", 4, 8, "half", "<voice>2</voice>")
            + "</measure>")
    measure = convert_score(score(body)).work.parts[0].measures[0]
    assert chord_onsets(measure) == [0, 0, 1]
    groups = [c for c in measure.children if c.kind == NOTE_GROUP]
    assert len(groups) == 3


def test_divisions_thirds():
    # triplet eighths: 16 of 24 divisions each
    triplet = "".join(
        note("C", 5, 16, "eighth",
             "<time-modification><actual-notes>3</actual-notes>"
             "<normal-notes>2</normal-notes></time-modification>"
             f'<beam number="1">{state}</beam>')
        for state in ("begin", "continue", "end"))
    body = ('<measure number="1"><attributes><divisions>24</divisions>'
            '<clef><sign>G</sign><line>2</line></clef></attributes>'
            + triplet + "</measure>")
    measure = convert_score(score(body)).work.parts[0].measures[0]
    assert chord_onsets(measure) == [0, Fraction(2, 3), Fraction(4, 3)]


# -- beam grouping ------------------------------------------------------------

def beam16(pitch, octave, b1, b2):
    return note(pitch, octave, 1, "16th",
                f'<beam number="1">{b1}</beam><beam number="2">{b2}</beam>')


def test_nested_beams_two_plus_two():
    body = (f'<measure number="1">{ATTRS_44}'
            + beam16("C", 5, "begin", "begin") + beam16("D", 5, "continue", "end")
            + beam16("E", 5, "continue", "begin") + beam16("F", 5, "end", "end")
            + "</measure>")
    measure = convert_score(score(body)).work.parts[0].measures[0]
    outer = next(c for c in measure.children if c.kind == NOTE_GROUP)
    own_beams = [c for c in outer.children
                 if isinstance(c, Token) and c.label == "beam"]
    subgroups = [c for c in outer.children
                 if not isinstance(c, Token) and c.kind == NOTE_GROUP]
    assert len(own_beams) == 1
    assert len(subgroups) == 2
    for sub in subgroups:
        sub_beams = [c for c in sub.children
                     if isinstance(c, Token) and c.label == "beam"]
        chords = [c for c in sub.children
                  if not isinstance(c, Token) and c.kind == CHORD]
        assert len(sub_beams) == 1 and len(chords) == 2


def test_full_width_second_beam_collapses():
    body = (f'<measure number="1">{ATTRS_44}'
            + beam16("C", 5, "begin", "begin") + beam16("D", 5, "end", "end")
            + "</measure>")
    measure = convert_score(score(body)).work.parts[0].measures[0]
    group = next(c for c in measure.children if c.kind == NOTE_GROUP)
    beams = [c for c in group.children
             if isinstance(c, Token) and c.label == "beam"]
    chords = [c for c in group.children
              if not isinstance(c, Token) and c.kind == CHORD]
    assert len(beams) == 2
    assert len(chords) == 2


def test_unbeamed_eighth_gets_flag():
    xml = score(f'<measure number="1">{ATTRS_44}'
                + note("C", 5, 2, "eighth") + note("D", 5, 2, "eighth")
                + note("E", 4, 4, "quarter") + note("F", 4, 8, "half")
                + "</measure>")
    measure = convert_score(xml).work.parts[0].measures[0]
    flags = [t for t in tokens_of(measure) if t.label == "flag"]
    assert len(flags) == 2


def test_beamed_eighths_have_no_flags():
    body = (f'<measure number="1">{ATTRS_44}'
            + note("C", 5, 2, "eighth", '<beam number="1">begin</beam>')
            + note("D", 5, 2, "eighth", '<beam number="1">end</beam>')
            + "</measure>")
    measure = convert_score(score(body)).work.parts[0].measures[0]
    labels = [t.label for t in tokens_of(measure)]
    assert labels.count("beam") == 1
    assert labels.count("flag") == 0


def test_beams_without_level_one_keep_the_flags():
    # Note groups are built from level-1 beams only, so eighths beamed at
    # level 2 alone get no beam: they keep their flags, with a warning.
    body = (f'<measure number="1">{ATTRS_44}'
            + note("C", 5, 2, "eighth", '<beam number="2">begin</beam>')
            + note("D", 5, 2, "eighth", '<beam number="2">end</beam>')
            + note("E", 5, 12, "half", "<dot/>") + "</measure>")
    result = convert_score(score(body))
    labels = [t.label for t in tokens_of(result.work.parts[0].measures[0])]
    assert labels.count("flag") == 2
    assert labels.count("beam") == 0
    assert result.warnings == [
        "part P1 measure 1: beam without a level-1 beam ignored; "
        "the note keeps its flags"] * 2
    assert validate(result.work) == []


@pytest.mark.parametrize("hook", ["forward hook", "backward hook"])
def test_lone_level_one_hook_keeps_the_flag(hook):
    # A level-1 hook starts no beam run, so the eighth is not beamed.
    body = (f'<measure number="1">{ATTRS_44}'
            + note("C", 5, 2, "eighth", f'<beam number="1">{hook}</beam>')
            + note("E", 5, 14, "half", "<dot/><dot/>") + "</measure>")
    result = convert_score(score(body))
    (eighth, _) = [c for c in result.work.parts[0].measures[0].children
                   if c.kind == NOTE_GROUP]
    assert [t.label for t in iter_tokens(eighth)] == [
        "flag", "stem_down", "notehead_black"]
    assert result.warnings == [
        f"part P1 measure 1: level-1 beam {hook!r} outside a run ignored; "
        "the note keeps its flags"]


# -- chords, graces, stems ----------------------------------------------------

def test_chord_event():
    body = (f'<measure number="1">{ATTRS_44}'
            + note("C", 4, 4, "quarter")
            + note("E", 4, 4, "quarter", "<chord/>")
            + note("G", 4, 4, "quarter", "<chord/>")
            + "</measure>")
    measure = convert_score(score(body)).work.parts[0].measures[0]
    assert chord_onsets(measure) == [0]
    heads = [t for t in tokens_of(measure) if t.label == "notehead_black"]
    assert sorted(t.position.step for t in heads) == [0, 2, 4]


def test_grace_note():
    body = (f'<measure number="1">{ATTRS_44}'
            + '<note><grace/><pitch><step>D</step><octave>5</octave></pitch>'
            + "<type>eighth</type></note>"
            + note("C", 5, 16, "whole")
            + "</measure>")
    measure = convert_score(score(body)).work.parts[0].measures[0]
    labels = [t.label for t in tokens_of(measure)]
    assert "notehead_grace_black" in labels
    assert chord_onsets(measure) == [0, 0]
    # the grace is stemmed and flagged, the whole note is not
    assert labels.count("flag") == 1


def test_stem_inference():
    body = (f'<measure number="1">{ATTRS_44}'
            + note("C", 4, 8, "half") + note("C", 6, 8, "half")
            + "</measure>")
    measure = convert_score(score(body)).work.parts[0].measures[0]
    stems = sorted(t.label for t in tokens_of(measure)
                   if t.label.startswith("stem_"))
    assert stems == ["stem_down", "stem_up"]


def test_explicit_stem_wins():
    body = (f'<measure number="1">{ATTRS_44}'
            + note("C", 4, 8, "half", "<stem>down</stem>")
            + note("C", 6, 8, "half", "<stem>up</stem>")
            + "</measure>")
    measure = convert_score(score(body)).work.parts[0].measures[0]
    stems = sorted(t.label for t in tokens_of(measure)
                   if t.label.startswith("stem_"))
    assert stems == ["stem_down", "stem_up"]


# -- rests, dots, accidentals -------------------------------------------------

def test_whole_measure_rest():
    body = (f'<measure number="1">{ATTRS_44}'
            '<note><rest measure="yes"/><duration>16</duration></note>'
            "</measure>")
    measure = convert_score(score(body)).work.parts[0].measures[0]
    rests = [c for c in measure.children if c.kind == REST]
    assert len(rests) == 1
    assert rests[0].onset == 0
    assert rests[0].children[0].label == "rest_whole"


def test_typeless_rest_shorter_than_a_64th_is_a_128th():
    # one division of 32 per quarter: below every duration in the table
    body = ('<measure number="1">'
            + ATTRS_44.replace("<divisions>4<", "<divisions>32<")
            + "<note><rest/><duration>1</duration></note></measure>")
    result = convert_score(score(body))
    measure = result.work.parts[0].measures[0]
    rests = [c for c in measure.children if c.kind == REST]
    assert [r.children[0].label for r in rests] == ["rest_128th"]
    assert result.warnings == [
        "part P1 measure 1: typeless rest classified by duration"]


def test_dot_and_accidental():
    body = (f'<measure number="1">{ATTRS_44}'
            + note("F", 4, 6, "quarter",
                   "<dot/><accidental>sharp</accidental>")
            + note("G", 4, 2, "eighth") + note("A", 4, 8, "half")
            + "</measure>")
    measure = convert_score(score(body)).work.parts[0].measures[0]
    labels = [t.label for t in tokens_of(measure)]
    assert labels.count("dot") == 1
    assert labels.count("accidental_sharp") == 1


# -- spanners -----------------------------------------------------------------

def test_nested_slurs_get_distinct_pairs():
    body = (f'<measure number="1">{ATTRS_44}'
            + note("C", 5, 4, "quarter",
                   '<notations><slur type="start" number="1"/>'
                   '<slur type="start" number="2"/></notations>')
            + note("D", 5, 4, "quarter",
                   '<notations><slur type="stop" number="2"/></notations>')
            + note("E", 5, 8, "half",
                   '<notations><slur type="stop" number="1"/></notations>')
            + "</measure>")
    measure = convert_score(score(body)).work.parts[0].measures[0]
    slurs = [t for t in tokens_of(measure) if t.label.startswith("slur_")]
    assert len(slurs) == 4
    pairs = {}
    for t in slurs:
        pairs.setdefault(t.pair_id, []).append(t.label)
    assert len(pairs) == 2
    for members in pairs.values():
        assert sorted(members) == ["slur_start", "slur_stop"]


def test_wedge_pairs():
    body = (f'<measure number="1">{ATTRS_44}'
            '<direction><direction-type><wedge type="crescendo"/>'
            "</direction-type></direction>"
            + note("C", 5, 8, "half")
            + '<direction><direction-type><wedge type="stop"/>'
            "</direction-type></direction>"
            + note("D", 5, 8, "half")
            + "</measure>")
    measure = convert_score(score(body)).work.parts[0].measures[0]
    wedges = [t for t in tokens_of(measure) if t.label.startswith("wedge_")]
    assert sorted(t.label for t in wedges) == ["wedge_crescendo", "wedge_stop"]
    assert wedges[0].pair_id == wedges[1].pair_id
    stops = [c for c in measure.children if c.kind == DIRECTION
             and c.children[0].label == "wedge_stop"]
    assert stops[0].onset == 2


def test_dangling_slur_is_pruned():
    body = (f'<measure number="1">{ATTRS_44}'
            + note("C", 5, 16, "whole",
                   '<notations><slur type="start"/></notations>')
            + "</measure>")
    result = convert_score(score(body))
    measure = result.work.parts[0].measures[0]
    assert not [t for t in tokens_of(measure) if t.label.startswith("slur_")]
    assert any("never completed" in w for w in result.warnings)
    assert validate(result.work) == []


def test_dangling_pair_drops_before_ordering():
    # Two groups that tie on onset, position and stem, so their notes'
    # tokens order them: with the dangling slur_start the tenuto group
    # sorts first, without it the staccato group does. The writer skips
    # the order check, so only the drop's place keeps the output canonical.
    body = (f'<measure number="1">{ATTRS_44}'
            + note("C", 5, 4, "quarter", "<voice>1</voice><stem>up</stem>"
                   '<notations><slur type="start"/>'
                   "<articulations><tenuto/></articulations></notations>")
            + "<backup><duration>4</duration></backup>"
            + note("C", 5, 4, "quarter", "<voice>2</voice><stem>up</stem>"
                   "<notations><articulations><staccato/></articulations>"
                   "</notations>")
            + "</measure>")
    result = convert_score(score(body))
    assert result.warnings == [
        "spanner pair q1 never completed; its token was dropped"]
    assert validate(result.work) == []
    groups = [c for c in result.work.parts[0].measures[0].children
              if c.kind == NOTE_GROUP]
    assert [outline(g) for g in groups] == [
        "note_group@0[chord@0[stem[stem_up] note[notehead_black/7 "
        f"{mark}]]]" for mark in ("staccato", "tenuto")]


def test_converted_fixtures_are_canonical():
    # The converter orders each measure once and writes it without a
    # second order check: what it returns, and the bytes it writes, must
    # already be in canonical order.
    for path in sorted(FIXTURES.iterdir()):
        result = convert_path(path)
        for part in result.work.parts:
            for m in part.measures:
                assert canonicalize(m) is m, (path.name, m.id)
        warnings = []
        assert parse_work(result.data, warnings.append) == result.work
        assert warnings == []


def test_tie_tokens():
    body = (f'<measure number="1">{ATTRS_44}'
            + note("C", 5, 8, "half",
                   '<notations><tied type="start"/></notations>')
            + note("C", 5, 8, "half",
                   '<notations><tied type="stop"/></notations>')
            + "</measure>")
    measure = convert_score(score(body)).work.parts[0].measures[0]
    ties = [t for t in tokens_of(measure) if t.label.startswith("tied_")]
    assert sorted(t.label for t in ties) == ["tied_start", "tied_stop"]
    assert ties[0].pair_id == ties[1].pair_id


def whole_note_warnings(direction: str, mark: str) -> list[str]:
    """Warnings from one measure: direction (may be empty), then a whole
    note carrying mark."""
    body = (f'<measure number="1">{ATTRS_44}{direction}'
            + note("C", 5, 16, "whole", mark) + "</measure>")
    return convert_score(score(body)).warnings


@pytest.mark.parametrize("element, name", [
    ("<notations><slur {}/></notations>", "slur"),
    ("<notations><tied {}/></notations>", "tie"),
    ("<tie {}/>", "tie"),
    ("<notations><tuplet {}/></notations>", "tuplet"),
    ("<direction><direction-type><wedge {}/></direction-type></direction>",
     "wedge"),
])
def test_spanner_warning_text(element, name):
    def warnings(stype):
        mark = element.format(f'type="{stype}"')
        if name == "wedge":
            return whole_note_warnings(mark, "")
        return whole_note_warnings("", mark)

    assert warnings("stop") == [
        f"part P1 measure 1: {name} stop without a start; dropped"]
    assert warnings("sideways") == [
        f"part P1 measure 1: {name} type 'sideways' unsupported"]


@pytest.mark.parametrize("mark", [
    '<notations><slur type="continue"/></notations>',
    '<notations><tied type="continue"/></notations>',
    '<notations><tied type="let-ring"/></notations>',
    '<tie type="continue"/>',
    '<tie type="let-ring"/>',
])
def test_spanner_continuations_are_silent(mark):
    assert whole_note_warnings("", mark) == []


def test_wedge_continue_is_silent():
    wedge = ('<direction><direction-type><wedge type="{}"/>'
             "</direction-type></direction>")
    body = (f'<measure number="1">{ATTRS_44}{wedge.format("crescendo")}'
            + note("C", 5, 8, "half") + wedge.format("continue")
            + note("D", 5, 8, "half") + wedge.format("stop") + "</measure>")
    result = convert_score(score(body))
    assert result.warnings == []
    wedges = [t for t in tokens_of(result.work.parts[0].measures[0])
              if t.label.startswith("wedge_")]
    assert sorted(t.label for t in wedges) == ["wedge_crescendo",
                                               "wedge_stop"]
    assert wedges[0].pair_id == wedges[1].pair_id


NOTATIONS = "<notations>{}</notations>"


@pytest.mark.parametrize("mark, warning, added", [
    ("<accidental>quarter-sharp</accidental>",
     "accidental 'quarter-sharp' unsupported", []),
    (NOTATIONS.format("<articulations><strong-accent/></articulations>"),
     "strong accent approximated as accent", ["accent"]),
    (NOTATIONS.format("<articulations><breath-mark/></articulations>"),
     "breath mark is not representable", []),
    (NOTATIONS.format("<articulations><doit/></articulations>"),
     "articulation <doit> unsupported", []),
    (NOTATIONS.format("<ornaments><delayed-turn/></ornaments>"),
     "delayed-turn approximated as a turn", ["turn"]),
    (NOTATIONS.format("<ornaments><inverted-turn/></ornaments>"),
     "inverted-turn approximated as a turn", ["turn"]),
    (NOTATIONS.format("<ornaments><mordent/></ornaments>"),
     "ornament <mordent> unsupported", []),
    (NOTATIONS.format('<glissando type="start"/>'),
     "notation <glissando> unsupported", []),
])
def test_note_modifier_warning_text(mark, warning, added):
    body = (f'<measure number="1">{ATTRS_44}'
            + note("C", 5, 16, "whole", mark) + "</measure>")
    result = convert_score(score(body))
    assert result.warnings == [f"part P1 measure 1: {warning}"]
    measure = result.work.parts[0].measures[0]
    (group,) = [c for c in measure.children if c.kind == NOTE_GROUP]
    assert sorted(t.label for t in iter_tokens(group)) == sorted(
        ["notehead_white"] + added)


def _attrs_with_time(time: str) -> str:
    return ATTRS_44.replace(
        "<time><beats>4</beats><beat-type>4</beat-type></time>", time)


_WHOLE = note("C", 5, 16, "whole")
_EIGHTHS_UNENDED = (
    note("C", 5, 2, "eighth", '<beam number="1">begin</beam>')
    + note("D", 5, 2, "eighth", '<beam number="1">continue</beam>'))
_DOTTED_HALF = note("E", 5, 12, "half", "<dot/>")


@pytest.mark.parametrize("measure, warning", [
    (f'<measure number="0" implicit="yes">{ATTRS_44}{_WHOLE}</measure>',
     "part P1 measure 0: pickup measure (implicit); converted as ordinary"),
    ('<measure number="1">'
     + _attrs_with_time("<time><senza-misura/></time>")
     + f"{_WHOLE}</measure>",
     "part P1 measure 1: senza-misura time signature has no tokens"),
    ('<measure number="1">'
     + _attrs_with_time('<time symbol="single-number"><beats>4</beats>'
                        "<beat-type>4</beat-type></time>")
     + f"{_WHOLE}</measure>",
     "part P1 measure 1: time symbol 'single-number' rendered as numbers"),
    (f'<measure number="1">{ATTRS_44}<barline location="left">'
     f'<ending number="1" type="start"/></barline>{_WHOLE}</measure>',
     "part P1 measure 1: volta ending bracket is not representable"),
    (f'<measure number="1">{ATTRS_44}<note><rest/><duration>16</duration>'
     "</note></measure>",
     "part P1 measure 1: typeless rest classified by duration"),
    (f'<measure number="1">{ATTRS_44}<note><rest/><duration>16</duration>'
     "<type>1024th</type></note></measure>",
     "part P1 measure 1: rest type '1024th' unsupported; using duration"),
    # A run cut off by an unbeamed note, then one cut off by the measure end.
    (f'<measure number="1">{ATTRS_44}{_EIGHTHS_UNENDED}{_DOTTED_HALF}'
     "</measure>",
     "part P1 measure 1: beam run without an end; closed early"),
    (f'<measure number="1">{ATTRS_44}{_DOTTED_HALF}{_EIGHTHS_UNENDED}'
     "</measure>",
     "part P1 measure 1: beam run without an end; closed early"),
    (f'<measure number="1">{ATTRS_44}<sketch/>{_WHOLE}</measure>',
     "part P1 measure 1: unhandled element <sketch>"),
    ('<measure number="1">'
     + ATTRS_44.replace("</attributes>", "<directive>Allegro</directive>"
                        "</attributes>")
     + f"{_WHOLE}</measure>",
     "part P1 measure 1: unhandled attributes content <directive>"),
    (f'<measure number="1">{ATTRS_44}<direction><direction-type><swirl/>'
     f"</direction-type></direction>{_WHOLE}</measure>",
     "part P1 measure 1: unhandled direction <swirl>"),
    ('<measure number="1">'
     + _attrs_with_time("<time><beats>4</beats><beat-type>x</beat-type>"
                        "</time>")
     + f"{_WHOLE}</measure>",
     "part P1 measure 1: non-numeric time signature part 'x'"),
    # a superscript digit passes str.isdigit() but not int()
    ('<measure number="1">'
     + _attrs_with_time("<time><beats>\u00b2</beats><beat-type>4</beat-type>"
                        "</time>")
     + f"{_WHOLE}</measure>",
     "part P1 measure 1: non-numeric time signature part '\u00b2'"),
    # int() reads non-ASCII digits and str.isdecimal() passes them
    ('<measure number="1">'
     + _attrs_with_time("<time><beats>\u06634</beats>"
                        "<beat-type>4</beat-type></time>")
     + f"{_WHOLE}</measure>",
     "part P1 measure 1: non-numeric time signature part '\u06634'"),
    (f'<measure number="1">{ATTRS_44}'
     + note("C", 5, "\u0664", "whole") + "</measure>",
     "part P1 measure 1: missing or bad duration in <note>"),
    (f'<measure number="1">{ATTRS_44}<direction><direction-type><dynamics>'
     "<p/></dynamics></direction-type><offset>soon</offset></direction>"
     f"{_WHOLE}</measure>",
     "part P1 measure 1: bad direction offset 'soon'"),
    (f'<measure number="1">{ATTRS_44}<direction><direction-type><dynamics>'
     "<p/></dynamics></direction-type><offset>1_0</offset></direction>"
     f"{_WHOLE}</measure>",
     "part P1 measure 1: bad direction offset '1_0'"),
    (f'<measure number="1">{ATTRS_44}<direction><direction-type><dynamics>'
     "<p/></dynamics></direction-type><offset>-4</offset></direction>"
     f"{_WHOLE}</measure>",
     "part P1 measure 1: direction offset before measure start; clamped"),
    (f'<measure number="1">{ATTRS_44}<direction><direction-type><dynamics>'
     "<other-dynamics>mfz</other-dynamics></dynamics></direction-type>"
     f"</direction>{_WHOLE}</measure>",
     "part P1 measure 1: dynamics mark <other-dynamics> unsupported"),
    (f'<measure number="1">{ATTRS_44}{_WHOLE}<barline location="right">'
     "<bar-style>dashed</bar-style></barline></measure>",
     "part P1 measure 1: bar style 'dashed' approximated as regular"),
    (f'<measure number="1">{ATTRS_44}{_WHOLE}<barline location="right">'
     "<bar-style>wavy</bar-style></barline></measure>",
     "part P1 measure 1: bar style 'wavy' unsupported"),
    (f'<measure number="1">{ATTRS_44}{_WHOLE}<barline location="right">'
     '<repeat direction="sideways"/></barline></measure>',
     "part P1 measure 1: repeat direction 'sideways' unsupported"),
    (f'<measure number="1">{ATTRS_44}<note><unpitched/>'
     "<duration>16</duration><type>whole</type></note></measure>",
     "part P1 measure 1: unpitched note without display position; "
     "placed on the middle line"),
])
def test_converter_warning_text(measure, warning):
    assert convert_score(score(measure)).warnings == [warning]


def _direction_type(content: str) -> str:
    return f"<direction><direction-type>{content}</direction-type></direction>"


def _whole_with(mark: str) -> str:
    return note("C", 5, 4, "whole", mark)


_DYNAMICS_WORDS = ("p pp ppp pppp ppppp pppppp f ff fff ffff fffff ffffff "
                   "mp mf sf sfp sfpp fp rf rfz sfz sffz fz n pf sfzp").split()
_UNREPRESENTABLE_DIRECTIONS = (
    "words rehearsal metronome octave-shift pedal dashes bracket "
    "principal-voice percussion accordion-registration string-mute "
    "scordatura image harp-pedals damp damp-all eyeglasses symbol "
    "other-direction staff-divide").split()
_UNSUPPORTED_NOTATIONS = ("technical glissando slide non-arpeggiate "
                          "accidental-mark other-notation dynamics").split()
_ACCIDENTALS = {
    "sharp": "accidental_sharp", "flat": "accidental_flat",
    "natural": "accidental_natural", "double-sharp": "accidental_double_sharp",
    "sharp-sharp": "accidental_double_sharp",
    "flat-flat": "accidental_double_flat",
}
_SILENT_ATTRIBUTES = ("footnote", "level", "part-symbol", "instruments")
_WARNED_ATTRIBUTES = ("staff-details", "transpose", "measure-style",
                      "directive", "for-part", "swirl")
_REG, _HEAVY = "barline_tok_regular", "barline_tok_heavy"
_WHITE = "notehead_white"

# (measure content, sorted token labels of the measure, warnings without
# their "part P1 measure 1: " location): one row per tag that the converter
# names in each family, and one unknown tag per family.
FAMILY_ROWS = [
    *((_direction_type(f"<dynamics><{word}/></dynamics>"), [f"dyn_{word}"],
       []) for word in _DYNAMICS_WORDS),
    (_direction_type("<dynamics><other-dynamics>mfz</other-dynamics>"
                     "</dynamics>"),
     [], ["dynamics mark <other-dynamics> unsupported"]),
    (_direction_type("<segno/>"), ["segno"], []),
    (_direction_type("<coda/>"), ["coda"], []),
    *((_direction_type(f"<{tag}/>"), [],
       [f"direction <{tag}> is not representable"])
      for tag in _UNREPRESENTABLE_DIRECTIONS),
    (_direction_type("<swirl/>"), [], ["unhandled direction <swirl>"]),
    *((f"<barline><bar-style>{style}</bar-style></barline>", labels, [])
      for style, labels in [
          ("regular", [_REG]), ("light-light", [_REG, _REG]),
          ("light-heavy", [_HEAVY, _REG]), ("heavy-light", [_HEAVY, _REG]),
          ("heavy", [_HEAVY]), ("heavy-heavy", [_HEAVY, _HEAVY]),
          ("none", [])]),
    *((f"<barline><bar-style>{style}</bar-style></barline>", [_REG],
       [f"bar style '{style}' approximated as regular"])
      for style in ("dotted", "dashed", "tick", "short")),
    ("<barline><bar-style>wavy</bar-style></barline>", [],
     ["bar style 'wavy' unsupported"]),
    ("<barline><bar-style/></barline>", [], ["bar style '' unsupported"]),
    ("<barline/>", [], []),
    *((_whole_with(f"<accidental>{name}</accidental>"), [label, _WHITE], [])
      for name, label in _ACCIDENTALS.items()),
    (_whole_with("<accidental> flat </accidental>"),
     ["accidental_flat", _WHITE], []),
    (_whole_with("<accidental>quarter-sharp</accidental>"), [_WHITE],
     ["accidental 'quarter-sharp' unsupported"]),
    *((_whole_with(f"<notations><articulations><{tag}/></articulations>"
                   "</notations>"), sorted([tag, _WHITE]), [])
      for tag in ("staccato", "accent", "tenuto", "caesura")),
    (_whole_with("<notations><articulations><strong-accent/>"
                 "</articulations></notations>"),
     ["accent", _WHITE], ["strong accent approximated as accent"]),
    (_whole_with("<notations><articulations><breath-mark/>"
                 "</articulations></notations>"),
     [_WHITE], ["breath mark is not representable"]),
    (_whole_with("<notations><articulations><doit/></articulations>"
                 "</notations>"),
     [_WHITE], ["articulation <doit> unsupported"]),
    *((_whole_with(f"<notations><ornaments>{ornament}</ornaments>"
                   "</notations>"), labels, warnings)
      for ornament, labels, warnings in [
          ("<trill-mark/>", [_WHITE, "trill"], []),
          ("<turn/>", [_WHITE, "turn"], []),
          ("<delayed-turn/>", [_WHITE, "turn"],
           ["delayed-turn approximated as a turn"]),
          ("<inverted-turn/>", [_WHITE, "turn"],
           ["inverted-turn approximated as a turn"]),
          ('<wavy-line type="start"/>', [_WHITE, "wavy_line"], []),
          ('<wavy-line type="stop"/>', [_WHITE], []),
          ('<wavy-line type="continue"/>', [_WHITE, "wavy_line"], []),
          ("<accidental-mark>sharp</accidental-mark>", [_WHITE], []),
          ("<mordent/>", [_WHITE], ["ornament <mordent> unsupported"])]),
    (_whole_with("<notations><fermata/></notations>"), ["fermata", _WHITE],
     []),
    (_whole_with("<notations><arpeggiate/></notations>"),
     ["arpeggiate", _WHITE], []),
    *((_whole_with(f"<notations><{tag}/></notations>"), [_WHITE],
       [f"notation <{tag}> unsupported"]) for tag in _UNSUPPORTED_NOTATIONS),
    *((note("C", 5, 1, ntype), sorted(
        ["flag"] * flags + ["notehead_black", "stem_down"]), [])
      for ntype, flags in [
          ("quarter", 0), ("eighth", 1), ("16th", 2), ("32nd", 3),
          ("64th", 4), ("128th", 5), ("256th", 6), ("512th", 7),
          ("1024th", 8)]),
    # a type with no row is classified by duration, as a typeless note is
    *((note("C", 5, duration, ntype, extra), labels,
       [f"note type {ntype!r} unsupported; assuming {guess} from duration"])
      for ntype, duration, extra, guess, labels in [
          ("fourth", 1, "", "quarter", ["notehead_black", "stem_down"]),
          ("fourth", 2, "", "half", [_WHITE, "stem_down"]),
          (" whole ", 4, "", "whole", [_WHITE]),
          ("fourth", 4, "<cue/>", "whole", ["notehead_cue_white"])]),
    (note("C", 5, 2, "", "<type/>"), [_WHITE, "stem_down"],
     ["note type '' unsupported; assuming half from duration"]),
    ("<note><grace/><pitch><step>C</step><octave>5</octave></pitch>"
     "<type>fourth</type></note>", ["notehead_grace_black", "stem_down"],
     ["note type 'fourth' unsupported; assuming quarter from duration"]),
    (note("C", 5, 8, "breve"), ["notehead_breve"], []),
    (note("C", 5, 16, "long"), ["notehead_breve"],
     ["note type 'long' approximated as a breve"]),
    (note("C", 5, 32, "maxima"), ["notehead_breve"],
     ["note type 'maxima' approximated as a breve"]),
    (note("C", 5, 4, "whole"), [_WHITE], []),
    (note("C", 5, 2, "half"), [_WHITE, "stem_down"], []),
    (note("C", 5, 1, "quarter"), ["notehead_black", "stem_down"], []),
    # a cue note is stemmed as the same note without <cue/>
    *((note("C", 5, 1, ntype, "<cue/>"), labels, [])
      for ntype, labels in [
          ("quarter", ["notehead_cue_black", "stem_down"]),
          ("half", ["notehead_cue_white", "stem_down"]),
          ("whole", ["notehead_cue_white"])]),
    # the vocabulary has no cue breve
    *((note("C", 5, 1, ntype, "<cue/>"), ["notehead_cue_white"],
       [f"cue note type {ntype!r} approximated as a cue whole"])
      for ntype in ("breve", "long", "maxima")),
    # nor a grace head other than a black one
    *((f"<note><grace/><pitch><step>C</step><octave>5</octave></pitch>"
       f"<type>{ntype}</type></note>",
       sorted(["flag"] * flags + ["notehead_grace_black", "stem_down"]), [])
      for ntype, flags in [("quarter", 0), ("eighth", 1), ("1024th", 8)]),
    *((f"<note><grace/><pitch><step>C</step><octave>5</octave></pitch>"
       f"<type>{ntype}</type></note>", ["notehead_grace_black", "stem_down"],
       [f"grace note type {ntype!r} approximated as a black grace head"])
      for ntype in ("half", "whole", "breve", "long", "maxima")),
    ("<note><grace/><pitch><step>C</step><octave>5</octave></pitch></note>",
     ["notehead_grace_black", "stem_down"], []),
    (note("C", 5, 1, "", "<cue/>"), ["notehead_cue_black", "stem_down"], []),
    *((f"<attributes><{tag}/></attributes>", [], [])
      for tag in _SILENT_ATTRIBUTES),
    *((f"<attributes><{tag}/></attributes>", [],
       [f"unhandled attributes content <{tag}>"])
      for tag in _WARNED_ATTRIBUTES),
]


def test_every_family_row():
    for content, labels, warnings in FAMILY_ROWS:
        result = convert_score(score(f'<measure number="1">{content}'
                                     "</measure>"))
        assert (sorted(t.label for t in iter_tokens(result.work)),
                [w.removeprefix("part P1 measure 1: ")
                 for w in result.warnings]) == (labels, warnings), content


def test_cue_half_keeps_its_stem():
    body = ('<measure number="1"><attributes><divisions>4</divisions>'
            "<clef><sign>G</sign><line>2</line></clef></attributes>"
            + note("A", 5, 8, "half", "<cue/>") + note("A", 5, 8, "half")
            + "</measure>")
    result = convert_score(score(body))
    assert [outline(c) for c in result.work.parts[0].measures[0].children] == [
        "attributes@0[attr_staff[clef[clef_G/4]]]",
        "note_group@0[chord@0[stem[stem_down] note[notehead_cue_white/12]]]",
        "note_group@2[chord@2[stem[stem_down] note[notehead_white/12]]]"]
    assert result.warnings == []


def test_unread_attributes_warn_once_per_tag():
    # A one-line staff moves every staff step, and a transposition every
    # pitch: neither is converted, so both warn, once per element however
    # many there are, in document order.
    attrs = ATTRS_44.replace(
        "</attributes>",
        "<staff-details><staff-lines>1</staff-lines></staff-details>"
        "<transpose><chromatic>-2</chromatic></transpose>"
        "<staff-details><staff-lines>1</staff-lines></staff-details>"
        "<footnote>editorial</footnote></attributes>")
    body = f'<measure number="1">{attrs}' + note("C", 5, 16, "whole")
    result = convert_score(score(body + "</measure>" + body.replace(
        'number="1"', 'number="2"') + "</measure>"))
    assert result.warnings == [
        f"part P1 measure {n}: unhandled attributes content <{tag}>"
        for n in (1, 2) for tag in ("staff-details", "transpose")]


def test_unpaired_time_signature_warns_once_for_every_staff():
    # a 3 with no beat type: no time-signature node on either staff
    attrs = _attrs_with_time("<time><beats>3</beats></time>").replace(
        "</attributes>", "<staves>2</staves></attributes>")
    result = convert_score(score(f'<measure number="1">{attrs}{_WHOLE}'
                                 "</measure>"))
    labels = [t.label for t in iter_tokens(result.work)]
    assert "timesig_number" not in labels
    assert result.warnings == [
        "part P1 measure 1: unpaired <beats> or <beat-type> in time "
        "signature dropped"]


@pytest.mark.parametrize("time, fifths, warnings, values", [
    ("<time><beats>3</beats><beat-type>4</beat-type><beats>2</beats>"
     "<beat-type>x</beat-type></time>", 0,
     ["non-numeric time signature part 'x'",
      "compound interchangeable time signature flattened"], [2, 3, 4]),
    ('<time symbol="dotted-note"><beats>6</beats><beat-type>8</beat-type>'
     "</time>", 0, ["time symbol 'dotted-note' rendered as numbers"], [6, 8]),
    ("<time><senza-misura/></time>", 0,
     ["senza-misura time signature has no tokens"], []),
    ("<time><beats>4</beats><beat-type>4</beat-type></time>", 9,
     ["key with 9 fifths clipped to 7 accidentals"], [4, 4]),
], ids=["compound", "symbol", "senza-misura", "key"])
def test_a_time_or_key_warns_once_for_every_staff(time, fifths, warnings,
                                                  values):
    attrs = _attrs_with_time(time).replace(
        "<fifths>0</fifths>", f"<fifths>{fifths}</fifths>").replace(
        "</attributes>", "<staves>2</staves></attributes>")
    result = convert_score(score(f'<measure number="1">{attrs}{_WHOLE}'
                                 "</measure>"))
    assert result.warnings == [f"part P1 measure 1: {w}" for w in warnings]
    tokens = list(iter_tokens(result.work))
    for staff in (1, 2):
        assert sorted(t.numeric_value for t in tokens
                      if t.label == "timesig_number"
                      and t.position.staff == staff) == values
        assert sum(t.label == "accidental_sharp" and t.position.staff == staff
                   for t in tokens) == (7 if fifths else 0)


def test_clamped_backup_starts_the_next_note_at_zero():
    body = (f'<measure number="1">{ATTRS_44}'
            + note("C", 5, 8, "half") + "<backup><duration>12</duration>"
            "</backup>" + note("E", 4, 8, "half", "<voice>2</voice>")
            + "</measure>")
    result = convert_score(score(body))
    assert chord_onsets(result.work.parts[0].measures[0]) == [0, 0]
    assert result.warnings == [
        "part P1 measure 1: backup before measure start; clamped"]


def test_unknown_notation_is_reported():
    body = (f'<measure number="1">{ATTRS_44}'
            + note("C", 5, 16, "whole", "<notations><swirl/></notations>")
            + "</measure>")
    result = convert_score(score(body))
    assert result.warnings == [
        "part P1 measure 1: notation <swirl> unsupported"]
    assert [t.label for t in tokens_of(result.work.parts[0].measures[0])
            if t.label.startswith("notehead")] == ["notehead_white"]


def test_notehead_shape_is_reported():
    body = (f'<measure number="1">{ATTRS_44}'
            + note("C", 5, 16, "whole", "<notehead>x</notehead>")
            + "</measure>")
    result = convert_score(score(body))
    assert result.warnings == [
        "part P1 measure 1: notehead 'x' converted as a normal notehead"]
    assert [t.label for t in tokens_of(result.work.parts[0].measures[0])
            if t.label.startswith("notehead")] == ["notehead_white"]


def test_normal_notehead_is_silent():
    assert whole_note_warnings("", "<notehead>normal</notehead>") == []


def test_dangling_pair_warnings_name_each_pair():
    slur = '<notations><slur type="{}"/></notations>'
    body = (f'<measure number="1">{ATTRS_44}'
            + note("C", 5, 4, "quarter", slur.format("start"))   # q1
            + note("D", 5, 4, "quarter", slur.format("start"))   # q2
            + '<direction><direction-type><wedge type="crescendo"/>'
            "</direction-type></direction>"                      # q3
            + note("E", 5, 4, "quarter", slur.format("stop"))    # closes q2
            + note("F", 5, 4, "quarter") + "</measure>")
    result = convert_score(score(body))
    assert result.warnings == [
        "spanner pair q1 never completed; its token was dropped",
        "spanner pair q3 never completed; its token was dropped",
    ]
    measure = result.work.parts[0].measures[0]
    assert sorted(t.label for t in tokens_of(measure)
                  if t.pair_id is not None) == ["slur_start", "slur_stop"]
    assert not [c for c in measure.children if c.kind == DIRECTION]
    assert validate(result.work) == []


# -- dynamics and barlines ----------------------------------------------------

def test_dynamics_direction():
    body = (f'<measure number="1">{ATTRS_44}'
            "<direction><direction-type><dynamics><mf/></dynamics>"
            "</direction-type></direction>"
            + note("C", 5, 16, "whole") + "</measure>")
    measure = convert_score(score(body)).work.parts[0].measures[0]
    dyn = [c for c in measure.children if c.kind == DIRECTION]
    assert len(dyn) == 1
    assert dyn[0].children[0].label == "dyn_mf"
    assert dyn[0].onset == 0


@pytest.mark.parametrize("content", [
    "<direction><direction-type><dynamics><f/></dynamics></direction-type>"
    "<staff>2</staff></direction>" + note("C", 5, 16, "whole"),
    note("C", 5, 16, "whole", "<staff>2</staff>"),
], ids=["direction", "note"])
def test_any_element_on_a_staff_adds_it_to_the_part(content):
    # the part declares one staff; a direction or a note on staff 2 adds it
    body = f'<measure number="1">{ATTRS_44}{content}</measure>'
    part = convert_score(score(body)).work.parts[0]
    assert part.staff_count == 2
    assert 2 in {t.position.staff for t in tokens_of(part.measures[0])}


def test_final_barline_onset():
    body = (f'<measure number="1">{ATTRS_44}'
            + note("C", 5, 16, "whole")
            + '<barline location="right"><bar-style>light-heavy</bar-style>'
            "</barline></measure>")
    measure = convert_score(score(body)).work.parts[0].measures[0]
    bars = [c for c in measure.children if c.kind == BARLINE]
    assert len(bars) == 1
    assert bars[0].onset == 4
    labels = sorted(t.label for t in bars[0].children)
    assert labels == ["barline_tok_heavy", "barline_tok_regular"]


def test_repeat_barline():
    body = (f'<measure number="1">{ATTRS_44}'
            + note("C", 5, 16, "whole")
            + '<barline location="right"><bar-style>light-heavy</bar-style>'
            '<repeat direction="backward"/></barline></measure>')
    measure = convert_score(score(body)).work.parts[0].measures[0]
    bar = next(c for c in measure.children if c.kind == BARLINE)
    assert "repeat_backward" in [t.label for t in bar.children]


# -- key signatures -----------------------------------------------------------

def test_key_signature_tokens():
    attrs = """<attributes><divisions>4</divisions>
      <key><fifths>2</fifths></key>
      <clef><sign>G</sign><line>2</line></clef></attributes>"""
    body = (f'<measure number="1">{attrs}'
            + note("D", 4, 16, "whole") + "</measure>")
    measure = convert_score(score(body)).work.parts[0].measures[0]
    sharps = [t for t in tokens_of(measure) if t.label == "accidental_sharp"]
    assert sorted(t.position.step for t in sharps) == [7, 10]


def test_key_cancellation_naturals():
    m1 = ('<measure number="1"><attributes><divisions>4</divisions>'
          "<key><fifths>1</fifths></key>"
          "<clef><sign>G</sign><line>2</line></clef></attributes>"
          + note("C", 5, 16, "whole") + "</measure>")
    m2 = ('<measure number="2"><attributes>'
          "<key><fifths>0</fifths></key></attributes>"
          + note("C", 5, 16, "whole") + "</measure>")
    work = convert_score(score(m1 + m2)).work
    m2_tokens = tokens_of(work.parts[0].measures[1])
    naturals = [t for t in m2_tokens if t.label == "accidental_natural"]
    assert [t.position.step for t in naturals] == [10]


# -- less common notation -----------------------------------------------------

def outline(item) -> str:
    """A node as kind@onset[children], a token as label/step."""
    if isinstance(item, Token):
        step = "" if item.position.step is None else f"/{item.position.step}"
        return item.label + step
    onset = "" if item.onset is None else f"@{item.onset}"
    return f"{item.kind}{onset}[{' '.join(map(outline, item.children))}]"


def _direction(tag: str) -> str:
    return f"<direction><direction-type><{tag}/></direction-type></direction>"


_BACKUP_WHOLE = "<backup><duration>16</duration></backup>"
UNCOMMON = (
    # common time, a segno, a stemless staccato quarter, a forward step of
    # one beat, a cue note, a note fermata and arpeggio, a coda, and a
    # barline fermata
    '<measure number="1">'
    + ATTRS_44.replace("<time>", '<time symbol="common">')
    + _direction("segno")
    + note("C", 5, 4, "quarter", "<stem>none</stem><notations>"
           "<articulations><staccato/></articulations></notations>")
    + "<forward><duration>4</duration></forward>"
    + note("D", 5, 4, "quarter", "<cue/>")
    + note("E", 5, 4, "quarter", "<notations><fermata/><arpeggiate/>"
           "</notations>")
    + _direction("coda")
    + '<barline location="right"><bar-style>light-light</bar-style>'
    "<fermata/></barline></measure>"
    # cut time; a level-2 hook inside a level-1 run, a cue half; typeless
    # notes typed from their durations; ornaments on a whole note
    '<measure number="2"><attributes><time symbol="cut"><beats>2</beats>'
    "<beat-type>2</beat-type></time></attributes>"
    + note("F", 5, 6, "eighth", '<dot/><beam number="1">begin</beam>')
    + note("G", 5, 2, "16th", '<beam number="1">end</beam>'
           '<beam number="2">backward hook</beam>')
    + note("A", 5, 8, "half", "<cue/>") + _BACKUP_WHOLE
    + note("C", 4, 8, "", "<voice>2</voice>")
    + note("D", 4, 8, "", "<voice>2</voice>") + _BACKUP_WHOLE
    + note("E", 4, 16, "whole", "<voice>3</voice><notations><ornaments>"
           '<trill-mark/><turn/><wavy-line type="start"/>'
           '<wavy-line type="stop"/><accidental-mark>sharp</accidental-mark>'
           "</ornaments></notations>") + _BACKUP_WHOLE
    + note("B", 3, 16, "", "<voice>4</voice>") + _BACKUP_WHOLE
    + note("A", 3, 32, "", "<voice>5</voice>") + "</measure>")


def test_less_common_notation_tokens():
    result = convert_score(score(UNCOMMON))
    first, second = result.work.parts[0].measures
    assert [outline(c) for c in first.children] == [
        "attributes@0[attr_staff[clef[clef_G/4] time_sig[timesig_common]]]",
        "direction@0[segno]",
        "note_group@0[chord@0[note[notehead_black/7 staccato]]]",
        "note_group@2[chord@2[stem[stem_down] note[notehead_cue_black/8]]]",
        "note_group@3[chord@3[stem[stem_down] "
        "note[notehead_black/9 arpeggiate fermata]]]",
        "direction@4[coda]",
        "barline@4[barline_tok_regular barline_tok_regular fermata]",
    ]
    assert [outline(c) for c in second.children] == [
        "attributes@0[attr_staff[time_sig[timesig_cut]]]",
        "note_group@0[chord@0[note[notehead_breve/-2]]]",
        "note_group@0[chord@0[note[notehead_white/-1]]]",
        "note_group@0[chord@0[stem[stem_up] note[notehead_white/0]]]",
        "note_group@0[chord@0[note[notehead_white/2 trill turn wavy_line]]]",
        "note_group@0[beam chord@0[stem[stem_down] "
        "note[notehead_black/10 dot]] note_group@3/2[beam chord@3/2["
        "stem[stem_down] note[notehead_black/11]]]]",
        "note_group@2[chord@2[stem[stem_up] note[notehead_white/1]]]",
        "note_group@2[chord@2[stem[stem_down] note[notehead_cue_white/12]]]",
    ]
    assert result.warnings == [
        f"part P1 measure 2: note without type; assuming {ntype} from duration"
        for ntype in ("half", "half", "whole", "breve")]
    assert validate(result.work) == []


# -- line starts --------------------------------------------------------------

def test_print_new_system_marks_line_start():
    m1 = f'<measure number="1">{ATTRS_44}' + note("C", 5, 16, "whole") + "</measure>"
    m2 = '<measure number="2">' + note("D", 5, 16, "whole") + "</measure>"
    m3 = ('<measure number="3"><print new-system="yes"/>'
          + note("E", 5, 16, "whole") + "</measure>")
    work = convert_score(score(m1 + m2 + m3)).work
    measures = work.parts[0].measures
    assert [m.line_start for m in measures] == [True, False, True]
    synth = [c for c in measures[2].children
             if c.kind == ATTRIBUTES and c.synthetic]
    assert len(synth) == 1
    clef_tokens = tokens_of(measures[2])
    assert any(t.label == "clef_G" for t in clef_tokens)
    # measure 2 got no synthetic restatement
    assert not any(c.kind == ATTRIBUTES for c in measures[1].children)


def test_explicit_breaks():
    m1 = f'<measure number="1">{ATTRS_44}' + note("C", 5, 16, "whole") + "</measure>"
    m2 = '<measure number="2">' + note("D", 5, 16, "whole") + "</measure>"
    options = ConvertOptions(explicit_breaks=("2",))
    work = convert_score(score(m1 + m2), options).work
    assert work.parts[0].measures[1].line_start


@pytest.mark.parametrize("options", [
    ConvertOptions(),
    ConvertOptions(use_print_breaks=False, explicit_breaks=("3",)),
])
def test_measures_without_a_number_are_numbered_by_place(options):
    # a print break, or an explicit break naming "3", starts the third
    # measure's line
    m1 = f"<measure>{ATTRS_44}" + note("C", 5, 16, "whole") + "</measure>"
    m2 = "<measure>" + note("D", 5, 16, "whole") + "</measure>"
    m3 = ('<measure><print new-system="yes"/>'
          + note("E", 5, 16, "whole") + "</measure>")
    work = convert_score(score(m1 + m2 + m3), options).work
    assert [(m.id, m.line_start) for m in work.parts[0].measures] == [
        ("P1.1", True), ("P1.2", False), ("P1.3", True)]


def test_unknown_explicit_break_is_an_error():
    m1 = f'<measure number="1">{ATTRS_44}' + note("C", 5, 16, "whole") + "</measure>"
    with pytest.raises(ConversionError):
        convert_score(score(m1), ConvertOptions(explicit_breaks=("9",)))


def test_line_start_restates_the_key_of_a_staff_without_a_clef():
    # MusicXML's default clef is treble: the key is restated at treble
    # steps, and no clef token is restated, as none was ever emitted
    xml = two_staff("<key><fifths>2</fifths></key>", BREAK + BOTH)
    first, second = convert_score(xml).work.parts[0].measures
    assert not any(t.label.startswith("clef_") for t in tokens_of(first))
    synth = [c for c in second.children
             if c.kind == ATTRIBUTES and c.synthetic]
    assert len(synth) == 1
    assert [(t.label, t.position.staff, t.position.step)
            for t in iter_tokens(synth[0])] == [
        ("accidental_sharp", staff, step)
        for staff in (1, 2) for step in (7, 10)]


# -- the timing torture fixture ----------------------------------------------

def torture_fixture() -> str:
    tmod = ("<time-modification><actual-notes>3</actual-notes>"
            "<normal-notes>2</normal-notes></time-modification>")
    triplet = "".join(
        note(p, 5, 8, "eighth",
             tmod + f'<beam number="1">{b}</beam>{t}')
        for p, b, t in (
            ("E", "begin", '<notations><tuplet type="start"/></notations>'),
            ("F", "continue", ""),
            ("G", "end", '<notations><tuplet type="stop"/></notations>')))
    body = ('<measure number="1"><attributes><divisions>24</divisions>'
            "<time><beats>3</beats><beat-type>4</beat-type></time>"
            "<clef><sign>G</sign><line>2</line></clef></attributes>"
            + note("C", 5, 36, "quarter", "<dot/><voice>1</voice>")
            + note("D", 5, 12, "eighth", "<voice>1</voice>")
            + triplet
            + "<backup><duration>72</duration></backup>"
            + note("C", 4, 48, "half", "<voice>2</voice>")
            + note("D", 4, 24, "quarter", "<voice>2</voice>")
            + '<barline location="right"><bar-style>light-heavy</bar-style>'
            "</barline></measure>")
    return score(body)


def test_torture_onsets():
    result = convert_score(torture_fixture())
    assert validate(result.work) == []
    measure = result.work.parts[0].measures[0]
    assert chord_onsets(measure) == [
        Fraction(0), Fraction(0), Fraction(3, 2), Fraction(2), Fraction(2),
        Fraction(7, 3), Fraction(8, 3)]
    bar = next(c for c in measure.children if c.kind == BARLINE)
    assert bar.onset == 3
    tuplets = [t for t in tokens_of(measure) if t.label.startswith("tuplet_")]
    assert len(tuplets) == 2
    assert tuplets[0].pair_id == tuplets[1].pair_id


def test_torture_is_deterministic():
    first = serialize_work(convert_score(torture_fixture()).work)
    second = serialize_work(convert_score(torture_fixture()).work)
    assert first == second


# -- containers and layouts ---------------------------------------------------

def test_timewise_score():
    partwise = score(f'<measure number="1">{ATTRS_44}'
                     + note("C", 4, 4, "quarter") + "</measure>")
    timewise = """<score-timewise version="4.0">
      <part-list><score-part id="P1"><part-name>x</part-name></score-part></part-list>
      <measure number="1"><part id="P1">""" + ATTRS_44 + \
        note("C", 4, 4, "quarter") + "</part></measure></score-timewise>"
    a = serialize_work(convert_score(partwise).work)
    b = serialize_work(convert_score(timewise).work)
    assert a == b
    # a part without an id is "P" in both layouts
    partwise, timewise = both_layouts(ATTRS_44 + note("C", 4, 4, "quarter"),
                                      parts=1)
    result = convert_score(timewise)
    assert result.data == convert_score(partwise).data
    assert [m.id for m in result.work.parts[0].measures] == ["P.1"]


def both_layouts(content: str, parts: int) -> list[str]:
    """A one-measure score, partwise and timewise, of `parts` parts that
    have no id and each hold content."""
    return ['<score-partwise version="4.0">'
            + f'<part><measure number="1">{content}</measure></part>' * parts
            + "</score-partwise>",
            '<score-timewise version="4.0"><measure number="1">'
            + f"<part>{content}</part>" * parts
            + "</measure></score-timewise>"]


@pytest.mark.parametrize("layout", [0, 1], ids=["partwise", "timewise"])
def test_two_parts_without_an_id_are_refused(layout):
    xml = both_layouts(ATTRS_44 + note("C", 4, 4, "quarter"), parts=2)[layout]
    with pytest.raises(ConversionError) as info:
        convert_score(xml)
    assert str(info.value) == "part id 'P' is used by more than one part"


def test_mxl_archive(tmp_path):
    xml = score(f'<measure number="1">{ATTRS_44}'
                + note("C", 4, 4, "quarter") + "</measure>")
    raw = tmp_path / "piece.xml"
    raw.write_text(xml)
    mxl = tmp_path / "piece.mxl"
    with zipfile.ZipFile(mxl, "w") as zf:
        zf.writestr("META-INF/container.xml",
                    '<container><rootfiles><rootfile full-path="piece.xml"/>'
                    "</rootfiles></container>")
        zf.writestr("piece.xml", xml)
    from_raw = convert_path(raw).work
    from_mxl = convert_path(mxl).work
    assert serialize_work(from_raw) == serialize_work(from_mxl)
    assert from_raw.work_id == "piece"


def test_mxl_member_size_is_capped(tmp_path, monkeypatch):
    import mtnkit.musicxml as musicxml
    xml = score(f'<measure number="1">{ATTRS_44}'
                + note("C", 4, 4, "quarter") + "</measure>")
    mxl = tmp_path / "piece.mxl"
    with zipfile.ZipFile(mxl, "w", zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("META-INF/container.xml",
                    '<container><rootfiles><rootfile full-path="piece.xml"/>'
                    "</rootfiles></container>")
        zf.writestr("piece.xml", xml)
    monkeypatch.setattr(musicxml, "MAX_MXL_MEMBER_BYTES", len(xml) - 1)
    with pytest.raises(ConversionError) as info:
        convert_path(mxl)
    assert str(info.value) == (
        f"{mxl}: archive member 'piece.xml' unpacks to {len(xml)} bytes, "
        f"over the limit of {len(xml) - 1}")
    monkeypatch.setattr(musicxml, "MAX_MXL_MEMBER_BYTES", len(xml))
    assert convert_path(mxl).work.parts


def test_mxl_missing_rootfile_is_a_conversion_error(tmp_path):
    mxl = tmp_path / "piece.mxl"
    with zipfile.ZipFile(mxl, "w") as zf:
        zf.writestr("META-INF/container.xml",
                    '<container><rootfiles><rootfile full-path="gone.xml"/>'
                    "</rootfiles></container>")
    with pytest.raises(ConversionError,
                       match="archive has no member 'gone.xml'"):
        convert_path(mxl)


def test_mxl_without_a_score_is_a_conversion_error(tmp_path):
    # no META-INF/container.xml names a rootfile, and no .xml member is left
    mxl = tmp_path / "piece.mxl"
    with zipfile.ZipFile(mxl, "w") as zf:
        zf.writestr("README.txt", "no score here")
    with pytest.raises(ConversionError) as info:
        convert_path(mxl)
    assert str(info.value) == f"{mxl}: no score file in archive"


def _mxl(path, xml: str, method: int = zipfile.ZIP_DEFLATED,
         container: str = ('<container><rootfiles><rootfile '
                           'full-path="piece.xml"/></rootfiles></container>'),
         ) -> bytes:
    """Write an .mxl holding xml as piece.xml; return its bytes."""
    with zipfile.ZipFile(path, "w", method) as zf:
        zf.writestr("META-INF/container.xml", container)
        zf.writestr("piece.xml", xml)
    return path.read_bytes()


def _flip(data: bytes, at: int) -> bytes:
    out = bytearray(data)
    out[at] ^= 0xFF
    return bytes(out)


def _score_data_start(data: bytes) -> int:
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        info = zf.getinfo("piece.xml")
    return info.header_offset + 30 + len("piece.xml") + len(info.extra)


@pytest.mark.parametrize("method, damage, message", [
    (zipfile.ZIP_DEFLATED, lambda d: _flip(d, _score_data_start(d)),
     "archive member 'piece.xml' is corrupt: Error -3 while decompressing"),
    (zipfile.ZIP_STORED, lambda d: _flip(d, _score_data_start(d) + 40),
     "archive member 'piece.xml' is corrupt: Bad CRC-32 for file"),
    (zipfile.ZIP_STORED, lambda d: _flip(d, d.index(b"PK\x01\x02")),
     "corrupt archive: Bad magic number for central directory"),
], ids=["deflate-error", "crc-mismatch", "central-directory"])
def test_corrupt_mxl_is_a_conversion_error(tmp_path, method, damage,
                                           message):
    xml = score(f'<measure number="1">{ATTRS_44}'
                + note("C", 4, 4, "quarter") + "</measure>")
    mxl = tmp_path / "piece.mxl"
    mxl.write_bytes(damage(_mxl(mxl, xml, method)))
    with pytest.raises(ConversionError) as info:
        convert_path(mxl)
    assert str(info.value).startswith(f"{mxl}: {message}")


def _patch(data: bytes, at: int, fmt: str, value: int) -> bytes:
    out = bytearray(data)
    struct.pack_into(fmt, out, at, value)
    return bytes(out)


def _score_entry(data: bytes) -> int:
    """Offset of piece.xml's central directory entry."""
    return data.rindex(b"PK\x01\x02")


def _cd_offset_field(data: bytes) -> int:
    """Offset of the end record's central directory offset field."""
    return data.rindex(b"PK\x05\x06") + 16


# Mutants of a zipped fixture that zipfile refuses with an exception other
# than BadZipFile.
@pytest.mark.parametrize("damage, message", [
    (lambda d: _patch(d, _score_entry(d) + 8, "<H", 0x1),
     "archive member 'piece.xml' cannot be read: File 'piece.xml' is "
     "encrypted"),
    (lambda d: _patch(d, _score_entry(d) + 10, "<H", 99),
     "archive member 'piece.xml' cannot be read: That compression method "
     "is not supported"),
    (lambda d: _patch(d, _score_entry(d) + 6, "<H", 255),
     "unreadable archive: zip file version 25.5"),
    (lambda d: _patch(d, _cd_offset_field(d), "<I",
                      d.rindex(b"PK\x01\x02", 0, _score_entry(d)) + 0x10000),
     "archive member 'META-INF/container.xml' is corrupt: negative seek "
     "value -65536"),
], ids=["encrypted", "compression-method", "zip-version",
        "central-directory-offset"])
def test_unreadable_mxl_exits_2_naming_file(tmp_path, capsys, damage,
                                             message):
    xml = (FIXTURES / "simple.musicxml").read_text(encoding="utf-8")
    mxl = tmp_path / "piece.mxl"
    mxl.write_bytes(damage(_mxl(mxl, xml)))
    assert main(["convert", str(mxl), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {mxl}: {message}")
    assert "Traceback" not in err


def test_conversion_result_holds_the_serialized_work():
    for path in sorted(FIXTURES.glob("*.musicxml")):
        result = convert_path(path)
        assert result.data == serialize_work(result.work)


def test_malformed_mxl_container_is_a_conversion_error(tmp_path):
    mxl = tmp_path / "piece.mxl"
    _mxl(mxl, "<score-partwise/>", container="<container>")
    with pytest.raises(ConversionError, match=(
            "unparseable META-INF/container.xml: no element found")):
        convert_path(mxl)


def test_multi_part_and_staves():
    p2_attrs = """<attributes><divisions>4</divisions>
      <staves>2</staves>
      <clef number="1"><sign>G</sign><line>2</line></clef>
      <clef number="2"><sign>F</sign><line>4</line></clef></attributes>"""
    xml = f"""<score-partwise version="4.0">
      <part-list>
        <score-part id="P1"><part-name>a</part-name></score-part>
        <score-part id="P2"><part-name>b</part-name></score-part>
      </part-list>
      <part id="P1"><measure number="1">{ATTRS_44}{note("C", 5, 16, "whole")}</measure></part>
      <part id="P2"><measure number="1">{p2_attrs}
        {note("C", 5, 16, "whole", "<staff>1</staff>")}
        <backup><duration>16</duration></backup>
        {note("E", 2, 16, "whole", "<staff>2</staff>")}
      </measure></part>
    </score-partwise>"""
    work = convert_score(xml).work
    assert validate(work) == []
    assert [p.staff_count for p in work.parts] == [1, 2]
    assert [m.id for p in work.parts for m in p.measures] == ["P1.1", "P2.1"]
    p2 = work.parts[1].measures[0]
    heads = [t for t in tokens_of(p2) if t.label == "notehead_white"]
    assert sorted((t.position.staff, t.position.step) for t in heads) == \
        [(1, 7), (2, 0)]


def test_duplicated_part_id_is_refused_by_name():
    fixture = (FIXTURES / "simple.musicxml").read_text(encoding="utf-8")
    part = re.search(r"<part id=.*?</part>", fixture, re.S)
    twice = fixture[:part.end()] + part.group(0) + fixture[part.end():]
    with pytest.raises(ConversionError) as info:
        convert_score(twice)
    assert str(info.value) == "part id 'P1' is used by more than one part"


@pytest.mark.parametrize("source", [
    *(f"fixture:{p.name}" for p in sorted(FIXTURES.glob("*.musicxml"))),
    *(f"line-starts:{case}" for case in sorted(CASES)),
])
def test_copying_a_converted_work_drops_no_field(source):
    # synthetic nodes, line starts, fractional onsets, pair ids, numeric
    # values and two staves all survive both tree copies
    kind, name = source.split(":")
    if kind == "fixture":
        work = convert_path(FIXTURES / name).work
    else:
        work = convert_score(CASES[name]).work
    assert map_tokens(work, lambda tok: tok) == work
    assert assign_ids(work) == work


def test_unparseable_input():
    with pytest.raises(ConversionError):
        convert_score("<score-partwise><part")


def test_wrong_root_element():
    with pytest.raises(ConversionError):
        convert_score("<opus/>")


def test_warnings_carry_location():
    body = (f'<measure number="1">{ATTRS_44}'
            "<direction><direction-type><words>dolce</words>"
            "</direction-type></direction>"
            + note("C", 5, 16, "whole") + "</measure>")
    result = convert_score(score(body))
    assert any(w.startswith("part P1 measure 1:") for w in result.warnings)


def test_output_round_trips_through_xml():
    from mtnkit.xmlio import parse_work
    result = convert_score(torture_fixture())
    data = serialize_work(result.work)
    assert serialize_work(parse_work(data)) == data


@pytest.mark.parametrize("divisions", ["0", "-2", "1.5", "two", "1_2"])
def test_bad_divisions_rejected_with_file_name(tmp_path, divisions):
    attrs = ATTRS_44.replace("<divisions>4<", f"<divisions>{divisions}<")
    path = tmp_path / "bad.musicxml"
    path.write_text(score(f'<measure number="1">{attrs}'
                          + note("C", 4, 4, "quarter") + "</measure>"))
    with pytest.raises(ConversionError, match="bad.musicxml: part P1 "
                       "measure 1: divisions must be a positive integer"):
        convert_path(path)


_UNPITCHED = ('<note><unpitched><display-step>E</display-step>'
              '<display-octave>4</display-octave></unpitched>'
              '<duration>4</duration><type>quarter</type></note>')
_DIRECTION = ('<direction><direction-type><dynamics><p/></dynamics>'
              '</direction-type><staff>1</staff></direction>')


def edited_score_error(tmp_path, old: str, new: str) -> str:
    """The ConversionError text of a one-measure score, which converts as
    written, after replacing old with new in it."""
    body = (ATTRS_44 + _DIRECTION + _UNPITCHED
            + note("C", 4, 2, "eighth", '<beam number="1">begin</beam>')
            + note("D", 4, 2, "eighth", '<beam number="1">end</beam>')
            + note("E", 4, 4, "quarter", "<staff>1</staff>"))
    path = tmp_path / "bad.musicxml"
    path.write_text(score(f'<measure number="1">{body}</measure>'))
    convert_path(path)  # the unedited score converts
    assert old in body
    path.write_text(score(f'<measure number="1">{body.replace(old, new)}'
                          '</measure>'))
    with pytest.raises(ConversionError) as info:
        convert_path(path)
    return str(info.value)


@pytest.mark.parametrize("old, new, element, bad", [
    ("<staff>1</staff>", "<staff>x</staff>", "staff", "x"),
    ("<octave>4</octave>", "<octave>four</octave>", "octave", "four"),
    ("<octave>4</octave>", "<octave>\u0664</octave>", "octave", "\u0664"),
    ("<staff>1</staff>", "<staff>1_0</staff>", "staff", "1_0"),
    ("<display-octave>4<", "<display-octave>4.5<", "display-octave", "4.5"),
    ("<divisions>4</divisions>",
     "<divisions>4</divisions><staves>two</staves>", "staves", "two"),
    ("<clef>", '<clef number="a">', "clef number", "a"),
    ("<key>", '<key number="I">', "key number", "I"),
    ("<time>", '<time number="1st">', "time number", "1st"),
    ("<fifths>0<", "<fifths>+-1<", "fifths", "+-1"),
    ('<beam number="1">begin', '<beam number="one">begin', "beam number",
     "one"),
])
def test_bad_integer_rejected_naming_element(tmp_path, old, new, element,
                                             bad):
    assert edited_score_error(tmp_path, old, new) == (
        f"{tmp_path / 'bad.musicxml'}: part P1 measure 1: <{element}> "
        f"must be an integer, got {bad!r}")


@pytest.mark.parametrize("old, new, element, bad", [
    ("</direction-type><staff>1<", "</direction-type><staff>0<", "staff",
     "0"),
    ("</type><staff>1<", "</type><staff>-1<", "staff", "-1"),
    ("<clef>", '<clef number="0">', "clef number", "0"),
    ("<key>", '<key number="-1">', "key number", "-1"),
    ("<time>", '<time number="0">', "time number", "0"),
])
def test_staff_number_below_one_rejected_naming_element(tmp_path, old, new,
                                                        element, bad):
    assert edited_score_error(tmp_path, old, new) == (
        f"{tmp_path / 'bad.musicxml'}: part P1 measure 1: <{element}> "
        f"must be a positive integer, got {bad!r}")


@pytest.mark.parametrize("bad", ["0", "-1"])
def test_beam_number_below_one_rejected(tmp_path, bad):
    assert edited_score_error(
        tmp_path, '<beam number="1">end', f'<beam number="{bad}">end') == (
        f"{tmp_path / 'bad.musicxml'}: part P1 measure 1: <beam number> "
        f"must be a positive integer, got {bad!r}")
