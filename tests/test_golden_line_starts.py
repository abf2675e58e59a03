"""Golden line-start restatements: the sha256 of the bytes and warnings
`convert_score` returns for small two-staff scores with a system break.

At a line-start measure the converter restates, in a synthetic attributes
node, the clef and key in force on each staff at the start of the measure.
A staff whose clef the measure states at onset 0 is not restated. The
fixtures reach none of this after their first measure, so these cases pin
it: a key, a mid-measure clef change, a clef at onset 0 (directly and
after a backup), a key cancellation, a per-staff key and an unsupported
clef sign. The digests were taken before the restatement moved from a pass
over the finished work into the measure walk.
"""

import hashlib

import pytest

from mtnkit.model import iter_tokens
from mtnkit.musicxml import convert_score
from mtnkit.xmlio import parse_work

CLEFS = ('<clef number="1"><sign>G</sign><line>2</line></clef>'
         '<clef number="2"><sign>F</sign><line>4</line></clef>')
ALTO_2 = '<clef number="2"><sign>C</sign><line>3</line></clef>'
BREAK = '<print new-system="yes"/>'


def attributes(content: str) -> str:
    return f"<attributes>{content}</attributes>"


def whole(staff: int, step: str, octave: int) -> str:
    return (f"<note><pitch><step>{step}</step><octave>{octave}</octave>"
            f"</pitch><duration>4</duration><type>whole</type>"
            f"<staff>{staff}</staff></note>")


def half(staff: int, step: str, octave: int) -> str:
    return (f"<note><pitch><step>{step}</step><octave>{octave}</octave>"
            f"</pitch><duration>2</duration><type>half</type>"
            f"<staff>{staff}</staff></note>")


BACKUP = "<backup><duration>4</duration></backup>"
BOTH = whole(1, "C", 5) + BACKUP + whole(2, "C", 3)


def two_staff(first: str, *later: str) -> str:
    """A two-staff part: measure 1 opens with divisions, staves, 4/4 and
    the given attributes; each later string is one measure's content."""
    head = attributes(
        "<divisions>1</divisions><staves>2</staves>"
        "<time><beats>4</beats><beat-type>4</beat-type></time>" + first)
    measures = [head + BOTH, *later]
    body = "".join(f'<measure number="{i}">{m}</measure>'
                   for i, m in enumerate(measures, start=1))
    return ('<score-partwise version="4.0"><part-list>'
            '<score-part id="P1"><part-name>x</part-name></score-part>'
            f'</part-list><part id="P1">{body}</part></score-partwise>')


CASES = {
    # clef and key restated on both staves
    "key": two_staff("<key><fifths>2</fifths></key>" + CLEFS,
                     BREAK + BOTH),
    # a key change at the line start: the restatement keeps the old key
    "key-at-line-start": two_staff(
        "<key><fifths>2</fifths></key>" + CLEFS,
        BREAK + attributes("<key><fifths>-1</fifths></key>") + BOTH),
    # staff 2 turns alto halfway: the bass clef of the measure start is
    # restated, and the next line start restates the alto clef with the
    # key at the alto clef's steps
    "clef-mid-measure": two_staff(
        "<key><fifths>1</fifths></key>" + CLEFS,
        BREAK + whole(1, "C", 5) + BACKUP + half(2, "C", 3)
        + attributes(ALTO_2) + half(2, "D", 3),
        BREAK + BOTH),
    # staff 1 states a clef at onset 0: only staff 2 is restated
    "clef-at-zero": two_staff(
        "<key><fifths>-3</fifths></key>" + CLEFS,
        BREAK + attributes('<clef number="1"><sign>G</sign><line>2</line>'
                           "</clef>") + BOTH),
    # staff 2's clef comes after a backup to onset 0: only staff 1 is
    # restated
    "clef-at-zero-after-backup": two_staff(
        "<key><fifths>-3</fifths></key>" + CLEFS,
        BREAK + whole(1, "C", 5) + BACKUP + attributes(ALTO_2)
        + whole(2, "C", 4)),
    # a cancelled key: the restatement holds clefs only
    "key-cancellation": two_staff(
        "<key><fifths>3</fifths></key>" + CLEFS,
        attributes("<key><fifths>0</fifths></key>") + BOTH,
        BREAK + BOTH),
    # a key on staff 2 only: staff 1 is restated without a key
    "per-staff-key": two_staff(
        CLEFS + '<key number="2"><fifths>-2</fifths></key>',
        BREAK + BOTH),
    # staff 2 turns to a percussion clef, which has no token: the next
    # line start restates staff 2's key alone, at treble steps, and where
    # the unsupported clef stands at onset 0 staff 2 is not restated
    "unsupported-clef-sign": two_staff(
        "<key><fifths>4</fifths></key>" + CLEFS,
        attributes('<clef number="2"><sign>percussion</sign></clef>')
        + BOTH,
        BREAK + BOTH,
        BREAK + attributes('<clef number="2"><sign>percussion</sign>'
                           "</clef>") + BOTH),
}

# case -> sha256 of the serialized work, a NUL, then the warnings joined
# by newlines
GOLDEN = {
    "key":
        "43d1310dfcd8921725234523cf04a6a3128a7b5c7aa8d4b93d369970accb4720",
    "key-at-line-start":
        "8f91435a35ab75c734fbadd1e5f6a2b1de495b33c2b25437e7ee414103bf354d",
    "clef-mid-measure":
        "43e37f89027cdcd2af27a3100177f3479bdbca9a8f62d0bcafee0191731e9a7b",
    "clef-at-zero":
        "a412a37b6295069ba883176fe74e07715890cf1aa67186424d44e9244d76c708",
    "clef-at-zero-after-backup":
        "31704ace453802c6978e62de87a4347a1d3631c65b10625da20a7c8b3bbf1b3a",
    "key-cancellation":
        "60a339a0c99b5025904219b042a71caf2cf0a4212b9f30df1d0b3ef1530a25ce",
    "per-staff-key":
        "10072ed4dd4af9d8c574cbbbaea6dd126fc53ddd25a90b8fc13c947acbb2d613",
    "unsupported-clef-sign":
        "23234b47392d13b64b2c895f01da49bd6abbc001b7f3edd39b8038bfde160ae6",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_line_start_restatements(case):
    result = convert_score(CASES[case])
    digest = hashlib.sha256(
        result.data + b"\0" + "\n".join(result.warnings).encode())
    assert digest.hexdigest() == GOLDEN[case]


def restated(case: str) -> dict[str, list[tuple[str, int, int | None]]]:
    """measure id -> (label, staff, step) of each token its line start
    restates."""
    work = parse_work(convert_score(CASES[case]).data)
    return {m.id: [(t.label, t.position.staff, t.position.step)
                   for node in m.children if node.synthetic
                   for t in iter_tokens(node)]
            for m in work.parts[0].measures
            if any(node.synthetic for node in m.children)}


def test_line_starts_restate_the_key_under_the_clef_in_force():
    # F-sharp sits on step 8 under the bass clef and on step 9 under the
    # alto clef
    assert restated("clef-mid-measure")["P1.3"] == [
        ("clef_G", 1, 4), ("accidental_sharp", 1, 10),
        ("clef_C", 2, 6), ("accidental_sharp", 2, 9)]


def test_line_starts_restate_no_clef_token_for_an_unsupported_clef():
    treble_sharps = [("accidental_sharp", staff, step)
                     for staff in (1, 2) for step in (7, 8, 10, 11)]
    assert restated("unsupported-clef-sign") == {
        "P1.3": [("clef_G", 1, 4)] + treble_sharps,
        "P1.4": [("clef_G", 1, 4)] + treble_sharps[:4],
    }
