"""Durations, tuplet ratios and event timing."""

from fractions import Fraction

import builders as B
from mtnkit.timing import duration_of, timed_events


def test_black_notehead_base_quarter():
    assert duration_of(B.simple_chord()) == 1


def test_flags_and_beams_halve():
    assert duration_of(B.simple_chord(flags=1)) == Fraction(1, 2)
    assert duration_of(B.simple_chord(flags=2)) == Fraction(1, 4)
    assert duration_of(B.simple_chord(), beams=1) == Fraction(1, 2)
    assert duration_of(B.simple_chord(flags=1), beams=2) == Fraction(1, 8)


def test_white_heads():
    assert duration_of(B.simple_chord(head="notehead_white")) == 2
    stemless = B.chord(B.note("notehead_white", step=4))
    assert duration_of(stemless) == 4
    breve = B.chord(B.note("notehead_breve", step=4))
    assert duration_of(breve) == 8


def test_rest_durations():
    assert duration_of(B.rest("rest_quarter")) == 1
    assert duration_of(B.rest("rest_eighth")) == Fraction(1, 2)
    assert duration_of(B.rest("rest_whole")) == 4
    assert duration_of(B.rest("rest_128th")) == Fraction(1, 32)
    assert duration_of(B.rest("rest_maxima")) == 32


def test_dots():
    one_dot = B.simple_chord(flags=1, extras=(B.tok("dot"),))
    assert duration_of(one_dot) == Fraction(3, 4)
    two_dots = B.rest("rest_quarter", extras=(B.tok("dot"), B.tok("dot")))
    assert duration_of(two_dots) == Fraction(7, 4)


def test_tuplet_factor_applies():
    # eighth inside a 3:2 tuplet: 1/2 * 2/3 = 1/3
    assert duration_of(B.simple_chord(flags=1),
                       factor=Fraction(2, 3)) == Fraction(1, 3)


def test_grace_and_cue_take_no_time():
    grace = B.chord(B.note("notehead_grace_black", step=6), stem_node=B.stem())
    assert duration_of(grace) == 0
    cue = B.chord(B.note("notehead_cue_black", step=6),
                  stem_node=B.stem(flags=1))
    assert duration_of(cue) == 0
    dotted_grace = B.chord(B.note("notehead_grace_black", step=6,
                                  extras=(B.tok("dot"),)))
    assert duration_of(dotted_grace) == 0


def test_mixed_chord_uses_shortest_head():
    mixed = B.chord(B.note("notehead_black", step=4),
                    B.note("notehead_white", step=8), stem_node=B.stem())
    assert duration_of(mixed) == 1


def test_triplet_ratio_inferred_from_span():
    pair = "tu1"
    a = B.simple_chord(onset=0, flags=1,
                       extras=(B.tok("tuplet_start", pair=pair),))
    b = B.simple_chord(onset=Fraction(1, 3), flags=1)
    c = B.simple_chord(onset=Fraction(2, 3), flags=1,
                       extras=(B.tok("tuplet_stop", pair=pair),))
    m = B.measure(B.group(a), B.group(b), B.group(c))
    events = timed_events(m)
    assert [ev.factor for ev in events] == [Fraction(2, 3)] * 3
    assert [ev.duration for ev in events] == [Fraction(1, 3)] * 3


def test_quintuplet_ratio():
    pair = "tu2"
    chords = [B.simple_chord(onset=None, flags=2) for _ in range(5)]
    chords[0] = B.simple_chord(onset=0, flags=2,
                               extras=(B.tok("tuplet_start", pair=pair),))
    chords[-1] = B.simple_chord(onset=None, flags=2,
                                extras=(B.tok("tuplet_stop", pair=pair),))
    m = B.measure(B.group(*chords))
    events = timed_events(m)
    assert all(ev.factor == Fraction(4, 5) for ev in events)
    assert all(ev.duration == Fraction(1, 5) for ev in events)
