"""Note events: which nodes they are, their order, and untimeable ones."""

from fractions import Fraction

import pytest

import builders as B
from mtnkit.model import Node
from mtnkit.timing import timed_events


def test_events_are_the_measures_own_nodes_in_document_order():
    first = B.simple_chord(step=4, onset=0)
    second = B.simple_chord(step=6, onset=Fraction(1, 2))
    rest = B.rest("rest_quarter", onset=1)
    m = B.measure(
        B.direction(onset=0),
        B.group(first, B.group(second, beams=1), beams=1),
        rest,
        B.barline(onset=2))
    events = timed_events(m)
    assert len(events) == 3
    assert all(ev is node for ev, node in zip(events, [first, second, rest]))
    assert [ev.onset for ev in events] == [0, Fraction(1, 2), 1]


def test_first_untimeable_event_in_document_order_raises():
    headless = B.chord(Node("note"), stem_node=B.stem(), onset=1)
    tokenless = Node("rest", (B.tok("dot"),), onset=0)
    with pytest.raises(ValueError, match="^rest node has no rest token$"):
        timed_events(B.measure(tokenless, B.group(headless)))
    with pytest.raises(ValueError, match="^chord has no noteheads$"):
        timed_events(B.measure(B.group(headless), tokenless))
    with pytest.raises(ValueError, match="^chord has no noteheads$"):
        timed_events(B.measure(B.group(Node("chord", onset=0))))


def test_events_tier3_cannot_place_raise():
    # An onset or a notehead step would otherwise be read as 0.
    stepless = B.chord(B.note(), Node("note", (B.tok("notehead_black"),)),
                       stem_node=B.stem(), onset=0)
    with pytest.raises(ValueError, match="^notehead has no step$"):
        timed_events(B.measure(B.group(stepless)))
    with pytest.raises(ValueError, match="^chord has no onset$"):
        timed_events(B.measure(B.group(B.simple_chord(onset=None))))
    with pytest.raises(ValueError, match="^rest has no onset$"):
        timed_events(B.measure(B.rest()._replace(onset=None)))
    # The first such event in document order decides the message.
    with pytest.raises(ValueError, match="^rest has no onset$"):
        timed_events(B.measure(B.rest()._replace(onset=None),
                               B.group(stepless)))
