"""Note events: which nodes they are, their order, and untimeable ones."""

from fractions import Fraction

import pytest

import builders as B
from mtnkit.model import Node
from mtnkit.timing import timed_events


def test_events_in_document_order_with_paths():
    inner = B.group(B.simple_chord(step=6, onset=Fraction(1, 2)), beams=1)
    m = B.measure(
        B.direction(onset=0),
        B.group(B.simple_chord(step=4, onset=0), inner, beams=1),
        B.rest("rest_quarter", onset=1),
        B.barline(onset=2))
    events = timed_events(m)
    assert [ev.path for ev in events] == [(1, 1), (1, 2, 1), (2,)]
    assert [ev.node.kind for ev in events] == ["chord", "chord", "rest"]
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
