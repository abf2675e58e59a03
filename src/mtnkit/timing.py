"""Note events of a measure and their onsets.

Onsets are exact fractions of a quarter note. They are never inferred:
every chord and top-level node carries its own (see model.validate).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import vocabulary
from .model import CHORD, NOTE, NOTE_GROUP, REST, Measure, Node, Token


class TimedEvent(NamedTuple):
    """A chord or rest located in its measure."""

    node: Node
    path: tuple[int, ...]  # child indices from the measure

    @property
    def onset(self) -> Fraction | None:
        return self.node.onset


def _check_event(node: Node) -> None:
    """Raise ValueError for a chord without noteheads or a rest without a
    rest token: such an event has no head class to score."""
    if node.kind == REST:
        if not any(isinstance(t, Token) and t.label in vocabulary.RESTS
                   for t in node.children):
            raise ValueError("rest node has no rest token")
    elif not any(isinstance(t, Token) and t.label in vocabulary.NOTEHEADS
                 for note in node.children
                 if isinstance(note, Node) and note.kind == NOTE
                 for t in note.children):
        raise ValueError("chord has no noteheads")


def timed_events(measure: Measure) -> list[TimedEvent]:
    """Chords and top-level rests in document order.

    Raises ValueError for the first event, in document order, that is a
    chord without noteheads or a rest without a rest token.
    """
    events: list[TimedEvent] = []

    def add(node: Node, path: tuple[int, ...]) -> None:
        _check_event(node)
        events.append(TimedEvent(node, path))

    def walk_group(node: Node, path: tuple[int, ...]) -> None:
        for i, child in enumerate(node.children):
            if not isinstance(child, Node):
                continue
            if child.kind == CHORD:
                add(child, path + (i,))
            elif child.kind == NOTE_GROUP:
                walk_group(child, path + (i,))

    for i, child in enumerate(measure.children):
        if child.kind == NOTE_GROUP:
            walk_group(child, (i,))
        elif child.kind == REST:
            add(child, (i,))
    return events
