"""Note events of a measure and their onsets.

Onsets are exact fractions of a quarter note. They are never inferred:
every chord and top-level node carries its own (see model.validate).
"""

from __future__ import annotations

from . import vocabulary
from .model import CHORD, NOTE, NOTE_GROUP, REST, Measure, Node, Token


def _check_event(node: Node) -> None:
    """Raise ValueError for an event tier 3 cannot place: one with no onset,
    a rest with no rest token, a chord with no notehead or a stepless one."""
    steps = [t.position.step for note in node.children
             if isinstance(note, Node) and note.kind == NOTE
             for t in note.children
             if isinstance(t, Token) and t.label in vocabulary.NOTEHEADS]
    if node.onset is None:
        raise ValueError(f"{node.kind} has no onset")
    if node.kind == REST:
        if not any(isinstance(t, Token) and t.label in vocabulary.RESTS
                   for t in node.children):
            raise ValueError("rest node has no rest token")
    elif not steps:
        raise ValueError("chord has no noteheads")
    elif None in steps:
        raise ValueError("notehead has no step")


def timed_events(measure: Measure) -> list[Node]:
    """The measure's chords under chains of note groups and its top-level
    rests, in document order. The events are the measure's own nodes, and
    a caller tells them apart by object, not by equality: two equal chords
    are two events.

    Raises ValueError for the first event, in document order, that tier 3
    cannot place (see _check_event).
    """
    events: list[Node] = []

    def walk_group(node: Node) -> None:
        for child in node.children:
            if isinstance(child, Node):
                if child.kind == CHORD:
                    events.append(child)
                elif child.kind == NOTE_GROUP:
                    walk_group(child)

    for child in measure.children:
        if child.kind == NOTE_GROUP:
            walk_group(child)
        elif child.kind == REST:
            events.append(child)
    for event in events:
        _check_event(event)
    return events
