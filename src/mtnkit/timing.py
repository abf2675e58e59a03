"""Exact rational timing.

Onsets and durations are fractions of a quarter note. A chord's nominal
duration follows from its notehead class, stem presence, beam levels, flags
and dots; tuplet membership scales it by an inferred ratio. Onsets are never
inferred: every chord and top-level node carries its own (see
model.validate).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import vocabulary
from .model import CHORD, NOTE, NOTE_GROUP, REST, STEM, Measure, Node, Token


def _dot_count(node: Node) -> int:
    """Dots attached to a chord (max over its notes) or a rest."""
    if node.kind == CHORD:
        counts = [0]
        for child in node.children:
            if isinstance(child, Node) and child.kind == NOTE:
                counts.append(sum(
                    1 for t in child.children
                    if isinstance(t, Token) and t.label == "dot"))
        return max(counts)
    return sum(1 for t in node.children
               if isinstance(t, Token) and t.label == "dot")


def _flag_count(chord: Node) -> int:
    for child in chord.children:
        if isinstance(child, Node) and child.kind == STEM:
            return sum(1 for t in child.children
                       if isinstance(t, Token) and t.label == "flag")
    return 0


def _has_stem(chord: Node) -> bool:
    return any(isinstance(c, Node) and c.kind == STEM for c in chord.children)


def _head_labels(chord: Node) -> list[str]:
    labels = []
    for child in chord.children:
        if isinstance(child, Node) and child.kind == NOTE:
            for t in child.children:
                if isinstance(t, Token) and t.label in vocabulary.NOTEHEADS:
                    labels.append(t.label)
    return labels


def duration_of(node: Node, *, beams: int = 0,
                factor: Fraction = Fraction(1)) -> Fraction:
    """Nominal duration of a chord or rest, in quarter notes.

    beams is the number of beam levels covering the chord (from enclosing
    note groups); factor is the combined tuplet ratio. Grace and cue
    noteheads take no time regardless of dots or flags.
    """
    dots = _dot_count(node)
    dot_factor = 2 - Fraction(1, 2 ** dots)
    if node.kind == REST:
        for t in node.children:
            if isinstance(t, Token) and t.label in vocabulary.RESTS:
                return vocabulary.REST_DURATIONS[t.label] * dot_factor * factor
        raise ValueError("rest node has no rest token")
    if node.kind != CHORD:
        raise ValueError(f"{node.kind} has no duration")
    heads = _head_labels(node)
    if not heads:
        raise ValueError("chord has no noteheads")
    if all(h in vocabulary.ZERO_DURATION_NOTEHEADS for h in heads):
        return Fraction(0)
    heads = [h for h in heads if h not in vocabulary.ZERO_DURATION_NOTEHEADS]
    base = Fraction(0)
    for head in heads:
        if head == "notehead_breve":
            dur = vocabulary.BREVE
        elif head == "notehead_white":
            dur = (vocabulary.WHITE_WITH_STEM if _has_stem(node)
                   else vocabulary.WHITE_WITHOUT_STEM)
        else:
            halvings = beams + _flag_count(node)
            dur = vocabulary.BLACK_BASE / (2 ** halvings)
        base = dur if base == 0 else min(base, dur)
    return base * dot_factor * factor


@dataclass(slots=True)
class TimedEvent:
    """A chord or rest located in its measure."""

    node: Node
    path: tuple[int, ...]  # child indices from the measure
    beams: int
    nominal: Fraction = Fraction(0)
    factor: Fraction = Fraction(1)

    @property
    def onset(self) -> Fraction | None:
        return self.node.onset

    @property
    def duration(self) -> Fraction:
        return self.nominal * self.factor


def timed_events(measure: Measure) -> list[TimedEvent]:
    """Chords and top-level rests in document order, with beam counts and
    tuplet factors resolved."""
    events: list[TimedEvent] = []

    def walk_group(node: Node, path: tuple[int, ...], beams: int):
        beams += sum(1 for c in node.children
                     if isinstance(c, Token) and c.label == "beam")
        for i, child in enumerate(node.children):
            if not isinstance(child, Node):
                continue
            if child.kind == CHORD:
                events.append(TimedEvent(child, path + (i,), beams))
            elif child.kind == NOTE_GROUP:
                walk_group(child, path + (i,), beams)

    for i, child in enumerate(measure.children):
        if child.kind == NOTE_GROUP:
            walk_group(child, (i,), 0)
        elif child.kind == REST:
            events.append(TimedEvent(child, (i,), 0))
    for ev in events:
        ev.nominal = duration_of(ev.node, beams=ev.beams)
    _apply_tuplet_factors(events)
    return events


def _tuplet_tokens(node: Node) -> list[tuple[str, str]]:
    """(role, pair_id) of tuplet tokens on a chord's notes or a rest."""
    found = []
    def scan(tokens):
        for t in tokens:
            if isinstance(t, Token) and t.label in ("tuplet_start", "tuplet_stop"):
                if t.pair_id is not None:
                    found.append((t.label, t.pair_id))
    if node.kind == CHORD:
        for child in node.children:
            if isinstance(child, Node) and child.kind == NOTE:
                scan(child.children)
    else:
        scan(node.children)
    return found


def _infer_ratio(members: list[TimedEvent]) -> Fraction:
    """Tuplet ratio normal/actual from member nominal durations.

    actual = span length in units of the smallest member duration; normal =
    largest power of two not above it. Unknowable spans get ratio 1.
    """
    nominals = [ev.nominal for ev in members if ev.nominal > 0]
    if not nominals:
        return Fraction(1)
    unit = min(nominals)
    n_units = sum(nominals) / unit
    if n_units.denominator != 1 or n_units < 3:
        return Fraction(1)
    actual = n_units.numerator
    normal = 1
    while normal * 2 <= actual:
        normal *= 2
    return Fraction(normal, actual)


def _apply_tuplet_factors(events: list[TimedEvent]) -> None:
    starts: dict[str, int] = {}
    stops: dict[str, int] = {}
    for idx, ev in enumerate(events):
        for role, pid in _tuplet_tokens(ev.node):
            target = starts if role == "tuplet_start" else stops
            target.setdefault(pid, idx)
    for pid, lo in starts.items():
        if pid not in stops:
            continue
        hi = stops[pid]
        if hi < lo:
            lo, hi = hi, lo
        members = events[lo:hi + 1]
        ratio = _infer_ratio(members)
        for ev in members:
            ev.factor *= ratio
