"""Canonical reading order and id normalization.

Sibling order inside a measure is fully determined by content:

1. onset, earliest first;
2. at equal onsets, node class: attributes, directions, rests, note groups,
   then barlines;
3. then staff (upper staves first) and staff step (lower positions first);
4. a note group whose first stem points up precedes one whose first stem
   points down;
5. remaining ties break on token labels alphabetically, and finally on a
   recursive content fingerprint so the order is total and content-determined.

Two measures with the same content always canonicalize to identical trees
regardless of construction order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .model import (
    ATTR_STAFF, ATTRIBUTES, CHORD, CLEF, KEY, Measure, MTNWork, NOTE,
    NOTE_GROUP, Node, STEM, TIME_SIG, TOP_LEVEL_RANK, Token, map_tokens,
)


class CanonicalizeError(ValueError):
    """A measure cannot be ordered, e.g. a timed node is missing its onset."""


class _Facts(NamedTuple):
    """An ordered subtree and what sort keys read of it, built from its
    children's facts so that each subtree is walked once."""

    item: Node | Token
    fingerprint: tuple  # content only: ids and pair-id values excluded
    position: tuple  # uppermost (staff, step key) of the tokens below
    stem: int  # first stem direction: 0 up, 1 down, 2 none
    onset: Fraction | None  # a note group's earliest chord onset, else own
    key: tuple | None  # a token's sort key; None for a node


_NO_STEP = (1, 0)  # positioned tokens sort before positionless ones
_ATTR_ORDER = {CLEF: 0, KEY: 1, TIME_SIG: 2}
_STEM_RANK = {"stem_up": 0, "stem_down": 1}


def _token_facts(tok: Token) -> _Facts:
    staff, step = tok.position.staff, tok.position.step
    step_key = _NO_STEP if step is None else (0, step)
    value = tok.numeric_value if tok.numeric_value is not None else 0
    return _Facts(
        tok, ("T", tok.label, staff, step_key, value, tok.pair_id is not None),
        (staff, step_key), _STEM_RANK.get(tok.label, 2), None,
        (staff, step_key, tok.label, value))


def _leaf_key(f: _Facts):
    # Leaf-only kinds (clef, key, time sig, barline, direction, stem, note,
    # rest) hold tokens; any node among them follows the tokens.
    return (0, f.key) if f.key is not None else (1, f.fingerprint)


def _group_key(f: _Facts):
    if f.key is not None:
        return (0, f.key)  # beam tokens before grouped content
    if f.onset is None:
        raise CanonicalizeError(
            "note group has no chords" if f.item.kind == NOTE_GROUP
            else f"{f.item.kind} node is missing its onset")
    return (1, f.onset, f.position, f.stem, f.fingerprint)


def _chord_key(f: _Facts):
    kind = getattr(f.item, "kind", None)  # stem, then notes low to high
    return (0 if kind == STEM else 1,
            f.position if kind == NOTE else (0, (0, 0)), f.fingerprint)


_SIBLING_KEY = {
    ATTRIBUTES: lambda f: f.position,  # staves top down
    ATTR_STAFF: lambda f: (_ATTR_ORDER.get(getattr(f.item, "kind", None), 9),
                           f.fingerprint),
    NOTE_GROUP: _group_key,
    CHORD: _chord_key,
}


def _order(node: Node) -> _Facts:
    """node with every sibling list below it in canonical order, and the
    facts of the ordered subtree."""
    kind = node.kind
    if not node.children:
        # its position would be needed by the top-level sort key above it
        raise CanonicalizeError(f"{kind} node has no tokens")
    facts = [_order(c) if isinstance(c, Node) else _token_facts(c)
             for c in node.children]
    facts.sort(key=_SIBLING_KEY.get(kind, _leaf_key))
    items, fingerprints, positions, _, _, _ = zip(*facts)
    # the first stem in document order: a stem's own direction token (its
    # tokens sort first), else the first child node's
    stem = 2
    for f in facts:
        if f.stem != 2 and (f.key is None or kind == STEM):
            stem = f.stem
            break
    onset = node.onset
    if kind == NOTE_GROUP:
        onset = min((f.onset for f in facts if f.key is None), default=None)
    # () sorts before any onset, so siblings that differ only in carrying
    # one still compare.
    own_onset = (node.onset.numerator, node.onset.denominator) \
        if node.onset is not None else ()
    return _Facts(_with_children(node, items),
                  ("N", kind, own_onset, node.synthetic, fingerprints),
                  min(positions), stem, onset, None)


def _top_level_key(f: _Facts):
    node = f.item
    if node.onset is None:
        raise CanonicalizeError(f"{node.kind} node is missing its onset")
    return (node.onset, TOP_LEVEL_RANK[node.kind], f.position,
            f.stem if node.kind == NOTE_GROUP else 0, f.fingerprint)


def _with_children(item, children: tuple):
    """item itself when children are its own, in order; else a copy."""
    if all(a is b for a, b in zip(children, item.children)):
        return item
    return item._replace(children=children)


def canonicalize(measure: Measure) -> Measure:
    """Return the measure with every sibling list in canonical order.

    A measure already in canonical order is returned itself, so
    ``canonicalize(m) is m`` tells whether anything moved.

    Raises CanonicalizeError when ordering needs an onset that is absent,
    a node holds nothing, or a measure child is not a top-level node.
    """
    for child in measure.children:
        if not isinstance(child, Node) or child.kind not in TOP_LEVEL_RANK:
            raise CanonicalizeError("measure child is not a top-level node")
    facts = sorted(map(_order, measure.children), key=_top_level_key)
    return _with_children(measure, tuple(f.item for f in facts))


def canonicalize_work(work: MTNWork) -> MTNWork:
    parts = tuple(
        part._replace(measures=tuple(canonicalize(m) for m in part.measures))
        for part in work.parts)
    return work._replace(parts=parts)


def assign_ids(work: MTNWork) -> MTNWork:
    """Renumber token ids (t1, t2, ...) and pair ids (p1, p2, ...) in
    canonical document order.

    Serialization is byte-stable across construction orders only after the
    measures are canonicalized and ids are normalized; converters call this
    as their final step.
    """
    token_numbers = itertools.count(1)
    pair_ids: dict[str, str] = {}

    def new_token(tok: Token) -> Token:
        pair = tok.pair_id
        if pair is not None:
            pair = pair_ids.setdefault(pair, f"p{len(pair_ids) + 1}")
        return Token(f"t{next(token_numbers)}", tok.label, tok.position, pair,
                     tok.numeric_value)

    return map_tokens(work, new_token)
