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
from dataclasses import replace
from fractions import Fraction
from typing import Union

from . import vocabulary
from .model import (
    ATTR_STAFF, ATTRIBUTES, CHORD, CLEF, KEY, Measure, MTNWork, NOTE,
    NOTE_GROUP, Node, STEM, TIME_SIG, TOP_LEVEL_RANK, Token, iter_nodes,
    map_tokens,
)

Child = Union[Node, Token]


class CanonicalizeError(ValueError):
    """A measure cannot be ordered, e.g. a timed node is missing its onset."""


_NO_STEP = (1, 0)  # positioned tokens sort before positionless ones


def _step_key(step: int | None) -> tuple[int, int]:
    return _NO_STEP if step is None else (0, step)


def _token_sort_key(tok: Token):
    return (tok.position.staff, _step_key(tok.position.step), tok.label,
            tok.numeric_value if tok.numeric_value is not None else 0)


def _fingerprint(child: Child):
    """Content-only identity of a subtree: ids and pair-id values excluded."""
    if isinstance(child, Token):
        return ("T", child.label, child.position.staff,
                _step_key(child.position.step),
                child.numeric_value if child.numeric_value is not None else 0,
                child.pair_id is not None)
    # () sorts before any onset, so siblings that differ only in carrying
    # one still compare.
    onset = (child.onset.numerator, child.onset.denominator) \
        if child.onset is not None else ()
    return ("N", child.kind, onset, child.synthetic,
            tuple(_fingerprint(c) for c in child.children))


def _min_position(node: Node) -> tuple[int, tuple[int, int]]:
    """(staff, step key) over all tokens below node, uppermost first."""
    best: tuple[int, tuple[int, int]] | None = None
    for child in node.children:
        cand = ((child.position.staff, _step_key(child.position.step))
                if isinstance(child, Token) else _min_position(child))
        if best is None or cand < best:
            best = cand
    if best is None:
        raise CanonicalizeError(f"{node.kind} node has no tokens")
    return best


def _first_stem_rank(node: Node) -> int:
    """0 for stems up, 1 for down, 2 for stemless content."""
    for sub in iter_nodes(node):
        if sub.kind == STEM:
            for tok in sub.children:
                if isinstance(tok, Token) and tok.label in vocabulary.STEM_DIRECTIONS:
                    return 0 if tok.label == "stem_up" else 1
    return 2


def _require_onset(node: Node) -> Fraction:
    if node.onset is None:
        raise CanonicalizeError(f"{node.kind} node is missing its onset")
    return node.onset


def _min_onset(node: Node) -> Fraction:
    """Earliest chord onset below a grouping node."""
    if node.kind != NOTE_GROUP:
        return _require_onset(node)
    onsets = [_min_onset(c) for c in node.children if isinstance(c, Node)]
    if not onsets:
        raise CanonicalizeError("note group has no chords")
    return min(onsets)


def _top_level_key(node: Node):
    if not isinstance(node, Node) or node.kind not in TOP_LEVEL_RANK:
        raise CanonicalizeError("measure child is not a top-level node")
    return (_require_onset(node), TOP_LEVEL_RANK[node.kind],
            _min_position(node),
            _first_stem_rank(node) if node.kind == NOTE_GROUP else 0,
            _fingerprint(node))


def _group_child_key(child: Child):
    # Beam tokens before grouped content.
    if isinstance(child, Token):
        return (0, Fraction(0), (0, (0, 0)), 0, _token_sort_key(child))
    return (1, _min_onset(child), _min_position(child),
            _first_stem_rank(child), _fingerprint(child))


_ATTR_ORDER = {CLEF: 0, KEY: 1, TIME_SIG: 2}


def _staff_block_key(child: Child):
    if isinstance(child, Token):
        return (child.position.staff, _step_key(child.position.step))
    return _min_position(child)


def _canonical_node(node: Node) -> Node:
    children = tuple(
        _canonical_node(c) if isinstance(c, Node) else c
        for c in node.children)
    kind = node.kind
    if kind == ATTRIBUTES:
        children = tuple(sorted(children, key=_staff_block_key))
    elif kind == ATTR_STAFF:
        children = tuple(sorted(
            children,
            key=lambda c: (_ATTR_ORDER.get(getattr(c, "kind", None), 9),
                           _fingerprint(c))))
    elif kind == NOTE_GROUP:
        children = tuple(sorted(children, key=_group_child_key))
    elif kind == CHORD:
        children = tuple(sorted(
            children,
            key=lambda c: (0 if getattr(c, "kind", None) == STEM else 1,
                           _min_position(c) if getattr(c, "kind", None) == NOTE
                           else (0, (0, 0)),
                           _fingerprint(c))))
    else:
        # Leaf-only kinds: clef, key, time sig, barline, direction, stem,
        # note, rest all hold tokens.
        children = tuple(sorted(
            children,
            key=lambda c: ((0, _token_sort_key(c)) if isinstance(c, Token)
                           else (1, _fingerprint(c)))))
    return _with_children(node, children)


def _with_children(item, children: tuple):
    """item itself when children are its own, in order; else a copy."""
    if all(a is b for a, b in zip(children, item.children)):
        return item
    return replace(item, children=children)


def canonicalize(measure: Measure) -> Measure:
    """Return the measure with every sibling list in canonical order.

    A measure already in canonical order is returned itself, so
    ``canonicalize(m) is m`` tells whether anything moved.

    Raises CanonicalizeError when ordering needs an onset that is absent.
    """
    children = tuple(_canonical_node(c) if isinstance(c, Node) else c
                     for c in measure.children)
    children = tuple(sorted(children, key=_top_level_key))
    return _with_children(measure, children)


def canonicalize_work(work: MTNWork) -> MTNWork:
    parts = tuple(
        replace(part, measures=tuple(canonicalize(m) for m in part.measures))
        for part in work.parts)
    return replace(work, parts=parts)


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
        return replace(tok, id=f"t{next(token_numbers)}", pair_id=pair)

    return map_tokens(work, new_token)
