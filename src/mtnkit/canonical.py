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
from operator import is_not, itemgetter

from .model import (
    ATTR_STAFF, ATTRIBUTES, CHORD, CLEF, KEY, Measure, MTNWork, NOTE,
    NOTE_GROUP, Node, STEM, TIME_SIG, TOP_LEVEL_RANK, Token, map_tokens,
)


class CanonicalizeError(ValueError):
    """A measure cannot be ordered, e.g. a timed node is missing its onset."""


# What the sort keys read of an ordered subtree, built from its children's
# so that each subtree is walked once, is a plain 6-tuple of these fields (a
# NamedTuple's __new__ runs in Python, once per item of a measure):
# item         the subtree with every sibling list below it in order
# fingerprint  content only: ids and pair-id values excluded
# position     uppermost (staff, step key) of the tokens below
# stem         first stem direction: 0 up, 1 down, 2 none
# onset        a note group's earliest chord onset, else its own
# key          a token's sort key, (0, ...); None for a node

_NO_STEP = (1, 0)  # positioned tokens sort before positionless ones
_ATTR_ORDER = {CLEF: 0, KEY: 1, TIME_SIG: 2}
_STEM_RANK = {"stem_up": 0, "stem_down": 1}


def _token_facts(tok: Token) -> tuple:
    _, label, (staff, step), pair_id, value = tok
    step_key = _NO_STEP if step is None else (0, step)
    value = 0 if value is None else value
    return (tok, ("T", label, staff, step_key, value, pair_id is not None),
            (staff, step_key), _STEM_RANK.get(label, 2), None,
            (0, staff, step_key, label, value))


def _leaf_key(facts: tuple):
    # Leaf-only kinds (clef, key, time sig, barline, direction, stem, note,
    # rest) hold tokens; any node among them follows the tokens.
    _, fingerprint, _, _, _, key = facts
    return key or (1, fingerprint)


def _group_key(facts: tuple):
    item, fingerprint, position, stem, onset, key = facts
    if key is not None:
        return key  # beam tokens before grouped content
    if onset is None:
        raise CanonicalizeError(
            "note group has no chords" if item.kind == NOTE_GROUP
            else f"{item.kind} node is missing its onset")
    return (1, onset, position, stem, fingerprint)


def _chord_key(facts: tuple):
    item, fingerprint, position, _, _, _ = facts
    kind = getattr(item, "kind", None)  # stem, then notes low to high
    return (0 if kind == STEM else 1,
            position if kind == NOTE else (0, (0, 0)), fingerprint)


def _staff_item_key(facts: tuple):
    item, fingerprint, _, _, _, _ = facts
    return (_ATTR_ORDER.get(getattr(item, "kind", None), 9), fingerprint)


_SIBLING_KEY = {
    ATTRIBUTES: itemgetter(2),  # position: staves top down
    ATTR_STAFF: _staff_item_key,
    NOTE_GROUP: _group_key,
    CHORD: _chord_key,
}


def _order(node: Node) -> tuple:
    """node with every sibling list below it in canonical order, and the
    facts of the ordered subtree."""
    kind, children, onset, synthetic = node
    if not children:  # the sort key above it would need its position
        raise CanonicalizeError(f"{kind} node has no tokens")
    if len(children) == 1 and not isinstance(children[0], Node):
        # one token: nothing to sort, and the node is its own ordered copy
        _, fingerprint, position, stem, _, _ = _token_facts(children[0])
        item, fingerprints = node, (fingerprint,)
        stem = stem if kind == STEM else 2
        onset = None if kind == NOTE_GROUP else onset
    else:
        facts = [_order(c) if isinstance(c, Node) else _token_facts(c)
                 for c in children]
        facts.sort(key=_SIBLING_KEY.get(kind, _leaf_key))
        items, fingerprints, positions, stems, onsets, keys = zip(*facts)
        item = _with_children(node, items)
        position = min(positions)
        # the first stem in document order: a stem's own direction token
        # (its tokens sort first), else the first child node's
        stem = 2
        for child_stem, key in zip(stems, keys):
            if child_stem != 2 and (key is None or kind == STEM):
                stem = child_stem
                break
        if kind == NOTE_GROUP:
            # a token's onset is None; a node's is set, or its key raised
            onset = min((o for o in onsets if o is not None), default=None)
    # () sorts before any onset, so siblings that differ only in carrying
    # one still compare.
    own_onset = () if node.onset is None else (node.onset.numerator,
                                               node.onset.denominator)
    return (item, ("N", kind, own_onset, synthetic, fingerprints),
            position, stem, onset, None)


def _top_level_key(facts: tuple):
    node, fingerprint, position, stem, _, _ = facts
    if node.onset is None:
        raise CanonicalizeError(f"{node.kind} node is missing its onset")
    return (node.onset, TOP_LEVEL_RANK[node.kind], position,
            stem if node.kind == NOTE_GROUP else 0, fingerprint)


def _with_children(item, children: tuple):
    """item itself when children are its own, in order; else a copy."""
    if any(map(is_not, children, item.children)):
        return item._replace(children=children)
    return item


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
    return _with_children(measure, tuple([f[0] for f in facts]))


def canonicalize_work(work: MTNWork) -> MTNWork:
    parts = tuple(
        part._replace(measures=tuple(canonicalize(m) for m in part.measures))
        for part in work.parts)
    return work._replace(parts=parts)


def assign_ids(work: MTNWork) -> MTNWork:
    """Renumber token ids (t1, t2, ...) and pair ids (p1, p2, ...) in
    document order.

    Serialization is byte-stable across construction orders only after the
    measures are canonicalized and ids are normalized. Renumbering moves no
    sibling, since sort keys read no token id and only whether a pair id is
    present; so a work that canonicalize_work has ordered stays ordered,
    and the converter renumbers it just before writing.
    """
    token_numbers = itertools.count(1)
    pair_ids: dict[str, str] = {}

    def new_token(tok: Token) -> Token:
        _, label, position, pair, value = tok
        if pair is not None:
            pair = pair_ids.setdefault(pair, f"p{len(pair_ids) + 1}")
        return Token(f"t{next(token_numbers)}", label, position, pair, value)

    return map_tokens(work, new_token)
