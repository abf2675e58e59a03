"""Independent reference implementations used only to check the package.

The edit-distance oracle enumerates every valid tree mapping directly from
the definition: a mapping is a one-to-one node correspondence that preserves
ancestry and left-to-right order, which is equivalent to preserving both the
preorder and postorder index order pairwise. Exponential, fine for the tiny
trees the tests feed it, and it shares no code with the package engine.

operation_counts reads the substitutions, deletions and insertions of an
edit script off its mapping.

The canonical-order reference sorts each sibling list by the canonical
module's five documented rules, recomputing every key from the subtree.
"""

from __future__ import annotations

from mtnkit.canonical import CanonicalizeError
from mtnkit.model import Measure, Node, Token
from mtnkit.trees import LabeledTree, TreeNode


def _index(tree: LabeledTree):
    """Nodes in preorder with their (preorder, postorder) numbers."""
    nodes: list[TreeNode] = []
    post: list[int] = []
    post_counter = [0]

    def walk(n: TreeNode) -> None:
        slot = len(nodes)
        nodes.append(n)
        post.append(-1)
        for c in n.children:
            walk(c)
        post[slot] = post_counter[0]
        post_counter[0] += 1

    if tree.root is not None:
        walk(tree.root)
    pre = list(range(len(nodes)))
    return nodes, pre, post


def brute_force_distance(a: LabeledTree, b: LabeledTree, costs):
    """Minimum mapping cost by exhaustive enumeration of valid mappings.

    cost(M) = sum of substitute over mapped pairs, plus delete for unmapped
    a-nodes and insert for unmapped b-nodes; valid M preserves pairwise
    preorder AND postorder order on both sides.
    """
    an, apre, apost = _index(a)
    bn, bpre, bpost = _index(b)
    na, nb = len(an), len(bn)

    best = [sum(costs.delete(n) for n in an)
            + sum(costs.insert(n) for n in bn)]

    def compatible(pairs, i, j):
        for (pi, pj) in pairs:
            if (apre[i] < apre[pi]) != (bpre[j] < bpre[pj]):
                return False
            if (apost[i] < apost[pi]) != (bpost[j] < bpost[pj]):
                return False
        return True

    def extend(i, pairs, used_b, cost):
        if cost >= best[0]:
            return  # remaining choices only add nonnegative cost
        if i == na:
            total = cost
            for j in range(nb):
                if j not in used_b:
                    total += costs.insert(bn[j])
            if total < best[0]:
                best[0] = total
            return
        extend(i + 1, pairs, used_b, cost + costs.delete(an[i]))
        for j in range(nb):
            if j in used_b:
                continue
            if compatible(pairs, i, j):
                extend(i + 1, pairs + [(i, j)], used_b | {j},
                       cost + costs.substitute(an[i], bn[j]))

    extend(0, [], frozenset(), 0)
    return best[0]


def operation_counts(script, a: LabeledTree, b: LabeledTree, costs):
    """(substitutions, deletions, insertions) of an edit script from a to
    b, read off its mapping: the unmapped nodes of a are deleted, the
    unmapped nodes of b are inserted, and a mapped pair is a substitution
    when costs charge it."""
    an, bn, mapped = a.nodes, b.nodes, len(script.mapping)
    substitutions = sum(1 for i, j in script.mapping
                        if costs.substitute(an[i], bn[j]))
    return substitutions, len(an) - mapped, len(bn) - mapped


# -- canonical order ----------------------------------------------------------
#
# A reference for mtnkit.canonical: the module docstring's five rules applied
# directly to an ordered subtree, with every key recomputed from the subtree
# itself. It shares no code with the package beyond the record and error
# types, and states each rule with literal kind and label names.

_TOP_RANK = {"attributes": 0, "direction": 1, "rest": 2, "note_group": 3,
             "barline": 4}
_STAFF_ITEM_RANK = {"clef": 0, "key": 1, "time_sig": 2}
_STEM_DIRECTION = {"stem_up": 0, "stem_down": 1}


def _is_token(item) -> bool:
    return not isinstance(item, Node)


def _step_key(token: Token) -> tuple:
    """Rule 3: a positioned token before a positionless one, then low steps
    first."""
    step = token.position.step
    return (1, 0) if step is None else (0, step)


def _token_key(token: Token) -> tuple:
    """Rules 3 and 5 for a token: staff, step, label, numeric value."""
    value = token.numeric_value
    return (token.position.staff, _step_key(token), token.label,
            0 if value is None else value)


def _reference_position(item) -> tuple:
    """Rule 3: the uppermost (staff, step key) of any token below item."""
    if _is_token(item):
        return (item.position.staff, _step_key(item))
    return min(_reference_position(child) for child in item.children)


def _reference_fingerprint(item) -> tuple:
    """Rule 5's last resort: the content, ids and pair-id values left out."""
    if _is_token(item):
        staff, step, label, value = _token_key(item)
        return ("T", label, staff, step, value, item.pair_id is not None)
    onset = () if item.onset is None else (item.onset.numerator,
                                           item.onset.denominator)
    return ("N", item.kind, onset, item.synthetic,
            tuple(_reference_fingerprint(child) for child in item.children))


def _reference_stem(node: Node) -> int:
    """Rule 4: the first stem direction in document order (0 up, 1 down,
    2 none). A direction token counts only inside a stem."""
    for child in node.children:
        if _is_token(child):
            if node.kind == "stem" and child.label in _STEM_DIRECTION:
                return _STEM_DIRECTION[child.label]
        elif (stem := _reference_stem(child)) != 2:
            return stem
    return 2


def _reference_group_onset(node: Node):
    """Rule 1 inside a note group: a nested group starts at its earliest
    chord, whatever onset it carries; any other node at its own onset."""
    if node.kind != "note_group":
        return node.onset
    onsets = [_reference_group_onset(child) for child in node.children
              if not _is_token(child)]
    return min(onsets) if onsets else None


def _reference_sibling_key(parent: str, item) -> tuple:
    kind = None if _is_token(item) else item.kind
    if parent == "attributes":  # staves top down
        return _reference_position(item)
    if parent == "attr_staff":  # clef, key, time signature
        return (_STAFF_ITEM_RANK.get(kind, 9), _reference_fingerprint(item))
    if parent == "chord":  # the stem, then notes low to high
        return (0 if kind == "stem" else 1,
                _reference_position(item) if kind == "note" else (0, (0, 0)),
                _reference_fingerprint(item))
    if _is_token(item):  # beams, and the tokens of leaf kinds, come first
        return (0, _token_key(item))
    if parent != "note_group":
        return (1, _reference_fingerprint(item))
    onset = _reference_group_onset(item)
    if onset is None:
        raise CanonicalizeError(
            "note group has no chords" if kind == "note_group"
            else f"{kind} node is missing its onset")
    return (1, onset, _reference_position(item), _reference_stem(item),
            _reference_fingerprint(item))


def _reference_order(node: Node) -> Node:
    if not node.children:
        raise CanonicalizeError(f"{node.kind} node has no tokens")
    children = [child if _is_token(child) else _reference_order(child)
                for child in node.children]
    children.sort(key=lambda child: _reference_sibling_key(node.kind, child))
    return node._replace(children=tuple(children))


def reference_canonicalize(measure: Measure) -> Measure:
    """The measure with every sibling list in canonical order, always as a
    new value; raises CanonicalizeError as mtnkit.canonical does."""
    for child in measure.children:
        if _is_token(child) or child.kind not in _TOP_RANK:
            raise CanonicalizeError("measure child is not a top-level node")
    children = [_reference_order(child) for child in measure.children]

    def top_level_key(node: Node) -> tuple:
        if node.onset is None:
            raise CanonicalizeError(f"{node.kind} node is missing its onset")
        return (node.onset, _TOP_RANK[node.kind], _reference_position(node),
                _reference_stem(node) if node.kind == "note_group" else 0,
                _reference_fingerprint(node))

    children.sort(key=top_level_key)
    return measure._replace(children=tuple(children))
