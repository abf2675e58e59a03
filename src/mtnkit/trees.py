"""Projection of measures onto plain ordered labeled trees.

All three metric tiers run on these projections rather than the rich model:
internal nodes are labeled by their structural kind, leaves by their token
class. Tier 1 counts the token leaves. Notehead and rest leaves also carry
pitch/onset metadata for the semantic cost model; unit costs compare labels
only, so tiers 2 and 3 share one projection per measure.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Optional

from . import vocabulary
from .model import NOTE, REST, Measure, Node, Token
from .timing import timed_events

MEASURE_LABEL = "measure"


class NoteMeta(NamedTuple):
    """Semantic payload of a notehead leaf."""

    staff: int
    step: int
    onset: Fraction
    is_rest: bool = False


class TreeNode(NamedTuple):
    """A projected node. token marks a leaf made from a token (an internal
    node with no children is not one); synthetic marks anything under a
    synthesized line-start attributes node."""

    label: str
    children: tuple["TreeNode", ...] = ()
    meta: Optional[NoteMeta] = None
    synthetic: bool = False
    token: bool = False


class LabeledTree:
    """An ordered labeled tree; root may be absent (the empty tree).

    nodes lists the tree in postorder and lml[i] is the postorder index of
    node i's leftmost leaf, so node i's subtree is exactly nodes[lml[i]:i+1].
    timing_error holds the reason the measure's events could not be timed,
    in which case no leaf carries metadata.
    """

    __slots__ = ("root", "timing_error", "nodes", "lml")

    def __init__(self, root: TreeNode | None = None,
                 timing_error: ValueError | None = None) -> None:
        self.root = root
        self.timing_error = timing_error
        # Right-to-left preorder, reversed, is left-to-right postorder.
        order: list[TreeNode] = []
        todo = [root] if root is not None else []
        while todo:
            n = todo.pop()
            order.append(n)
            todo.extend(n.children)
        order.reverse()
        sizes: list[int] = []  # sizes of the finished subtrees not yet claimed
        lml: list[int] = []
        for i, n in enumerate(order):
            k = len(n.children)
            size = 1
            if k:
                size += sum(sizes[-k:])
                del sizes[-k:]
            sizes.append(size)
            lml.append(i - size + 1)
        self.nodes = tuple(order)
        self.lml = tuple(lml)


EMPTY_TREE = LabeledTree(None)


def untimeable(side: str, name: str, measure_id: str,
               error: ValueError) -> ValueError:
    """The error that stops a run on a measure whose events could not be
    timed, naming the side ("truth" or "prediction"), the file and the
    measure."""
    return ValueError(
        f"{side} {name}: measure {measure_id} cannot be timed: {error}")


def _meta(token: Token, event: Node, is_rest: bool) -> NoteMeta:
    return NoteMeta(staff=token.position.staff,
                    step=0 if is_rest else token.position.step,
                    onset=event.onset, is_rest=is_rest)


def project_tree(measure: Measure | None) -> LabeledTree:
    """Project a measure to a labeled tree; None projects to the empty tree.

    Leaves are labeled by token class. Notehead leaves carry (staff, step,
    onset) from their chord's event, rest leaves (staff, onset) from their
    top-level rest. A measure whose events cannot be timed projects with
    the same labels, no metadata, and the error kept in timing_error.
    """
    if measure is None:
        return EMPTY_TREE
    try:
        events = {id(event) for event in timed_events(measure)}
        error = None
    except ValueError as exc:
        events, error = set(), exc

    def build(node: Node, synthetic: bool,
              parent_event: Node | None) -> TreeNode:
        synthetic = synthetic or node.synthetic
        event = node if id(node) in events else None
        kids: list[TreeNode] = []
        for child in node.children:
            if isinstance(child, Node):
                kids.append(build(child, synthetic, event))
                continue
            meta = None
            if (node.kind == REST and event is not None
                    and child.label in vocabulary.RESTS):
                meta = _meta(child, event, True)
            elif (node.kind == NOTE and parent_event is not None
                    and child.label in vocabulary.NOTEHEADS):
                meta = _meta(child, parent_event, False)
            kids.append(TreeNode(child.label, meta=meta, synthetic=synthetic,
                                 token=True))
        return TreeNode(node.kind, tuple(kids), synthetic=synthetic)

    children = tuple(build(child, False, None) for child in measure.children)
    return LabeledTree(TreeNode(MEASURE_LABEL, children), error)


def token_counts(tree: LabeledTree, *,
                 include_synthetic: bool = True) -> Counter:
    """Multiset of token class labels in a projected measure.

    With include_synthetic False, tokens under synthesized line-start
    attribute nodes are skipped.
    """
    return Counter(n.label for n in tree.nodes
                   if n.token and (include_synthetic or not n.synthetic))
