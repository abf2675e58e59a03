"""Ordered labeled tree edit distance with edit-mapping extraction.

Memoized forest-distance recursion over postorder intervals (the classic
keyroot decomposition arises implicitly from the lazy evaluation). Costs are
exact rationals or ints; the result carries the optimal cost, the operation
counts, and the node mapping the optimum realizes, which downstream metrics
consume.

Ties between scripts are broken deterministically: substitution is preferred
over delete+insert, then deletion over insertion, which yields the leftmost
optimal mapping for the traversal order used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import vocabulary
from .trees import LabeledTree, TreeNode

Cost = Union[int, Fraction]


class CostModel:
    """Nonnegative costs for delete/insert/relabel. Subclass to refine."""

    def delete(self, node: TreeNode) -> Cost:
        return 1

    def insert(self, node: TreeNode) -> Cost:
        return 1

    def substitute(self, a: TreeNode, b: TreeNode) -> Cost:
        return 0 if a.label == b.label else 1


class SemanticCostModel(CostModel):
    """Unit costs, except notehead-to-notehead relabels which compare
    (staff, step, head class): equal on all three costs 0, differing in
    exactly one costs 1/2, otherwise 1."""

    def substitute(self, a: TreeNode, b: TreeNode) -> Cost:
        if (a.meta is not None and b.meta is not None
                and not a.meta.is_rest and not b.meta.is_rest
                and a.label in vocabulary.NOTEHEADS
                and b.label in vocabulary.NOTEHEADS):
            diffs = ((a.meta.staff != b.meta.staff)
                     + (a.meta.step != b.meta.step)
                     + (a.meta.head != b.meta.head))
            if diffs == 0:
                return 0
            if diffs == 1:
                return Fraction(1, 2)
            return 1
        return 0 if a.label == b.label else 1


UNIT_COSTS = CostModel()
SEMANTIC_COSTS = SemanticCostModel()


@dataclass(frozen=True, slots=True)
class EditScript:
    """Optimal edit script between two trees.

    mapping holds (a_index, b_index) pairs into the postorder node lists;
    substitutions counts mapped pairs with nonzero relabel cost.
    """

    cost: Cost
    substitutions: int
    deletions: int
    insertions: int
    mapping: tuple[tuple[int, int], ...]
    a_size: int
    b_size: int

    @property
    def operations(self) -> int:
        return self.substitutions + self.deletions + self.insertions


_EMPTY = (0, -1)


def _norm(lo: int, hi: int) -> tuple[int, int]:
    return _EMPTY if hi < lo else (lo, hi)


def _identity_script(a: LabeledTree, b: LabeledTree,
                     costs: CostModel) -> EditScript | None:
    """Zero-cost script when the trees align pairwise at zero relabel cost.

    Equal leftmost-leaf arrays mean equal shapes: node i's subtree is the
    postorder interval lml[i]..i.
    """
    if a.lml != b.lml:
        return None
    for x, y in zip(a.nodes, b.nodes):
        if costs.substitute(x, y) != 0:
            return None
    n = len(a.nodes)
    return EditScript(0, 0, 0, 0, tuple((i, i) for i in range(n)), n, n)


def tree_edit_distance(a: LabeledTree, b: LabeledTree,
                       costs: CostModel = UNIT_COSTS) -> EditScript:
    """Minimum-cost edit script turning tree a into tree b."""
    fast = _identity_script(a, b, costs)
    if fast is not None:
        return fast
    anodes, almd = a.nodes, a.lml
    bnodes, blmd = b.nodes, b.lml
    na, nb = len(anodes), len(bnodes)

    memo: dict[tuple[int, int, int, int], Cost] = {(0, -1, 0, -1): 0}
    root = (_norm(0, na - 1) + _norm(0, nb - 1))

    def deps(state):
        alo, ahi, blo, bhi = state
        if ahi < alo:
            return ((alo, ahi) + _norm(blo, bhi - 1),)
        if bhi < blo:
            return (_norm(alo, ahi - 1) + (blo, bhi),)
        left = (_norm(alo, almd[ahi] - 1) + _norm(blo, blmd[bhi] - 1))
        inner = (_norm(almd[ahi], ahi - 1) + _norm(blmd[bhi], bhi - 1))
        return (_norm(alo, ahi - 1) + (blo, bhi),
                (alo, ahi) + _norm(blo, bhi - 1),
                left, inner)

    stack = [root]
    while stack:
        state = stack[-1]
        if state in memo:
            stack.pop()
            continue
        dd = deps(state)
        missing = [d for d in dd if d not in memo]
        if missing:
            stack.extend(missing)
            continue
        alo, ahi, blo, bhi = state
        if ahi < alo:
            memo[state] = memo[dd[0]] + costs.insert(bnodes[bhi])
        elif bhi < blo:
            memo[state] = memo[dd[0]] + costs.delete(anodes[ahi])
        else:
            c_del = memo[dd[0]] + costs.delete(anodes[ahi])
            c_ins = memo[dd[1]] + costs.insert(bnodes[bhi])
            c_mat = (memo[dd[2]] + memo[dd[3]]
                     + costs.substitute(anodes[ahi], bnodes[bhi]))
            best = c_mat if c_mat <= c_del else c_del
            if c_ins < best:
                best = c_ins
            memo[state] = best
        stack.pop()

    # Backtrace: recompute each state's candidates from the memo and follow
    # the preferred one (substitute, then delete, then insert).
    mapping: list[tuple[int, int]] = []
    deletions = insertions = substitutions = 0
    trail = [root]
    while trail:
        state = trail.pop()
        alo, ahi, blo, bhi = state
        a_empty, b_empty = ahi < alo, bhi < blo
        if a_empty and b_empty:
            continue
        dd = deps(state)
        total = memo[state]
        if a_empty:
            insertions += 1
            trail.append(dd[0])
            continue
        if b_empty:
            deletions += 1
            trail.append(dd[0])
            continue
        sub = costs.substitute(anodes[ahi], bnodes[bhi])
        if memo[dd[2]] + memo[dd[3]] + sub == total:
            mapping.append((ahi, bhi))
            if sub != 0:
                substitutions += 1
            trail.append(dd[2])
            trail.append(dd[3])
        elif memo[dd[0]] + costs.delete(anodes[ahi]) == total:
            deletions += 1
            trail.append(dd[0])
        else:
            insertions += 1
            trail.append(dd[1])

    mapping.sort()
    return EditScript(memo[root], substitutions, deletions, insertions,
                      tuple(mapping), na, nb)
