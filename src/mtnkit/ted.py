"""Ordered labeled tree edit distance with edit-mapping extraction.

Zhang and Shasha's keyroot dynamic program (SIAM J. Comput. 18(6), 1989)
over the postorder arrays of LabeledTree: nodes[i] and lml[i], the index of
node i's leftmost leaf, so that node i's subtree is the interval lml[i]..i.
A keyroot is the last node with a given lml; the forest table of each pair
of keyroot subtrees fills td[i][j], the distance between the subtrees of i
and j, and mp[i][j], the cost of mapping i to j (their child forests'
distance plus the relabel), wherever both i and j lie on their keyroot's
leftmost path. Every node pair lies on exactly one such pair of paths.

The cost model is called once per node for deletes and inserts and once per
node pair for relabels. All costs are scaled to integers by the least
common multiple of their denominators (half-units for the semantic costs),
so the tables hold plain ints; the result is scaled back exactly.

The backtrace walks the forest table of the two trees, then rebuilds from
td the table of the two child forests of each mapped pair. At each cell it
prefers mapping the two rightmost roots, then deleting, then inserting,
which yields the leftmost optimal mapping for this traversal order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import vocabulary
from .trees import LabeledTree, TreeNode

Cost = Union[int, Fraction]


class CostModel:
    """Nonnegative int or Fraction costs for delete/insert/relabel.

    Subclass to refine."""

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


def _keyroots(lml: tuple[int, ...]) -> list[int]:
    """The last postorder index of each distinct lml value, ascending."""
    return sorted({left: i for i, left in enumerate(lml)}.values())


class _Tables:
    """Scaled costs and the Zhang-Shasha tables of one tree pair."""

    def __init__(self, a: LabeledTree, b: LabeledTree, costs: CostModel):
        an, bn = a.nodes, b.nodes
        dels = [costs.delete(x) for x in an]
        ins = [costs.insert(y) for y in bn]
        subs = [[costs.substitute(x, y) for y in bn] for x in an]
        self.scale = scale = math.lcm(*{
            c.denominator for row in (dels, ins, *subs) for c in row})
        self.dels = [c.numerator * (scale // c.denominator) for c in dels]
        self.ins = [c.numerator * (scale // c.denominator) for c in ins]
        self.subs = [[c.numerator * (scale // c.denominator) for c in row]
                     for row in subs]
        self.al, self.bl = a.lml, b.lml
        self.td = [[0] * len(bn) for _ in an]
        self.mp = [[0] * len(bn) for _ in an]
        if an and bn:
            bkeys = _keyroots(b.lml)
            for k1 in _keyroots(a.lml):
                for k2 in bkeys:
                    table = self.forest(a.lml[k1], k1, b.lml[k2], k2)
        else:
            table = self.forest(0, len(an) - 1, 0, len(bn) - 1)
        self.root = table  # the forest table of the two whole trees

    def forest(self, alo: int, ahi: int,
               blo: int, bhi: int) -> list[list[int]]:
        """Distances between the prefixes of two postorder intervals.

        fd[x][y] is the distance between nodes alo..alo+x-1 and
        blo..blo+y-1. Each interval is a keyroot's subtree or a node's child
        forest, so every node in it has its lml inside it. Where i and j
        both have lml at the interval's start, their mapping cost and tree
        distance are stored in mp and td (a rebuilt table stores the same
        values again); elsewhere td is read.
        """
        al, bl, td, mp = self.al, self.bl, self.td, self.mp
        dels, ins, subs = self.dels, self.ins, self.subs
        row0 = [0]
        for j in range(blo, bhi + 1):
            row0.append(row0[-1] + ins[j])
        cols = [(j, ins[j], bl[j] - blo) for j in range(blo, bhi + 1)]
        fd = [row0]
        prev = row0
        for i in range(alo, ahi + 1):
            di = dels[i]
            tdi = td[i]
            last = prev[0] + di
            cur = [last]
            if al[i] == alo:
                mpi, subi = mp[i], subs[i]
                for (j, cj, bo), up, diag in zip(cols, prev[1:], prev):
                    v = up + di
                    w = last + cj
                    if w < v:
                        v = w
                    if bo:
                        w = row0[bo] + tdi[j]
                        if w < v:
                            v = w
                    else:
                        w = diag + subi[j]
                        mpi[j] = w
                        if w < v:
                            v = w
                        tdi[j] = v
                    cur.append(v)
                    last = v
            else:
                left = fd[al[i] - alo]
                for (j, cj, bo), up in zip(cols, prev[1:]):
                    v = up + di
                    w = last + cj
                    if w < v:
                        v = w
                    w = left[bo] + tdi[j]
                    if w < v:
                        v = w
                    cur.append(v)
                    last = v
            fd.append(cur)
            prev = cur
        return fd

    def cost(self) -> Cost:
        total = self.root[-1][-1]
        if total % self.scale:
            return Fraction(total, self.scale)
        return total // self.scale


def tree_edit_distance(a: LabeledTree, b: LabeledTree,
                       costs: CostModel = UNIT_COSTS) -> EditScript:
    """Minimum-cost edit script turning tree a into tree b."""
    fast = _identity_script(a, b, costs)
    if fast is not None:
        return fast
    t = _Tables(a, b, costs)
    al, bl, mp = t.al, t.bl, t.mp
    na, nb = len(al), len(bl)
    mapping: list[tuple[int, int]] = []
    deletions = insertions = substitutions = 0
    todo = [(0, na - 1, 0, nb - 1, t.root)]
    while todo:
        alo, ahi, blo, bhi, fd = todo.pop()
        x, y = ahi - alo + 1, bhi - blo + 1
        if x and y and fd is None:
            fd = t.forest(alo, ahi, blo, bhi)
        while x and y:
            i, j = alo + x - 1, blo + y - 1
            total = fd[x][y]
            li, lj = al[i] - alo, bl[j] - blo
            if fd[li][lj] + mp[i][j] == total:
                mapping.append((i, j))
                if t.subs[i][j]:
                    substitutions += 1
                todo.append((al[i], i - 1, bl[j], j - 1, None))
                x, y = li, lj
            elif fd[x - 1][y] + t.dels[i] == total:
                deletions += 1
                x -= 1
            else:
                insertions += 1
                y -= 1
        deletions += x
        insertions += y
    mapping.sort()
    return EditScript(t.cost(), substitutions, deletions, insertions,
                      tuple(mapping), na, nb)
