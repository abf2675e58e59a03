"""Ordered labeled tree edit distance with edit-mapping extraction.

Zhang and Shasha's keyroot dynamic program (SIAM J. Comput. 18(6), 1989)
over the postorder arrays of LabeledTree: nodes[i] and lml[i], the index of
node i's leftmost leaf, so that node i's subtree is the interval lml[i]..i.
A keyroot is the last node with a given lml; the forest table of each pair
of keyroot subtrees fills td[i][j], the distance between the subtrees of i
and j, and mp[i][j], the cost of mapping i to j (their child forests'
distance plus the relabel), wherever both i and j lie on their keyroot's
leftmost path. Every node pair lies on exactly one such pair of paths.

The tables are banded by an upper bound U on the distance (after Touzet,
"A linear tree edit distance algorithm for similar ordered trees", CPM
2005). Let c_min be the least delete or insert cost, so a mapping that
leaves k nodes unmapped costs at least k * c_min. Say a mapping splits at
(p, q) when it maps a's first p postorder nodes only to b's first q nodes
and back. It then leaves at least |d| nodes unmapped before the split and
|D - d| after it, where d = p - q and D = na - nb, so a mapping of cost at
most U has |d| + |D - d| <= K = floor(U / c_min) at each split: min(0, D)
- s <= d <= max(0, D) + s with s = floor((K - |D|) / 2). An optimal
mapping splits at every forest-table cell (alo + x, blo + y) its
derivation reads, and at (i + 1, j + 1) for each of its pairs (i, j),
whose td and mp entries the derivation reads. So the tables fill cells,
and the cost model relabels pairs, only on those diagonals; everything
else holds INF, which exceeds the cost of every script. INF can only raise
values off every optimal derivation, so the cost and every equality the
backtrace tests come out as without the band. Keyroot pairs whose leftmost
paths meet no diagonal of the band are skipped.

When both trees have the same shape, U is the cost of mapping each node to
the node with its index, and U = 0 returns that identity script at once.
Otherwise a first pass with s = 1, which still lets deletes and inserts
reach the last cell, yields the cost of some mapping, and a second pass
runs only if that bound needs a wider band. A free delete or insert
(c_min = 0) leaves no band.

Deletes and inserts are costed once per node. All costs are scaled to
integers by the least common multiple of their denominators (half-units
for the semantic costs), so the tables hold plain ints; the result is
scaled back exactly.

The backtrace walks the forest table of the two trees, then rebuilds from
td the table of the two child forests of each mapped pair. At each cell it
prefers mapping the two rightmost roots, then deleting, then inserting,
which yields the leftmost optimal mapping for this traversal order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
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


def _identity_cost(a: LabeledTree, b: LabeledTree,
                   costs: CostModel) -> Cost | None:
    """Cost of mapping node i to node i, or None if the shapes differ.

    Equal leftmost-leaf arrays mean equal shapes: node i's subtree is the
    postorder interval lml[i]..i.
    """
    if a.lml != b.lml:
        return None
    return sum(costs.substitute(x, y) for x, y in zip(a.nodes, b.nodes))


class _Tables:
    """Scaled costs and the banded Zhang-Shasha tables of one tree pair.

    bound is the cost of some mapping, or None for a first, narrow pass
    whose own cost then bounds the distance.
    """

    def __init__(self, a: LabeledTree, b: LabeledTree, costs: CostModel,
                 bound: Cost | None):
        an, bn = a.nodes, b.nodes
        na, nb = len(an), len(bn)
        al, bl = self.al, self.bl = a.lml, b.lml
        dels = [costs.delete(x) for x in an]
        ins = [costs.insert(y) for y in bn]
        self.least = min(dels + ins, default=0)
        self.slack = slack = self.slack_for(bound)
        lo = self.lo = min(0, na - nb) - slack
        hi = self.hi = max(0, na - nb) + slack
        window = [range(max(0, i - hi), min(nb, i - lo + 1))
                  for i in range(na)]
        relabels = [[costs.substitute(x, bn[j]) for j in js]
                    for x, js in zip(an, window)]
        self.scale = scale = math.lcm(*{
            c.denominator for c in chain(dels, ins, *relabels)})
        self.dels = [c.numerator * (scale // c.denominator) for c in dels]
        self.ins = [c.numerator * (scale // c.denominator) for c in ins]
        relabels = [[c.numerator * (scale // c.denominator) for c in row]
                    for row in relabels]
        # INF exceeds the cost of every edit script, which relabels each
        # node pair at most once.
        inf = self.inf = (sum(self.dels) + sum(self.ins)
                          + sum(map(sum, relabels)) + 1)
        self.subs, self.td, self.mp = ([[inf] * nb for _ in an]
                                       for _ in range(3))
        near: dict[int, set[int]] = {}  # a's lml -> b's lml values in band
        for i, js in enumerate(window):
            self.subs[i][js.start:js.stop] = relabels[i]
            near.setdefault(al[i], set()).update(bl[js.start:js.stop])
        akey = {left: i for i, left in enumerate(al)}  # keyroot of each lml
        bkey = {left: j for j, left in enumerate(bl)}
        keys = sorted((akey[la], bkey[lb])
                      for la, lbs in near.items() for lb in lbs)
        if an and bn:
            for k1, k2 in keys:
                table = self.forest(al[k1], k1, bl[k2], k2)
        else:
            table = self.forest(0, na - 1, 0, nb - 1)
        self.root = table  # the forest table of the two whole trees

    def slack_for(self, bound: Cost | None) -> int:
        """The band's slack s for a bound on the distance, None for the
        first pass (see the module docstring)."""
        na, nb = len(self.al), len(self.bl)
        if not self.least:
            return na + nb
        if bound is None:
            return 1
        return (bound // self.least - abs(na - nb)) // 2

    def forest(self, alo: int, ahi: int,
               blo: int, bhi: int) -> list[list[int]]:
        """Distances between the prefixes of two postorder intervals.

        fd[x][y] is the distance between nodes alo..alo+x-1 and
        blo..blo+y-1. Each interval is a keyroot's subtree or a node's child
        forest, so every node in it has its lml inside it. Where i and j
        both have lml at the interval's start, their mapping cost and tree
        distance are stored in mp and td (a rebuilt table stores the same
        values again); elsewhere td is read.

        Only cells on the band's diagonals, lo <= (alo + x) - (blo + y) <=
        hi, are filled; the rest hold INF, and rows or columns no band cell
        reaches are left out.
        """
        al, bl, td, mp = self.al, self.bl, self.td, self.mp
        dels, ins, subs = self.dels, self.ins, self.subs
        c, lo, hi = alo - blo, self.lo, self.hi
        width = max(0, min(bhi - blo + 1, ahi - alo + 1 + c - lo)) + 1
        blank = [self.inf] * width
        row0 = blank[:]
        if lo <= c <= hi:
            row0[0] = 0
            for y in range(1, min(width - 1, c - lo) + 1):
                row0[y] = row0[y - 1] + ins[blo + y - 1]
        first = max(1, c + 1 - hi)  # the first column a band cell holds
        cols = [(j, ins[j], bl[j] - blo)
                for j in range(blo + first - 1, blo + width - 1)]
        # Row x holds node alo + x - 1; rows before the band's first row and
        # after its last are left blank or out.
        fd = [row0] + [blank] * (max(1, lo - c) - 1)
        prev = fd[-1]
        for i in range(alo + len(fd) - 1,
                       min(ahi + 1, alo + width - 1 + hi - c)):
            ylo, yhi = i + 1 - blo - hi, i + 1 - blo - lo
            if yhi >= width:
                yhi = width - 1
            di = dels[i]
            tdi = td[i]
            cur = blank[:]
            if ylo <= 0:
                cur[0] = prev[0] + di
                ylo = 1
            last = cur[ylo - 1]
            vals = []
            band = zip(cols[ylo - first:yhi + 1 - first], prev[ylo:yhi + 1],
                       prev[ylo - 1:yhi])
            if al[i] == alo:
                mpi, subi = mp[i], subs[i]
                for (j, cj, bo), up, diag in band:
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
                    vals.append(v)
                    last = v
            else:
                left = fd[al[i] - alo]
                for (j, cj, bo), up, _ in band:
                    v = up + di
                    w = last + cj
                    if w < v:
                        v = w
                    w = left[bo] + tdi[j]
                    if w < v:
                        v = w
                    vals.append(v)
                    last = v
            cur[ylo:yhi + 1] = vals
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
    bound = _identity_cost(a, b, costs)
    if bound == 0:
        n = len(a.nodes)
        return EditScript(0, 0, 0, 0, tuple((i, i) for i in range(n)), n, n)
    t = _Tables(a, b, costs, bound)
    if t.slack < t.slack_for(t.cost()):
        t = _Tables(a, b, costs, t.cost())
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
