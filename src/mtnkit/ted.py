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
2005). Let c_min be the least delete or insert cost, and K the most nodes
a mapping of cost at most U can leave unmapped (see below). Say a mapping
splits at (p, q) when it maps a's first p postorder nodes only to b's
first q nodes and back. It then leaves at least |d| nodes unmapped before
the split and |D - d| after it, where d = p - q and D = na - nb, so a
mapping of cost at most U has |d| + |D - d| <= K at each split: min(0, D)
- s <= d <= max(0, D) + s with s = floor((K - |D|) / 2). An optimal
mapping splits at every forest-table cell (alo + x, blo + y) its
derivation reads, and at (i + 1, j + 1) for each of its pairs (i, j),
whose td and mp entries the derivation reads. So the tables store and
fill cells, and the cost model relabels pairs, only on those diagonals;
everything else reads as INF, which exceeds the cost of every script. INF
can only raise values off every optimal derivation, so the cost and every
equality the backtrace tests come out as without the band. Keyroot pairs
whose leftmost paths meet no diagonal of the band are skipped. Only the
band is stored, so a row takes at most as many cells as the band is wide:
a same-shape pair answered by the tables takes little more memory than
one the identity shortcut answers.

K comes from a label histogram, which bounds every mapping from below
(after Kailing et al., "Efficient similarity search for hierarchical data
in large databases", EDBT 2004). A mapping that leaves k nodes unmapped
holds (na + nb - k) / 2 pairs. At most `common` of them can have equal
labels, where common is the size of the multiset intersection of the two
trees' labels. Every other pair costs at least the relabel floor r of the
cost model: 1 under unit costs, and 1/2 under the semantic costs. So

    cost >= c_min * k + r * max(0, (na + nb - k) / 2 - common),

and K is the largest k for which that is at most U. A cost model whose
substitute function is not one of those two gets r = 0, which leaves K =
floor(U / c_min): the bound counts unmapped nodes only.

When both trees have the same shape, U is the cost of mapping each node to
the node with its index. Equal shapes mean equal sizes n, and a mapping
that covers every node of two trees of equal size is the identity, because
an ordered mapping preserves postorder. Any other mapping leaves j >= 1
nodes of each tree unmapped, so it costs at least j * S + r * max(0, n - j
- common), where S is the least delete cost in a plus the least insert
cost in b. That is least at j = 1 or at j = n - common. The identity maps
all n pairs, so U >= r * (n - common), and when the bound at j = n -
common is the smaller, S < r and U exceeds both. So the identity script
returns at once if U = 0 or U < S + r * max(0, n - 1 - common), the bound
at j = 1. There the identity is the only optimal script, whatever the
non-negative costs, and the tables would return it too. Under unit costs
the identity returns exactly when U = n - common. The histogram is counted
only when U >= S, since below S the identity returns without it. At the
bound another script can tie with the identity, and the backtrace's
preference (below) decides. So at the bound or above it, and for trees of
different shapes, a first pass with s = 1, which still lets deletes and
inserts reach the last cell, yields the cost of some mapping, and a second
pass runs only if that bound needs a wider band. A free delete or insert
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
from collections import Counter
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, Union

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
    exactly one costs 1/2, otherwise 1. The head class is the label, so a
    relabel between differing labels costs at least 1/2."""

    def substitute(self, a: TreeNode, b: TreeNode) -> Cost:
        if (a.meta is not None and b.meta is not None
                and not a.meta.is_rest and not b.meta.is_rest
                and a.label in vocabulary.NOTEHEADS
                and b.label in vocabulary.NOTEHEADS):
            diffs = ((a.meta.staff != b.meta.staff)
                     + (a.meta.step != b.meta.step)
                     + (a.label != b.label))
            if diffs == 0:
                return 0
            if diffs == 1:
                return Fraction(1, 2)
            return 1
        return 0 if a.label == b.label else 1


UNIT_COSTS = CostModel()
SEMANTIC_COSTS = SemanticCostModel()

# The least cost of a relabel between differing labels, by the substitute
# function that costs it; any other substitute function has floor 0.
_RELABEL_FLOOR = {CostModel.substitute: 1,
                  SemanticCostModel.substitute: Fraction(1, 2)}


class EditScript(NamedTuple):
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


def _identity_cost(a: LabeledTree, b: LabeledTree,
                   costs: CostModel) -> tuple[Cost, int] | None:
    """Cost of mapping node i to node i and the number of those pairs with
    a nonzero relabel cost, or None if the shapes differ.

    Equal leftmost-leaf arrays mean equal shapes: node i's subtree is the
    postorder interval lml[i]..i.
    """
    if a.lml != b.lml:
        return None
    total = changed = 0
    for x, y in zip(a.nodes, b.nodes):
        c = costs.substitute(x, y)
        if c:
            total += c
            changed += 1
    return total, changed


def _histogram_floor(a: LabeledTree, b: LabeledTree,
                     costs: CostModel) -> tuple[Cost, int]:
    """The relabel floor r of costs and, if r > 0, the number of node pairs
    that can have equal labels (see the module docstring); (0, 0) if no
    relabel floor is known."""
    r = _RELABEL_FLOOR.get(getattr(costs.substitute, "__func__", None), 0)
    if not r:
        return 0, 0
    common = (Counter(x.label for x in a.nodes)
              & Counter(y.label for y in b.nodes))
    return r, common.total()


class _Tables:
    """Scaled costs and the banded Zhang-Shasha tables of one tree pair.

    bound is the cost of some mapping, or None for a first, narrow pass
    whose own cost then bounds the distance. floor is _histogram_floor's
    (r, common); the default (0, 0) bounds by unmapped nodes only.

    Only cells on the band are stored. subs, td and mp hold, for node i of
    a, the nodes j of b in window i, from starts[i] = max(0, i - hi) up to
    min(nb, i - lo + 1), at j - starts[i]; a forest table's row holds the
    columns the band reaches in that row (see `forest`). No row is longer
    than a full row of nb + 1 cells, and a narrow band keeps every row
    short.
    """

    def __init__(self, a: LabeledTree, b: LabeledTree, costs: CostModel,
                 bound: Cost | None, floor: tuple[Cost, int] = (0, 0)):
        an, bn = a.nodes, b.nodes
        na, nb = len(an), len(bn)
        al, bl = self.al, self.bl = a.lml, b.lml
        dels = [costs.delete(x) for x in an]
        ins = [costs.insert(y) for y in bn]
        self.least = min(dels + ins, default=0)
        self.floor = floor
        self.slack = slack = self.slack_for(bound)
        lo = self.lo = min(0, na - nb) - slack
        hi = self.hi = max(0, na - nb) + slack
        window = [range(max(0, i - hi), min(nb, i - lo + 1))
                  for i in range(na)]
        self.starts = [js.start for js in window]
        relabels = [[costs.substitute(x, bn[j]) for j in js]
                    for x, js in zip(an, window)]
        self.scale = scale = math.lcm(*{
            c.denominator for c in chain(dels, ins, *relabels)})
        self.dels = [c.numerator * (scale // c.denominator) for c in dels]
        self.ins = [c.numerator * (scale // c.denominator) for c in ins]
        self.subs = [[c.numerator * (scale // c.denominator) for c in row]
                     for row in relabels]
        # INF exceeds the cost of every edit script, which relabels each
        # node pair at most once.
        inf = self.inf = (sum(self.dels) + sum(self.ins)
                          + sum(map(sum, self.subs)) + 1)
        self.td, self.mp = ([[inf] * len(js) for js in window]
                            for _ in range(2))
        near: dict[int, set[int]] = {}  # a's lml -> b's lml values in band
        for i, js in enumerate(window):
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
        na, nb, c = len(self.al), len(self.bl), self.least
        if not c:
            return na + nb
        if bound is None:
            return 1
        r, common = self.floor
        k = bound // c
        # The histogram term can lift the bound at k = floor(U / c) above
        # U. K then lies where that term is positive and the bound, c * k +
        # r * ((na + nb - k) / 2 - common), rises to U; that needs 2 * c >
        # r, which a U that some mapping costs ensures.
        if 2 * c * k + r * (na + nb - k - 2 * common) > 2 * bound:
            k = (2 * bound - r * (na + nb - 2 * common)) // (2 * c - r)
        return (k - abs(na - nb)) // 2

    def at(self, fd: list[list[int]], c: int, x: int, y: int) -> int:
        """Cell (x, y) of a forest table whose intervals start at alo and
        blo, c = alo - blo; INF off the band."""
        if x < len(fd):
            row = fd[x]
            k = y - max(0, x + c - self.hi) if x else y
            if 0 <= k < len(row) - 1:
                return row[k]
        return self.inf

    def forest(self, alo: int, ahi: int,
               blo: int, bhi: int) -> list[list[int]]:
        """Distances between the prefixes of two postorder intervals.

        Cell (x, y) is the distance between nodes alo..alo+x-1 and
        blo..blo+y-1. Only cells on the band's diagonals, lo <= (alo + x) -
        (blo + y) <= hi, are stored: row x > 0 holds columns max(0, x + c -
        hi) to min(bhi - blo + 1, x + c - lo), c = alo - blo, and one more
        INF; rows before the band's first row hold only that INF, and rows
        after its last are left out. Row 0 holds every column from 0. Every
        other cell is INF (see `at`).

        Each interval is a keyroot's subtree or a node's child forest, so
        every node in it has its lml inside it. Where i and j both have lml
        at the interval's start, their mapping cost and tree distance are
        stored in mp and td (a rebuilt table stores the same values again);
        elsewhere td is read.
        """
        al, bl, td, mp = self.al, self.bl, self.td, self.mp
        dels, ins, subs, starts = self.dels, self.ins, self.subs, self.starts
        c, lo, hi, inf = alo - blo, self.lo, self.hi, self.inf
        ncols = bhi - blo + 1
        # Row 0 holds every column: a leftmost-path row reads it at any
        # column's lml.
        row0 = [inf] * (ncols + 2)
        if lo <= c <= hi:
            row0[0] = 0
            for y in range(1, min(ncols, c - lo) + 1):
                row0[y] = row0[y - 1] + ins[blo + y - 1]
        # Column y's insert cost and lml relative to blo at cols[y - 1], up
        # to the last column a band cell holds.
        cols = [(ins[j], bl[j] - blo) for j in
                range(blo, blo + min(ncols, ahi - alo + 1 + c - lo))]
        fd = [row0] + [[inf]] * (max(1, lo - c) - 1)
        prev, sp = fd[-1], 0  # the row before and its first column
        for x in range(len(fd), min(ahi - alo + 1, ncols + hi - c) + 1):
            i = alo + x - 1
            s = x + c - hi  # this row's first and last columns
            if s < 0:
                s = 0
            e = x + c - lo
            if e > ncols:
                e = ncols
            di = dels[i]
            tdi = td[i]
            cur = [inf] * (e - s + 2)
            if s:
                ya, last = s, inf
            else:  # column 0 is on the band, and was on the row before
                cur[0] = last = prev[0] + di
                ya = 1
            t0 = blo + ya - 1 - starts[i]  # column ya's entry in td[i]
            off = t0 - ya + s  # entry k in td[i] is cur[k - off]
            band = zip(range(t0, t0 + e - ya + 1), cols[ya - 1:e],
                       prev[ya - sp:e - sp + 1], prev[ya - 1 - sp:e - sp])
            if al[i] == alo:
                mpi, subi = mp[i], subs[i]
                for k, (cj, bo), up, diag in band:
                    v = up + di
                    w = last + cj
                    if w < v:
                        v = w
                    if bo:
                        w = row0[bo] + tdi[k]
                        if w < v:
                            v = w
                    else:
                        w = diag + subi[k]
                        mpi[k] = w
                        if w < v:
                            v = w
                        tdi[k] = v
                    cur[k - off] = last = v
            else:
                lx = al[i] - alo
                left = fd[lx]
                ls = lx + c - hi if lx else 0  # left's first column
                if ls < 0:
                    ls = 0
                ln = len(left) - 1
                for k, (cj, bo), up, _ in band:
                    v = up + di
                    w = last + cj
                    if w < v:
                        v = w
                    bo -= ls
                    if 0 <= bo < ln:
                        w = left[bo] + tdi[k]
                        if w < v:
                            v = w
                    cur[k - off] = last = v
            fd.append(cur)
            prev, sp = cur, s
        return fd

    def cost(self) -> Cost:
        total = self.at(self.root, 0, len(self.al), len(self.bl))
        if total % self.scale:
            return Fraction(total, self.scale)
        return total // self.scale


def tree_edit_distance(a: LabeledTree, b: LabeledTree,
                       costs: CostModel = UNIT_COSTS) -> EditScript:
    """Minimum-cost edit script turning tree a into tree b."""
    identity = _identity_cost(a, b, costs)
    bound = floor = None
    if identity is not None:
        bound, changed = identity
        n = len(a.nodes)
        if bound:
            # The bound at j = 1 on any other mapping (module docstring).
            least = (min(map(costs.delete, a.nodes))
                     + min(map(costs.insert, b.nodes)))
            if bound >= least:
                floor = r, common = _histogram_floor(a, b, costs)
                least += r * max(0, n - 1 - common)
        if not bound or bound < least:
            if bound.denominator == 1:  # an int, as _Tables.cost() gives
                bound = bound.numerator
            return EditScript(bound, changed, 0, 0,
                              tuple((i, i) for i in range(n)), n, n)
    if floor is None:
        floor = _histogram_floor(a, b, costs)
    t = _Tables(a, b, costs, bound, floor)
    if t.slack < t.slack_for(t.cost()):
        t = _Tables(a, b, costs, t.cost(), floor)
    al, bl, mp, at, starts = t.al, t.bl, t.mp, t.at, t.starts
    na, nb = len(al), len(bl)
    mapping: list[tuple[int, int]] = []
    deletions = insertions = substitutions = 0
    todo = [(0, na - 1, 0, nb - 1, t.root)]
    while todo:
        alo, ahi, blo, bhi, fd = todo.pop()
        x, y = ahi - alo + 1, bhi - blo + 1
        c = alo - blo
        if x and y and fd is None:
            fd = t.forest(alo, ahi, blo, bhi)
        while x and y:
            i, j = alo + x - 1, blo + y - 1
            total = at(fd, c, x, y)
            li, lj = al[i] - alo, bl[j] - blo
            k = j - starts[i]  # (i, j)'s entry in mp and subs
            if (0 <= k < len(mp[i])
                    and at(fd, c, li, lj) + mp[i][k] == total):
                mapping.append((i, j))
                if t.subs[i][k]:
                    substitutions += 1
                todo.append((al[i], i - 1, bl[j], j - 1, None))
                x, y = li, lj
            elif at(fd, c, x - 1, y) + t.dels[i] == total:
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
