"""Edit-distance engine against the brute-force oracle and frozen cases."""

import random
from dataclasses import replace
from fractions import Fraction

from builders import random_tree
from oracles import brute_force_distance

from mtnkit.model import NOTE_GROUP, Node
from mtnkit.ted import (
    CostModel, SEMANTIC_COSTS, UNIT_COSTS, tree_edit_distance,
)
from mtnkit.trees import LabeledTree, NoteMeta, TreeNode


def t(label, *kids):
    return TreeNode(label, tuple(kids))


def tree(label, *kids):
    return LabeledTree(t(label, *kids))


def head(staff, step, kind="notehead_black", onset=0):
    meta = NoteMeta(staff=staff, step=step, head=kind, onset=Fraction(onset))
    return TreeNode(kind, (), meta=meta)


def test_identical_trees_cost_zero():
    a = tree("m", t("x", t("y")), t("z"))
    b = tree("m", t("x", t("y")), t("z"))
    script = tree_edit_distance(a, b)
    assert script.cost == 0
    assert script.operations == 0
    assert script.mapping == tuple((i, i) for i in range(4))


def test_single_relabel():
    a = tree("m", t("x"), t("y"))
    b = tree("m", t("x"), t("q"))
    script = tree_edit_distance(a, b)
    assert script.cost == 1
    assert script.substitutions == 1
    assert script.deletions == 0 and script.insertions == 0


def test_empty_tree_against_tree_costs_size():
    b = tree("m", t("x", t("y")), t("z"))
    script = tree_edit_distance(LabeledTree(None), b)
    assert script.cost == 4
    assert script.insertions == 4
    reverse = tree_edit_distance(b, LabeledTree(None))
    assert reverse.cost == 4
    assert reverse.deletions == 4


def test_both_empty():
    script = tree_edit_distance(LabeledTree(None), LabeledTree(None))
    assert script.cost == 0
    assert script.mapping == ()


def test_root_only_against_tree():
    # roots match, the n-1 other nodes are inserted
    b = tree("m", t("x"), t("y", t("z")))
    script = tree_edit_distance(tree("m"), b)
    assert script.cost == 3
    assert script.insertions == 3
    assert script.mapping == ((0, 3),)


def test_known_shape_change():
    # moving a leaf across siblings needs delete + insert
    a = tree("m", t("p", t("x")), t("q"))
    b = tree("m", t("p"), t("q", t("x")))
    script = tree_edit_distance(a, b)
    assert script.cost == 2
    assert script.deletions == 1 and script.insertions == 1


def test_mapping_is_order_preserving():
    rng = random.Random(4242)
    for _ in range(100):
        a = random_tree(rng, 8)
        b = random_tree(rng, 8)
        script = tree_edit_distance(a, b)
        pairs = script.mapping
        # one-to-one
        assert len({i for i, _ in pairs}) == len(pairs)
        assert len({j for _, j in pairs}) == len(pairs)
        # mapping cost accounts exactly
        an = a.nodes
        bn = b.nodes
        mapped_a = {i for i, _ in pairs}
        mapped_b = {j for _, j in pairs}
        cost = sum(UNIT_COSTS.substitute(an[i], bn[j]) for i, j in pairs)
        cost += (len(an) - len(mapped_a)) + (len(bn) - len(mapped_b))
        assert cost == script.cost
        assert script.deletions == len(an) - len(mapped_a)
        assert script.insertions == len(bn) - len(mapped_b)


def test_engine_matches_oracle_unit_costs():
    rng = random.Random(1001)
    for _ in range(300):
        a = random_tree(rng, 7)
        b = random_tree(rng, 7)
        got = tree_edit_distance(a, b).cost
        want = brute_force_distance(a, b, UNIT_COSTS)
        assert got == want, (a, b)


def test_engine_matches_oracle_semantic_costs():
    rng = random.Random(77)
    heads = ["notehead_black", "notehead_white"]
    for _ in range(150):
        def leafy(depth=0):
            kids = []
            while depth < 2 and rng.random() < 0.4:
                kids.append(leafy(depth + 1))
            if not kids and rng.random() < 0.6:
                return head(rng.randint(1, 2), rng.randint(0, 3),
                            rng.choice(heads))
            return TreeNode(rng.choice("mg"), tuple(kids))
        a = LabeledTree(leafy())
        b = LabeledTree(leafy())
        got = tree_edit_distance(a, b, SEMANTIC_COSTS).cost
        want = brute_force_distance(a, b, SEMANTIC_COSTS)
        assert got == want


def test_metric_properties():
    rng = random.Random(555)
    trees = [random_tree(rng, 6) for _ in range(12)]
    for a in trees:
        assert tree_edit_distance(a, a).cost == 0
    for a in trees[:6]:
        for b in trees[6:]:
            ab = tree_edit_distance(a, b).cost
            ba = tree_edit_distance(b, a).cost
            assert ab == ba
    for a in trees[:4]:
        for b in trees[4:8]:
            for c in trees[8:]:
                ab = tree_edit_distance(a, b).cost
                bc = tree_edit_distance(b, c).cost
                ac = tree_edit_distance(a, c).cost
                assert ac <= ab + bc


def test_semantic_costs_values():
    same = (head(1, 4), head(1, 4))
    one_field = (head(1, 4), head(1, 5))
    two_fields = (head(1, 4), head(2, 5))
    head_only = (head(1, 4), head(1, 4, "notehead_white"))
    assert SEMANTIC_COSTS.substitute(*same) == 0
    assert SEMANTIC_COSTS.substitute(*one_field) == Fraction(1, 2)
    assert SEMANTIC_COSTS.substitute(*two_fields) == 1
    assert SEMANTIC_COSTS.substitute(*head_only) == Fraction(1, 2)


def test_deterministic_mapping():
    rng = random.Random(9)
    for _ in range(50):
        a = random_tree(rng, 8)
        b = random_tree(rng, 8)
        s1 = tree_edit_distance(a, b)
        s2 = tree_edit_distance(a, b)
        assert s1.mapping == s2.mapping


def test_custom_cost_model():
    class Doubler(CostModel):
        def delete(self, node):
            return 2
        def insert(self, node):
            return 2

    a = tree("m", t("x"))
    b = tree("m")
    assert tree_edit_distance(a, b, Doubler()).cost == 2


class Thirds(CostModel):
    # Rational costs that are not half-units: the engine scales by 3.
    def delete(self, node):
        return Fraction(1, 3)

    def insert(self, node):
        return Fraction(2, 3) if node.label == "a" else 1

    def substitute(self, a, b):
        return 0 if a.label == b.label else Fraction(2, 3)


def test_rational_cost_model_matches_oracle():
    rng = random.Random(31)
    costs = Thirds()
    for _ in range(150):
        a = random_tree(rng, 7, "abc")
        b = random_tree(rng, 7, "abc")
        script = tree_edit_distance(a, b, costs)
        want = brute_force_distance(a, b, costs)
        assert script.cost == want, (a, b)
        assert type(script.cost) is (int if want.denominator == 1
                                     else Fraction)
        an, bn = a.nodes, b.nodes
        pairs = script.mapping
        spent = sum(costs.substitute(an[i], bn[j]) for i, j in pairs)
        spent += sum(costs.delete(an[i]) for i in
                     set(range(len(an))) - {i for i, _ in pairs})
        spent += sum(costs.insert(bn[j]) for j in
                     set(range(len(bn))) - {j for _, j in pairs})
        assert spent == want


def test_same_postorder_labels_different_shape():
    # x(y, z) and x(z(y)) both read "y z x" in postorder; only the
    # leftmost-leaf structure tells them apart.
    a = tree("x", t("y"), t("z"))
    b = tree("x", t("z", t("y")))
    assert [n.label for n in a.nodes] == [n.label for n in b.nodes]
    assert a.lml == (0, 1, 0) and b.lml == (0, 0, 0)
    script = tree_edit_distance(a, b)
    assert script.mapping != ((0, 0), (1, 1), (2, 2))
    assert script.cost == 2
    assert script.cost == brute_force_distance(a, b, UNIT_COSTS)


def test_golden_edit_scripts():
    # Frozen full EditScripts (cost, counts, mapping, sizes) for seeded
    # measure pairs under both cost models; an engine or projection change
    # must reproduce them exactly.
    import hashlib
    from builders import random_measure
    from mtnkit.trees import project_tree

    rng = random.Random(77)
    measures = [random_measure(rng, f"m{i}") for i in range(160)]
    pairs = []
    for i in range(0, len(measures), 2):
        pairs += [(measures[i], measures[i + 1]), (measures[i], measures[i]),
                  (measures[i], None)]
    h = hashlib.sha256()
    for g, p in pairs:
        g, p = project_tree(g), project_tree(p)
        for costs in (UNIT_COSTS, SEMANTIC_COSTS):
            s = tree_edit_distance(g, p, costs)
            h.update(repr((str(s.cost), s.substitutions, s.deletions,
                           s.insertions, s.mapping, s.a_size,
                           s.b_size)).encode())
    assert h.hexdigest() == (
        "8b3720d8defb2150386eb359fb16b7c16b43264965477723a680b059d6ff2062")


def _relabel_every_third_black(children):
    seen = 0

    def visit(child):
        nonlocal seen
        if isinstance(child, Node):
            return replace(child, children=tuple(visit(c)
                                                 for c in child.children))
        if child.label != "notehead_black":
            return child
        seen += 1
        if seen % 3 == 1:
            return replace(child, label="notehead_white")
        return child

    return tuple(visit(c) for c in children)


def test_golden_differential_scripts():
    # Frozen full EditScripts, taken from the memoized engine this one
    # replaced: small two-letter trees, where ties between optimal scripts
    # abound, and 60-120-node measures glued from several random measures,
    # the prediction relabelled or missing a note group.
    import hashlib
    from builders import measure, random_measure
    from mtnkit.trees import project_tree

    rng = random.Random(3)
    pairs = []
    while len(pairs) < 200:
        a, b = random_tree(rng, 30, "ab"), random_tree(rng, 30, "ab")
        if a.root is not None and b.root is not None:
            pairs.append((a, b))
    for k in range(20):
        target = rng.randint(60, 100)
        kids = ()
        while len(project_tree(measure(*kids)).nodes) < target:
            kids += random_measure(rng, "m").children
        if k % 2:
            pred = _relabel_every_third_black(kids)
        else:
            groups = [i for i, c in enumerate(kids) if c.kind == NOTE_GROUP]
            drop = rng.choice(groups)
            pred = kids[:drop] + kids[drop + 1:]
        g, p = project_tree(measure(*kids)), project_tree(measure(*pred))
        assert g.timing_error is None and p.timing_error is None
        assert 60 <= len(g.nodes) <= 120
        pairs.append((g, p))
    h = hashlib.sha256()
    for g, p in pairs:
        for costs in (UNIT_COSTS, SEMANTIC_COSTS):
            s = tree_edit_distance(g, p, costs)
            h.update(repr((str(s.cost), s.substitutions, s.deletions,
                           s.insertions, s.mapping, s.a_size,
                           s.b_size)).encode())
    assert h.hexdigest() == (
        "bfd1365a32574885053eb8b719048199e5b287a38cbd86eb4d9178fc6b5c0770")


def _relabel_some(rng, tree, labels, share):
    # Same shape, some labels redrawn: equal lml arrays, nonzero cost.
    def visit(n):
        label = rng.choice(labels) if rng.random() < share else n.label
        return TreeNode(label, tuple(visit(c) for c in n.children), n.meta)
    return LabeledTree(visit(tree.root))


def _shift_every_fourth_step(children):
    seen = 0

    def visit(child):
        nonlocal seen
        if isinstance(child, Node):
            return replace(child, children=tuple(visit(c)
                                                 for c in child.children))
        if child.label != "notehead_black":
            return child
        seen += 1
        if seen % 4 == 1:
            return replace(child, position=replace(
                child.position, step=child.position.step + 1))
        return child

    return tuple(visit(c) for c in children)


class FreeA(CostModel):
    # Deleting or inserting an "a" is free, so no distance bound narrows
    # the search.
    def delete(self, node):
        return 0 if node.label == "a" else 1

    def insert(self, node):
        return 0 if node.label == "a" else 1


def test_golden_band_scripts():
    # Frozen full EditScripts, taken from the unbanded keyroot engine, for
    # pairs that reach every branch of a distance-banded one: equal shapes
    # at nonzero cost, unrelated shapes whose first narrow pass falls short,
    # thirds costs (least delete/insert 1/3), free deletes and inserts of
    # "a" (no band), empty trees, and 100- and 400-node measures glued from
    # random ones, the prediction relabelled, step-shifted, or missing a
    # note group.
    import hashlib
    from builders import measure, random_measure
    from mtnkit.trees import project_tree

    rng = random.Random(44)
    pairs = []
    while len(pairs) < 60:
        a = random_tree(rng, 30, "abc")
        if a.root is not None:
            pairs.append((a, _relabel_some(rng, a, "abc", 0.15)))
    for _ in range(60):
        pairs.append((random_tree(rng, 25, "abc"),
                      random_tree(rng, 25, "abc")))
    small = random_tree(rng, 12, "abc")
    pairs += [(LabeledTree(None), small), (small, LabeledTree(None)),
              (LabeledTree(None), LabeledTree(None))]
    for target in (100, 100, 100, 400, 400):
        kids = ()
        while len(project_tree(measure(*kids)).nodes) < target:
            kids += random_measure(rng, "m").children
        groups = [i for i, c in enumerate(kids) if c.kind == NOTE_GROUP]
        drop = rng.choice(groups)
        preds = [_relabel_every_third_black(kids),
                 _shift_every_fourth_step(kids),
                 kids[:drop] + kids[drop + 1:]]
        g = project_tree(measure(*kids))
        assert target <= len(g.nodes) <= target + 20
        pairs += [(g, project_tree(measure(*pred)))
                  for pred in (preds if target == 100 else preds[::2])]
    h = hashlib.sha256()
    for k, (g, p) in enumerate(pairs):
        models = (UNIT_COSTS, SEMANTIC_COSTS, Thirds())
        if k < 123:  # random letter trees, where "a" occurs
            models += (FreeA(),)
        for costs in models:
            s = tree_edit_distance(g, p, costs)
            h.update(repr((str(s.cost), s.substitutions, s.deletions,
                           s.insertions, s.mapping, s.a_size,
                           s.b_size)).encode())
    assert h.hexdigest() == (
        "6c55834241160e2c41615a2eb3b362e4a2c5b404341d28459b2494a16ce02264")
