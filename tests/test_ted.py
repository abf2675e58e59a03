"""Edit-distance engine against the brute-force oracle and frozen cases."""

import random
from fractions import Fraction

from builders import random_tree
from oracles import brute_force_distance, operation_counts

from mtnkit import ted
from mtnkit.model import NOTE_GROUP, Node
from mtnkit.ted import (
    CostModel, SEMANTIC_COSTS, SemanticCostModel, UNIT_COSTS,
    tree_edit_distance,
)
from mtnkit.trees import LabeledTree, NoteMeta, TreeNode


def t(label, *kids):
    return TreeNode(label, tuple(kids))


def tree(label, *kids):
    return LabeledTree(t(label, *kids))


def head(staff, step, kind="notehead_black", onset=0):
    meta = NoteMeta(staff=staff, step=step, onset=Fraction(onset))
    return TreeNode(kind, (), meta=meta)


def test_identical_trees_cost_zero():
    a = tree("m", t("x", t("y")), t("z"))
    b = tree("m", t("x", t("y")), t("z"))
    script = tree_edit_distance(a, b)
    assert script.cost == 0
    assert operation_counts(script, a, b, UNIT_COSTS) == (0, 0, 0)
    assert script.mapping == tuple((i, i) for i in range(4))


def test_single_relabel():
    a = tree("m", t("x"), t("y"))
    b = tree("m", t("x"), t("q"))
    script = tree_edit_distance(a, b)
    assert script.cost == 1
    assert operation_counts(script, a, b, UNIT_COSTS) == (1, 0, 0)


def test_empty_tree_against_tree_costs_size():
    b = tree("m", t("x", t("y")), t("z"))
    empty = LabeledTree(None)
    script = tree_edit_distance(empty, b)
    assert script.cost == 4
    assert operation_counts(script, empty, b, UNIT_COSTS) == (0, 0, 4)
    reverse = tree_edit_distance(b, empty)
    assert reverse.cost == 4
    assert operation_counts(reverse, b, empty, UNIT_COSTS) == (0, 4, 0)


def test_both_empty():
    script = tree_edit_distance(LabeledTree(None), LabeledTree(None))
    assert script.cost == 0
    assert script.mapping == ()


def test_root_only_against_tree():
    # roots match, the n-1 other nodes are inserted
    a, b = tree("m"), tree("m", t("x"), t("y", t("z")))
    script = tree_edit_distance(a, b)
    assert script.cost == 3
    assert operation_counts(script, a, b, UNIT_COSTS) == (0, 0, 3)
    assert script.mapping == ((0, 3),)


def test_known_shape_change():
    # moving a leaf across siblings needs delete + insert
    a = tree("m", t("p", t("x")), t("q"))
    b = tree("m", t("p"), t("q", t("x")))
    script = tree_edit_distance(a, b)
    assert script.cost == 2
    assert operation_counts(script, a, b, UNIT_COSTS) == (0, 1, 1)


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
        assert operation_counts(script, a, b, UNIT_COSTS)[1:] == (
            len(an) - len(mapped_a), len(bn) - len(mapped_b))


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
    # Frozen full EditScripts (cost, mapping, sizes), with the operation
    # counts the mapping defines, for seeded measure pairs under both cost
    # models; an engine or projection change must reproduce them exactly.
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
            h.update(repr((str(s.cost),
                           *operation_counts(s, g, p, costs), s.mapping,
                           s.a_size, s.b_size)).encode())
    assert h.hexdigest() == (
        "8b3720d8defb2150386eb359fb16b7c16b43264965477723a680b059d6ff2062")


def _relabel_every_third_black(children):
    seen = 0

    def visit(child):
        nonlocal seen
        if isinstance(child, Node):
            return child._replace(children=tuple(visit(c)
                                                for c in child.children))
        if child.label != "notehead_black":
            return child
        seen += 1
        if seen % 3 == 1:
            return child._replace(label="notehead_white")
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
            h.update(repr((str(s.cost),
                           *operation_counts(s, g, p, costs), s.mapping,
                           s.a_size, s.b_size)).encode())
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
            return child._replace(children=tuple(visit(c)
                                                for c in child.children))
        if child.label != "notehead_black":
            return child
        seen += 1
        if seen % 4 == 1:
            return child._replace(position=child.position._replace(
                step=child.position.step + 1))
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
            h.update(repr((str(s.cost),
                           *operation_counts(s, g, p, costs), s.mapping,
                           s.a_size, s.b_size)).encode())
    assert h.hexdigest() == (
        "6c55834241160e2c41615a2eb3b362e4a2c5b404341d28459b2494a16ce02264")


def _relabel_at(rng, tree, labels, k):
    # Same shape, k nodes (drawn with repeats) given a random label.
    hit = {rng.randrange(len(tree.nodes)) for _ in range(k)}
    count = 0

    def visit(n):
        nonlocal count
        kids = tuple(visit(c) for c in n.children)
        count += 1
        label = rng.choice(labels) if count - 1 in hit else n.label
        return TreeNode(label, kids, n.meta)
    return LabeledTree(visit(tree.root))


def _edit_noteheads(rng, children, share):
    # Same shape: some noteheads swap black and white, others move a step.
    def visit(child):
        if isinstance(child, Node):
            return child._replace(children=tuple(visit(c)
                                                for c in child.children))
        if child.label not in ("notehead_black", "notehead_white") \
                or rng.random() >= share:
            return child
        if rng.random() < 0.5:
            return child._replace(label="notehead_white"
                                  if child.label == "notehead_black"
                                  else "notehead_black")
        return child._replace(position=child.position._replace(
            step=child.position.step + rng.choice((-1, 1))))

    return tuple(visit(c) for c in children)


def _takes_identity_branch(a, b, costs):
    # Equal shapes at a nonzero identity cost below the least delete plus
    # the least insert.
    if a.lml != b.lml or not a.nodes:
        return False
    u = sum(costs.substitute(x, y) for x, y in zip(a.nodes, b.nodes))
    return 0 < u < (min(map(costs.delete, a.nodes))
                    + min(map(costs.insert, b.nodes)))


def test_identity_shortcut_matches_the_tables(monkeypatch):
    # Same-shape pairs answered by the identity shortcut must give the full
    # EditScript, and the cost's type, that the tables give.
    from builders import measure, random_measure
    from mtnkit.trees import project_tree

    rng = random.Random(2026)
    pairs = []
    for _ in range(150):
        a = random_tree(rng, 20, "abcd")
        if a.root is not None:
            pairs.append((a, _relabel_at(rng, a, "abcd", rng.randint(0, 3))))
    for _ in range(150):
        kids = ()
        for _ in range(rng.randint(1, 3)):
            kids += random_measure(rng, "m").children
        pred = _edit_noteheads(rng, kids, rng.choice((0.1, 0.3, 0.6)))
        pairs.append((project_tree(measure(*kids)),
                      project_tree(measure(*pred))))
    models = (UNIT_COSTS, SEMANTIC_COSTS, Thirds())
    shortcut = [[tree_edit_distance(a, b, costs) for costs in models]
                for a, b in pairs]
    monkeypatch.setattr(ted, "_identity_cost", lambda a, b, costs: None)
    branch = 0
    for (a, b), scripts in zip(pairs, shortcut):
        for costs, got in zip(models, scripts):
            want = tree_edit_distance(a, b, costs)
            assert got == want, (a, b, costs)
            assert type(got.cost) is type(want.cost)
            branch += _takes_identity_branch(a, b, costs)
    assert branch >= 100


def _count_tables(monkeypatch):
    built = []

    class Counted(ted._Tables):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(ted, "_Tables", Counted)
    return built


def test_identity_cost_at_the_threshold_goes_through_the_tables(monkeypatch):
    # U = 2 equals one delete plus one insert: the tables break the tie and
    # still prefer the two relabels.
    built = _count_tables(monkeypatch)
    a, b = tree("r", t("a"), t("b")), tree("r", t("b"), t("a"))
    script = tree_edit_distance(a, b)
    assert script == ted.EditScript(2, ((0, 0), (1, 1), (2, 2)), 3, 3)
    assert operation_counts(script, a, b, UNIT_COSTS) == (2, 0, 0)
    assert type(script.cost) is int
    assert built


def test_identity_cost_below_the_threshold_skips_the_tables(monkeypatch):
    built = _count_tables(monkeypatch)
    # three notehead relabels of 1/2 each: U = 3/2 < 2
    a = tree("m", head(1, 4), head(1, 6), head(2, 3))
    b = tree("m", head(1, 5), head(2, 6), head(2, 3, "notehead_white"))
    script = tree_edit_distance(a, b, SEMANTIC_COSTS)
    assert script == ted.EditScript(Fraction(3, 2),
                                    tuple((i, i) for i in range(4)), 4, 4)
    assert operation_counts(script, a, b, SEMANTIC_COSTS) == (3, 0, 0)
    assert type(script.cost) is Fraction
    # two halves and an unchanged head: U = 1, returned as an int
    a = tree("m", head(1, 4), head(1, 6), head(2, 3))
    b = tree("m", head(1, 5), head(1, 6), head(2, 2))
    script = tree_edit_distance(a, b, SEMANTIC_COSTS)
    assert script == ted.EditScript(1, tuple((i, i) for i in range(4)), 4, 4)
    assert operation_counts(script, a, b, SEMANTIC_COSTS) == (2, 0, 0)
    assert type(script.cost) is int
    assert not built


def test_tables_store_only_the_band():
    # A same-shape pair at or above the shortcut's threshold builds tables;
    # their rows hold the band's cells only, so their memory does not grow
    # with the product of the sizes.
    a = tree("m", *(t("c", t("x"), t("y")) for _ in range(100)))
    b = tree("m", *(t("c", t("z" if k % 40 == 7 else "x"), t("y"))
                    for k in range(100)))
    tables = ted._Tables(a, b, UNIT_COSTS, 3)
    width = tables.hi - tables.lo + 1
    assert width == 3
    assert max(map(len, tables.subs + tables.td + tables.mp)) <= width
    assert max(map(len, tables.root[1:])) <= width + 1
    script = tree_edit_distance(a, b)
    assert script == ted.EditScript(3, tuple((i, i) for i in range(301)),
                                    301, 301)
    assert operation_counts(script, a, b, UNIT_COSTS) == (3, 0, 0)


def _glued(rng, target):
    # Children of random measures glued until the projection has at least
    # target nodes.
    from builders import measure, random_measure
    from mtnkit.trees import project_tree

    kids = ()
    while len(project_tree(measure(*kids)).nodes) < target:
        kids += random_measure(rng, "m").children
    return kids


def test_histogram_bound_changes_no_script(monkeypatch):
    # Same-shape relabels, step shifts and dropped note groups under unit
    # and semantic costs: the label-histogram bound must give the full
    # EditScript, and the cost's type, of the engine without it, while it
    # skips tables or narrows their band.
    from builders import measure
    from mtnkit.trees import project_tree

    rng = random.Random(1414)
    pairs = []
    for _ in range(60):
        a = random_tree(rng, 25, "abcd")
        if a.root is not None:
            pairs.append((a, _relabel_at(rng, a, "abcd", rng.randint(1, 5))))
    for k in range(40):
        kids = _glued(rng, rng.choice((20, 40, 80)))
        if k % 4 == 0:
            pred = _relabel_every_third_black(kids)
        elif k % 4 == 1:
            pred = _edit_noteheads(rng, kids, rng.choice((0.1, 0.3)))
        elif k % 4 == 2:
            pred = _shift_every_fourth_step(kids)
        else:
            groups = [i for i, c in enumerate(kids) if c.kind == NOTE_GROUP]
            drop = rng.choice(groups)
            pred = kids[:drop] + kids[drop + 1:]
        pairs.append((project_tree(measure(*kids)),
                      project_tree(measure(*pred))))
    built = _count_tables(monkeypatch)
    models = (UNIT_COSTS, SEMANTIC_COSTS)
    bounded = [[tree_edit_distance(a, b, costs) for costs in models]
               for a, b in pairs]
    tables, slack = len(built), sum(t.slack for t in built)
    built.clear()
    monkeypatch.setattr(ted, "_RELABEL_FLOOR", {})
    for (a, b), scripts in zip(pairs, bounded):
        for costs, got in zip(models, scripts):
            want = tree_edit_distance(a, b, costs)
            assert got == want, (a, b, costs)
            assert type(got.cost) is type(want.cost)
    assert tables < len(built)
    assert slack < sum(t.slack for t in built)


def test_relabel_only_pair_skips_the_tables(monkeypatch):
    # Under unit costs a same-shape pair whose relabels all turn black
    # noteheads white costs exactly the histogram bound n - common, so only
    # the identity is optimal; the shortcut before the bound built tables.
    from builders import measure
    from mtnkit.trees import project_tree

    kids = _glued(random.Random(411), 400)
    a = project_tree(measure(*kids))
    b = project_tree(measure(*_relabel_every_third_black(kids)))
    n = len(a.nodes)
    assert n >= 400 and a.lml == b.lml
    built = _count_tables(monkeypatch)
    script = tree_edit_distance(a, b)
    assert not built
    k, _, _ = operation_counts(script, a, b, UNIT_COSTS)
    assert k >= 3
    assert script == ted.EditScript(k, tuple((i, i) for i in range(n)), n, n)
    monkeypatch.setattr(ted, "_RELABEL_FLOOR", {})
    assert tree_edit_distance(a, b) == script
    assert built


def test_relabels_that_swap_labels_go_through_the_tables(monkeypatch):
    # One black-to-white and one white-to-black relabel: U = 2, but the two
    # trees hold the same labels, so the histogram bound is 0 and a delete
    # plus an insert could tie with the identity.
    def heads(white):
        return tree("m", *(head(1, step, "notehead_white" if step == white
                                else "notehead_black") for step in range(8)))

    a, b = heads(2), heads(5)
    assert ted._histogram_floor(a, b, UNIT_COSTS) == (1, 9)
    built = _count_tables(monkeypatch)
    script = tree_edit_distance(a, b)
    assert built
    assert script == ted.EditScript(2, tuple((i, i) for i in range(9)), 9, 9)
    assert operation_counts(script, a, b, UNIT_COSTS) == (2, 0, 0)
    # At U = n - common + 1 = 2, the bound on the next-best mapping, one
    # can tie: mapping the two "a" leaves costs a delete and an insert.
    built.clear()
    assert tree_edit_distance(tree("r", t("a"), t("x")),
                              tree("r", t("y"), t("a"))).cost == 2
    assert built


def test_semantic_relabel_floor_is_a_half():
    # Five black noteheads a step apart, then ten white noteheads made
    # breves at the same step, 1/2 each: the identity costs 5/2 + 10/2 =
    # 15/2, above the 13/2 that the floor of 1/2 allows another mapping.
    # Deleting the first black and inserting one after the last costs 2 +
    # 10/2 = 7; a floor of 1 would have returned the identity.
    a = tree("m", *(head(1, s) for s in range(5)),
             *(head(1, s, "notehead_white") for s in range(10)))
    b = tree("m", *(head(1, s) for s in range(1, 6)),
             *(head(1, s, "notehead_breve") for s in range(10)))
    script = tree_edit_distance(a, b, SEMANTIC_COSTS)
    assert script.cost == 7
    assert operation_counts(script, a, b, SEMANTIC_COSTS)[1:] == (1, 1)


class Quarters(SemanticCostModel):
    # Cheaper relabels than the semantic floor of 1/2: a model whose
    # substitute function the engine does not know gets no relabel floor.
    def substitute(self, a, b):
        if a.label != b.label:
            return Fraction(1, 4)
        return super().substitute(a, b)


def test_unknown_substitute_matches_oracle():
    costs = Quarters()
    rng = random.Random(1404)
    heads = ["notehead_black", "notehead_white"]

    def leafy(depth=0):
        kids = []
        while depth < 2 and rng.random() < 0.4:
            kids.append(leafy(depth + 1))
        if not kids and rng.random() < 0.6:
            return head(rng.randint(1, 2), rng.randint(0, 3),
                        rng.choice(heads))
        return TreeNode(rng.choice("mg"), tuple(kids))

    checked = 0
    while checked < 150:
        a = LabeledTree(leafy())
        b = (_relabel_at(rng, a, ["m", "g"] + heads, rng.randint(1, 3))
             if checked % 2 else LabeledTree(leafy()))
        if len(a.nodes) > 7 or len(b.nodes) > 7:
            continue  # cheap relabels leave the oracle little to prune
        checked += 1
        assert ted._histogram_floor(a, b, costs) == (0, 0)
        script = tree_edit_distance(a, b, costs)
        assert script.cost == brute_force_distance(a, b, costs), (a, b)
    # Five black noteheads a step apart, then ten white-to-breve relabels
    # at 1/4: the identity costs 5/2 + 10/4 = 5, under the 13/2 a floor of
    # 1/2 would allow any other mapping. Deleting the first black and
    # inserting one after the last costs 2 + 10/4 = 9/2.
    a = tree("m", *(head(1, s) for s in range(5)),
             *(head(1, s, "notehead_white") for s in range(10)))
    b = tree("m", *(head(1, s) for s in range(1, 6)),
             *(head(1, s, "notehead_breve") for s in range(10)))
    script = tree_edit_distance(a, b, costs)
    assert script.cost == Fraction(9, 2)
    assert operation_counts(script, a, b, costs)[1:] == (1, 1)
