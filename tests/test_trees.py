"""Tree projection and token counts."""

from collections import Counter
from fractions import Fraction

import pytest

import builders as B
from mtnkit.metrics import tier3_counts
from mtnkit.model import NODE_KINDS, Node
from mtnkit.trees import NoteMeta, project_tree, token_counts
from mtnkit.xmlio import parse_work


def count_nodes(measure):
    """Independent node count: 1 for the measure, each structural node, and
    each token."""
    def rec(item):
        if not isinstance(item, Node):
            return 1
        return 1 + sum(rec(c) for c in item.children)
    return 1 + sum(rec(c) for c in measure.children)


def test_labels_structural():
    m = B.measure(B.group(B.simple_chord(step=4), beams=1))
    t = project_tree(m)
    labels = [n.label for n in t.nodes]
    assert labels == ["beam", "stem_up", "stem", "notehead_black", "note",
                      "chord", "note_group", "measure"]
    assert t.lml == (0, 1, 1, 3, 3, 1, 0, 0)


def test_size_matches_independent_count():
    import random
    rng = random.Random(5)
    for i in range(20):
        m = B.random_measure(rng, f"m{i}")
        assert len(project_tree(m).nodes) == count_nodes(m)


def test_none_projects_to_empty_tree():
    t = project_tree(None)
    assert t.root is None
    assert t.nodes == () and t.lml == ()


def test_terminals_beamed_pair():
    m = B.measure(B.group(B.simple_chord(step=6),
                          B.simple_chord(step=8, onset=Fraction(1, 2),
                                         direction="stem_down"),
                          beams=1))
    got = token_counts(project_tree(m))
    assert got == Counter({"notehead_black": 2, "stem_up": 1,
                           "stem_down": 1, "beam": 1})
    assert sum(got.values()) == 5


def test_terminals_equal_structural_leaf_labels():
    import random
    rng = random.Random(6)
    for i in range(20):
        m = B.random_measure(rng, f"m{i}")
        leaves = Counter(n.label for n in project_tree(m).nodes
                         if not n.children and n.label not in NODE_KINDS)
        assert leaves == token_counts(project_tree(m))


def test_terminals_synthetic_switch():
    m = B.measure(
        B.treble_attributes(synthetic=True),
        B.group(B.simple_chord()))
    full = token_counts(project_tree(m))
    assert full["clef_G"] == 1
    skipped = token_counts(project_tree(m), include_synthetic=False)
    assert skipped["clef_G"] == 0
    assert skipped["notehead_black"] == 1


def test_semantic_meta_on_noteheads():
    m = B.measure(B.group(
        B.simple_chord(step=6, onset=0),
        B.simple_chord(step=8, onset=Fraction(1, 2)), beams=1))
    t = project_tree(m)
    heads = [n for n in t.nodes if n.meta is not None and not n.meta.is_rest]
    assert len(heads) == 2
    first, second = sorted(heads, key=lambda n: n.meta.onset)
    assert (first.meta.staff, first.meta.step) == (1, 6)
    assert first.meta.onset == 0
    assert second.meta.onset == Fraction(1, 2)
    assert second.label == "notehead_black"


def test_semantic_meta_on_rests():
    m = B.measure(B.rest("rest_eighth", onset=Fraction(3, 2)))
    t = project_tree(m)
    rests = [n for n in t.nodes if n.meta is not None and n.meta.is_rest]
    assert len(rests) == 1
    assert rests[0].meta.onset == Fraction(3, 2)
    assert rests[0].meta.staff == 1


def test_synthetic_flag_propagates_to_leaves():
    m = B.measure(B.treble_attributes(synthetic=True),
                  B.group(B.simple_chord()))
    t = project_tree(m)
    synth = {n.label for n in t.nodes if n.synthetic}
    assert "clef_G" in synth
    assert "notehead_black" not in synth


def test_untimeable_measure_keeps_labels_and_the_error():
    headless = B.chord(Node("note"), stem_node=B.stem(), onset=0)
    m = B.measure(B.group(headless), B.rest("rest_quarter", onset=1))
    t = project_tree(m)
    assert [n.label for n in t.nodes] == [
        "stem_up", "stem", "note", "chord", "note_group", "rest_quarter",
        "rest", "measure"]
    assert all(n.meta is None for n in t.nodes)
    assert str(t.timing_error) == "chord has no noteheads"
    with pytest.raises(ValueError, match="chord has no noteheads"):
        tier3_counts(t, t)
    timed = project_tree(B.standard_measure())
    assert timed.timing_error is None
    assert tier3_counts(timed, timed).missed_note_rate == 0


def test_token_counts_tell_tokens_from_empty_nodes():
    # Childless nodes are not tokens, and a token keeps its label whatever
    # it reads.
    assert token_counts(project_tree(B.measure())) == Counter()
    m = B.measure(B.group(Node("chord", onset=0)),
                  B.barline(onset=1, label="chord"))
    assert token_counts(project_tree(m)) == Counter({"chord": 1})


def test_metadata_only_on_events_of_a_parsed_measure():
    # Parsed, so every node is its own object. The grammar forbids a chord
    # in a direction, a rest in a note group and a chord under the measure:
    # none of them is an event, so none of their leaves carries metadata.
    # A chord three note groups deep is one.
    def chord(step, onset):
        return (f'<chord onset="{onset}"><note><token id="t{step}" '
                f'label="notehead_black" staff="1" step="{step}"/>'
                "</note></chord>")
    data = f"""<?xml version="1.0" encoding="UTF-8"?>
<work mtn-version="1.0" work_id="w">
  <part staff_count="1">
    <measure id="m1">
      <direction onset="0">{chord(1, 0)}</direction>
      <note_group>
        <rest onset="0"><token id="t2" label="rest_quarter" staff="1"/></rest>
        <note_group><note_group>{chord(3, "1/2")}</note_group></note_group>
      </note_group>
      {chord(4, 1)}
    </measure>
  </part>
</work>"""
    (measure,) = parse_work(data, lambda msg: None).parts[0].measures
    t = project_tree(measure)
    assert t.timing_error is None
    assert [n.meta for n in t.nodes if n.label == "rest_quarter"] == [None]
    heads = [n for n in t.nodes if n.label == "notehead_black"]
    assert len(heads) == 3
    assert [n.meta for n in heads if n.meta is not None] == [
        NoteMeta(staff=1, step=3, onset=Fraction(1, 2))]
