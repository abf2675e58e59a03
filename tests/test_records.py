"""What callers rely on of mtnkit's records: immutable records refuse
assignment, equal records compare and hash equal, copies keep their type,
and what crosses the --jobs process pool pickles."""

import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from builders import group, measure, rest, simple_chord
from mtnkit.harness import (
    EvalConfig, _evaluate_entry, convert_input, read_manifest,
)
from mtnkit.metrics import (
    ClassTally, MeasureEval, Tier3Counts, evaluate_measure,
)
from mtnkit.model import Node, StaffPosition, Token
from mtnkit.musicxml import ClefState, ConvertOptions
from mtnkit.ted import EditScript
from mtnkit.trees import NoteMeta, TreeNode, project_tree
from mtnkit.xmlio import FormatError, parse_work

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "fixtures" / "corpus"


def records() -> dict[str, tuple]:
    """Two equal, separately built values of each immutable record."""
    def build():
        token = Token("t1", "notehead_black", StaffPosition(1, 4))
        leaf = TreeNode("notehead_black",
                        meta=NoteMeta(1, 4, Fraction(1, 2)), token=True)
        return {
            "Token": token,
            "Node": Node("note", (token,)),
            "TreeNode": TreeNode("note", (leaf,)),
            "EditScript": EditScript(Fraction(1, 2), 1, 0, 0,
                                     ((0, 0), (1, 1)), 2, 2),
            "ClefState": ClefState("clef_G", 4, 28),
            "ConvertOptions": ConvertOptions(explicit_breaks=("3",)),
            "ClassTally": ClassTally(truth=3, predicted=2, matched=2),
            "Tier3Counts": Tier3Counts(truth_events=3, matched=2,
                                       time_diff=Fraction(1, 3)),
        }
    first, second = build(), build()
    return {name: (first[name], second[name]) for name in first}


@pytest.mark.parametrize("name, field", [
    ("Token", "label"), ("Node", "children"), ("TreeNode", "meta"),
    ("EditScript", "cost"), ("ClassTally", "matched"),
    ("Tier3Counts", "time_diff")])
def test_assigning_a_field_raises(name, field):
    record = records()[name][0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)


@pytest.mark.parametrize("name", sorted(records()))
def test_equal_records_are_equal_and_hash_equal(name):
    a, b = records()[name]
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name", sorted(records()))
def test_replace_keeps_the_type(name):
    record = records()[name][0]
    field = record._fields[-1]
    copy = record._replace(**{field: getattr(record, field)})
    assert type(copy) is type(record)
    assert copy == record


@pytest.mark.parametrize("name", sorted(records()))
def test_records_survive_pickling(name):
    record = records()[name][0]
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


def spelled(value):
    """value with every record and slots object spelled out as its type
    and fields, so that a copy compares equal to its original."""
    if isinstance(value, dict):
        return {key: spelled(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [spelled(v) for v in value]
    if isinstance(value, Exception):
        return repr(value)
    if type(value).__module__.startswith("mtnkit."):
        return type(value).__name__, [spelled(getattr(value, name))
                                      for name in type(value).__slots__]
    return value


def pool_values() -> dict[str, object]:
    work = parse_work((CORPUS / "anthem.mtn.xml").read_bytes())
    first = work.parts[0].measures[0]
    untimeable = measure(rest("dot"), group(simple_chord(4, 1)))
    assert project_tree(untimeable).timing_error is not None
    entry = read_manifest(
        (ROOT / "fixtures" / "manifest.jsonl").read_text(encoding="utf-8"))[0]
    return {
        "MTNWork": work,
        "LabeledTree": project_tree(first),
        "untimed LabeledTree": project_tree(untimeable),
        "MeasureEval": evaluate_measure(first, untimeable),
        "page EvalReport": _evaluate_entry(
            (str(CORPUS), str(CORPUS), entry, EvalConfig())),
        "convert_input": convert_input(
            (ROOT / "fixtures" / "musicxml" / "torture.musicxml",
             "torture.mtn.xml", ConvertOptions(), "test")),
        "FormatError": FormatError("unknown element <x>", 3, 4),
    }


@pytest.mark.parametrize("name", sorted(pool_values()))
def test_pool_values_survive_pickling(name):
    value = pool_values()[name]
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert spelled(copy) == spelled(value)


def reachable(value):
    """value and everything held in it, through containers and the slots
    of mtnkit's classes."""
    yield value
    if isinstance(value, dict):
        held = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple)):
        held = value
    elif type(value).__module__.startswith("mtnkit."):
        held = [getattr(value, name)
                for name in getattr(type(value), "__slots__", ())]
    else:
        return
    for item in held:
        yield from reachable(item)


@pytest.mark.parametrize("per_measure", [False, True])
def test_a_page_sends_back_sums_and_rows_only_on_request(per_measure):
    entry = read_manifest(
        (ROOT / "fixtures" / "manifest.jsonl").read_text(encoding="utf-8"))[0]
    page = pickle.loads(pickle.dumps(_evaluate_entry(
        (str(CORPUS), str(CORPUS), entry,
         EvalConfig(per_measure=per_measure)))))
    assert not any(isinstance(v, MeasureEval) for v in reachable(page))
    assert page.tally.measures == len(entry.measures)
    rows = [mid for mid, _, _ in page.per_measure]
    assert rows == (list(entry.measures) if per_measure else [])
