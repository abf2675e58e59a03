"""Mutated fixture files never crash a command.

Each example edits one fixture `.mtn.xml` line by line, then runs every
file-reading subcommand on it through main(): each must return 0, 1 or 2,
never raise, and `evaluate` must score the edited prediction and return 0.
The converter gets the same treatment from MusicXML fixtures whose element
texts are rewritten, or whose elements are deleted, duplicated or given an
`<alter>`, and from `.mxl` archives of them with bytes flipped. `validate`
is given fixture works with fields, children and records of the wrong
Python type, and values that are not a work at all.
"""

import contextlib
import copy
import io
import json
import re
import tempfile
import zipfile
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree as ET

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pytest

from mtnkit.cli import main
from mtnkit.model import (
    NODE_KINDS, MTNWork, Measure, Node, Part, StaffPosition, Token, validate,
)
from mtnkit.xmlio import InvalidWorkError, parse_work, serialize_work
from test_golden_line_starts import (
    ALTO_2, BACKUP, BOTH, BREAK, CLEFS, attributes, half, two_staff, whole,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
NAMES = sorted(p.name for p in (FIXTURES / "corpus").glob("*.mtn.xml"))
LABELS = ["notehead_black", "notehead_white", "rest_quarter", "stem_up",
          "beam", "clef_G", "dyn_p", "barline_tok_regular", "chord",
          "bogus"]
_OPEN_NODE = re.compile(r"^(\s*<(\w+))")


def _set_attr(line: str, name: str, value: str | None) -> str:
    """Replace, remove, or add (onsets to nodes, steps to tokens) one
    attribute."""
    pattern = re.compile(rf' {name}="[^"]*"')
    if pattern.search(line):
        return pattern.sub("" if value is None else f' {name}="{value}"',
                           line)
    opened = _OPEN_NODE.match(line)
    owners = NODE_KINDS if name == "onset" else {"token"}
    if value is None or not opened or opened.group(2) not in owners:
        return line
    return line.replace(opened.group(1),
                        f'{opened.group(1)} {name}="{value}"', 1)


def mutate(text: str, ops) -> str:
    lines = text.split("\n")
    for op, at, arg in ops:
        if not lines:
            break
        i = at % len(lines)
        if op == "delete":
            del lines[i]
        elif op == "duplicate":  # arg lines from i; copied ids get a suffix
            block = [re.sub(r'id="(\w+)"', r'id="\1d"', line)
                     for line in lines[i:i + arg]]
            lines[i + arg:i + arg] = block
        elif op == "swap":
            j = arg % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        else:  # onset, label, staff or step; arg None removes it
            lines[i] = _set_attr(lines[i], op, arg)
    return "\n".join(lines)


OPS = st.one_of(
    st.tuples(st.just("onset"), st.integers(0, 200),
              st.sampled_from([None, "0", "1", "1/2", "-1", "7/3"])),
    st.tuples(st.just("label"), st.integers(0, 200), st.sampled_from(LABELS)),
    st.tuples(st.just("staff"), st.integers(0, 200),
              st.sampled_from(["0", "1", "2", "-1"])),
    st.tuples(st.just("step"), st.integers(0, 200),
              st.sampled_from([None, "-3", "0", "5", "12"])),
    st.tuples(st.just("delete"), st.integers(0, 200), st.none()),
    st.tuples(st.just("duplicate"), st.integers(0, 200), st.integers(1, 12)),
    st.tuples(st.just("swap"), st.integers(0, 200), st.integers(0, 200)),
)


def run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(NAMES), ops=st.lists(OPS, min_size=1,
                                                 max_size=3))
# Two clefs in one attr_staff, only one with an onset: sorting them used
# to compare an onset with None and raise TypeError.
@example(name="anthem.mtn.xml",
         ops=[("duplicate", 6, 3), ("onset", 6, "1")])
def test_commands_never_raise_on_mutated_fixtures(name, ops):
    truth = FIXTURES / "corpus" / name
    with tempfile.TemporaryDirectory() as tmp:
        pred_root = Path(tmp) / "pred"
        pred_root.mkdir()
        pred = pred_root / name
        pred.write_text(mutate(truth.read_text(encoding="utf-8"), ops),
                        encoding="utf-8")
        manifest = Path(tmp) / "manifest.jsonl"
        manifest.write_text("".join(
            line + "\n" for line in
            (FIXTURES / "manifest.jsonl").read_text().splitlines()
            if json.loads(line)["path"] == name), encoding="utf-8")
        for argv in (["validate", str(pred)],
                     ["stats", str(pred)],
                     ["diff", str(pred), str(truth)],
                     ["diff", "--semantic", str(pred), str(truth)],
                     ["evaluate", "--truth", str(FIXTURES / "corpus"),
                      "--pred", str(pred_root), "--manifest", str(manifest),
                      "--quiet"]):
            assert run(argv) in (0, 1, 2), argv


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(NAMES), ops=st.lists(OPS, min_size=1,
                                                 max_size=3))
def test_evaluate_never_aborts_on_a_mutated_prediction(name, ops):
    # a malformed prediction is scored or counted; the corpus still runs
    truth = FIXTURES / "corpus" / name
    with tempfile.TemporaryDirectory() as tmp:
        pred_root = Path(tmp) / "pred"
        pred_root.mkdir()
        (pred_root / name).write_text(
            mutate(truth.read_text(encoding="utf-8"), ops), encoding="utf-8")
        manifest = Path(tmp) / "manifest.jsonl"
        manifest.write_text("".join(
            line + "\n" for line in
            (FIXTURES / "manifest.jsonl").read_text().splitlines()
            if json.loads(line)["path"] == name), encoding="utf-8")
        assert run(["evaluate", "--truth", str(FIXTURES / "corpus"),
                    "--pred", str(pred_root), "--manifest", str(manifest),
                    "--quiet"]) == 0


MUSICXML = sorted(p.name for p in (FIXTURES / "musicxml").glob("*.musicxml"))
_TEXT = re.compile(r"<(duration|divisions|step|type|staff|voice|octave"
                   r"|fifths)>[^<]*</\1>")
TEXTS = ["", " ", "0", "1", "2", "3", "-1", "-8", "7", "9", "64",
         "100000", "1.5", "x", "C", "G", "H", "c", "quarter", "eighth",
         "half", "whole", "breve", "long", "1024th"]


def retext(text: str, edits, pattern: re.Pattern = _TEXT) -> str:
    """Set the text of the at-th mutable element (mod their count)."""
    for at, value in edits:
        found = list(pattern.finditer(text))
        hit = found[at % len(found)]
        text = (text[:hit.start()] + f"<{hit.group(1)}>{value}"
                f"</{hit.group(1)}>" + text[hit.end():])
    return text


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(MUSICXML),
       edits=st.lists(st.tuples(st.integers(0, 200), st.sampled_from(TEXTS)),
                      min_size=1, max_size=3))
def test_convert_never_raises_on_mutated_musicxml(name, edits):
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / name
        source.write_text(retext((FIXTURES / "musicxml" / name).read_text(
            encoding="utf-8"), edits), encoding="utf-8")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main(["convert", str(source), "-o", str(out)])
        assert rc in (0, 1, 2)
        if rc == 2:
            assert f"error: {source}: " in err.getvalue()
        if rc == 0:
            work = parse_work((out / (source.stem + ".mtn.xml")).read_bytes())
            assert validate(work) == []


# Neither fixture has a <staff> element: a two-staff score with a system
# break, a mid-measure clef change and a backup gives seven.
TWO_STAFF = two_staff(
    "<key><fifths>2</fifths></key>" + CLEFS,
    BREAK + whole(1, "C", 5) + BACKUP + half(2, "C", 3)
    + attributes(ALTO_2) + half(2, "D", 3),
    BREAK + BOTH)
_STAFF = re.compile(r"<(staff)>[^<]*</\1>")


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits=st.lists(st.tuples(st.integers(0, 200), st.sampled_from(TEXTS)),
                      min_size=1, max_size=3))
def test_convert_never_raises_on_mutated_staff_numbers(edits):
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "two-staff.musicxml"
        source.write_text(retext(TWO_STAFF, edits, _STAFF), encoding="utf-8")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main(["convert", str(source), "-o", str(out)])
        assert rc in (0, 1, 2)
        if rc == 2:
            assert f"error: {source}: " in err.getvalue()
        if rc == 0:
            work = parse_work((out / (source.stem + ".mtn.xml")).read_bytes())
            assert validate(work) == []


ALTERS = ["", "x", "1", "-1", "2", "-2", "0.5", "100"]


def restructure(text: str, ops) -> str:
    """Delete or duplicate the at-th element below the root, or set the
    <alter> of the at-th <pitch> (mod their counts)."""
    root = ET.fromstring(text)
    for op, at, value in ops:
        if op == "alter":
            pitches = list(root.iter("pitch"))
            if not pitches:
                continue
            pitch = pitches[at % len(pitches)]
            alter = pitch.find("alter")
            if alter is None:
                alter = ET.Element("alter")
                pitch.insert(1, alter)  # after <step>
            alter.text = value
            continue
        edges = [(parent, index) for parent in root.iter()
                 for index in range(len(parent))]
        if not edges:
            break
        parent, index = edges[at % len(edges)]
        if op == "delete":
            del parent[index]
        else:
            parent.insert(index + 1, copy.deepcopy(parent[index]))
    return ET.tostring(root, encoding="unicode")


RESTRUCTURES = st.one_of(
    st.tuples(st.sampled_from(["delete", "duplicate"]),
              st.integers(0, 400), st.none()),
    st.tuples(st.just("alter"), st.integers(0, 20), st.sampled_from(ALTERS)),
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(MUSICXML),
       ops=st.lists(RESTRUCTURES, min_size=1, max_size=3))
def test_convert_never_raises_on_restructured_musicxml(name, ops):
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / name
        source.write_text(restructure((FIXTURES / "musicxml" / name)
                                      .read_text(encoding="utf-8"), ops),
                          encoding="utf-8")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main(["convert", str(source), "-o", str(out)])
        assert rc in (0, 1, 2)
        if rc == 2:
            assert f"error: {source}: " in err.getvalue()
        if rc == 0:
            work = parse_work((out / (source.stem + ".mtn.xml")).read_bytes())
            assert validate(work) == []


def mxl(name: str, compression: int) -> bytes:
    """A MusicXML fixture zipped as an .mxl archive with a container."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", compression) as zf:
        zf.writestr("META-INF/container.xml",
                    '<container><rootfiles><rootfile full-path="score.xml"/>'
                    "</rootfiles></container>")
        zf.writestr("score.xml",
                    (FIXTURES / "musicxml" / name).read_bytes())
    return buffer.getvalue()


ARCHIVES = {(name, compression): mxl(name, compression)
            for name in MUSICXML
            for compression in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED)}


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(archive=st.sampled_from(sorted(ARCHIVES)),
       flips=st.lists(st.tuples(st.integers(0, 1 << 16),
                                st.integers(1, 255)),
                      min_size=1, max_size=3))
def test_convert_never_raises_on_a_corrupted_mxl(archive, flips):
    data = bytearray(ARCHIVES[archive])
    for at, mask in flips:
        data[at % len(data)] ^= mask
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / (Path(archive[0]).stem + ".mxl")
        source.write_bytes(bytes(data))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main(["convert", str(source), "-o", str(out)])
        assert rc in (0, 1, 2)
        if rc == 2:
            assert f"error: {source}: " in err.getvalue()
        if rc == 0:
            work = parse_work((out / (source.stem + ".mtn.xml")).read_bytes())
            assert validate(work) == []


# field -> whether a value has the type the model wants for it. "work" is
# the work itself; "part", "measure" and "child" are an item of a parts,
# measures or children tuple.
FIELD_TYPES = {
    "work": lambda v: isinstance(v, MTNWork),
    "work_id": lambda v: type(v) is str,
    "parts": lambda v: type(v) is tuple,
    "part": lambda v: isinstance(v, Part),
    "staff_count": lambda v: type(v) is int,
    "measures": lambda v: type(v) is tuple,
    "measure": lambda v: isinstance(v, Measure),
    "id": lambda v: type(v) is str,
    "line_start": lambda v: type(v) is bool,
    "children": lambda v: type(v) is tuple,
    "child": lambda v: isinstance(v, (Node, Token)),
    "kind": lambda v: type(v) is str,
    "onset": lambda v: (v is None or type(v) is int
                        or isinstance(v, Fraction)),
    "synthetic": lambda v: type(v) is bool,
    "label": lambda v: type(v) is str,
    "position": lambda v: type(v) is StaffPosition,
    "pair_id": lambda v: v is None or type(v) is str,
    "staff": lambda v: type(v) is int,
    "step": lambda v: v is None or type(v) is int,
    "numeric_value": lambda v: v is None or type(v) is int,
}
# (record, field); field None replaces the work itself
SLOTS = [("work", None), ("work", "work_id"), ("work", "parts"),
         ("part", "staff_count"), ("part", "measures"), ("measure", "id"),
         ("measure", "line_start"), ("measure", "children"), ("node", "kind"),
         ("node", "children"), ("node", "onset"), ("node", "synthetic"),
         ("token", "id"), ("token", "label"), ("token", "position"),
         ("token", "pair_id"), ("token", "staff"), ("token", "step"),
         ("token", "numeric_value")]
VALUES = [None, 0, 7, -1, True, False, 1.5, "x", "t1", b"x", [],
          Fraction(1, 2), (), (5,), ["rest"], (1, None), "rest",
          StaffPosition(1), Node("rest"),
          Token("t1", "rest_quarter", StaffPosition(1))]
RECORDS = {"work": MTNWork, "part": Part, "measure": Measure, "node": Node,
           "token": Token}
# record -> the field that holds its records
CONTAINERS = {MTNWork: "parts", Part: "measures", Measure: "children",
              Node: "children"}


def _edit(item, want, n, fn, seen):
    """item with fn applied to the n-th `want` record in document order,
    found through containers that are tuples; seen[0] counts the ones
    passed."""
    if type(item) is want:
        seen[0] += 1
        if seen[0] == n:
            item = fn(item)
    field = CONTAINERS.get(type(item))
    if field is None or type(getattr(item, field)) is not tuple:
        return item
    return item._replace(**{field: tuple(
        _edit(child, want, n, fn, seen) for child in getattr(item, field))})


def mistype(work, record, at, field, value):
    """work with field of its at-th (mod their count) record set to value;
    work as it is when it holds no such record."""
    if field is None:
        return value

    def set_field(item):
        if field in ("staff", "step"):
            if type(item.position) is not StaffPosition:
                return item
            return item._replace(position=item.position._replace(
                **{field: value}))
        return item._replace(**{field: value})

    seen = [-1]
    _edit(work, RECORDS[record], None, set_field, seen)
    if seen[0] < 0:
        return work
    return _edit(work, RECORDS[record], at % (seen[0] + 1), set_field, [-1])


def _tuple(value) -> tuple:
    return value if type(value) is tuple else ()


def _fields(work):
    """(field, value) of every typed field and record that validate can
    reach in the work."""
    yield "work", work
    if not isinstance(work, MTNWork):
        return
    yield from (("work_id", work.work_id), ("parts", work.parts))
    for part in _tuple(work.parts):
        yield "part", part
        if not isinstance(part, Part):
            continue
        yield from (("staff_count", part.staff_count),
                    ("measures", part.measures))
        for measure in _tuple(part.measures):
            yield "measure", measure
            if not isinstance(measure, Measure):
                continue
            yield from (("id", measure.id), ("line_start", measure.line_start),
                        ("children", measure.children))
            stack = list(_tuple(measure.children))
            while stack:
                item = stack.pop()
                yield "child", item
                if isinstance(item, Token):
                    yield from (("id", item.id), ("label", item.label),
                                ("position", item.position),
                                ("pair_id", item.pair_id),
                                ("numeric_value", item.numeric_value))
                    if type(item.position) is StaffPosition:
                        yield from (("staff", item.position.staff),
                                    ("step", item.position.step))
                elif isinstance(item, Node):
                    yield from (("kind", item.kind), ("onset", item.onset),
                                ("synthetic", item.synthetic),
                                ("children", item.children))
                    stack.extend(_tuple(item.children))


WORKS = {name: parse_work((FIXTURES / "corpus" / name).read_bytes())
         for name in NAMES}


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(NAMES),
       edits=st.lists(st.tuples(st.sampled_from(SLOTS),
                                st.integers(0, 500), st.sampled_from(VALUES)),
                      min_size=1, max_size=3))
def test_validate_never_raises_on_mistyped_fields(name, edits):
    work = WORKS[name]
    for (record, field), at, value in edits:
        work = mistype(work, record, at, field, value)
    violations = validate(work)
    assert all(type(v.subject) is str for v in violations)
    if any(not FIELD_TYPES[field](value) for field, value in _fields(work)):
        assert "field-type" in {v.rule for v in violations}
        with pytest.raises(InvalidWorkError):  # not a TypeError
            serialize_work(work)
