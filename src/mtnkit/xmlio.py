"""Canonical XML serialization and strict parsing of tree scores.

The writer emits one fixed byte form: UTF-8, LF line endings, two-space
indentation, attributes in alphabetical order, onsets as exact fractions in
lowest terms. Serializing a parsed file reproduces it byte for byte, and two
equal works always serialize identically.

The parser is expat-based so every error carries a line and column. One
table gives each element its attributes, each with its reader, and the
elements it may sit directly under: work at the top, part under work,
measure under part, nodes under a measure or a node, tokens under a node,
and nothing under a token; an element anywhere else is misplaced. Values
must be in the writer's form: an int is 0 or -?[1-9][0-9]* (ASCII), a
fraction an int or n/d in lowest terms with d > 1, a flag "true" (a false
flag is omitted, so "false" is refused); any other is refused at the start
tag. Between elements only space, tab, CR and LF may sit; any other text is
refused where it starts. Every refusal is a FormatError whose message names
the broken rule. Files whose sibling order is not canonical are accepted,
reordered, and reported through the warning callback. The writer refuses a
work that does not validate, so no id it writes holds a character outside
XML 1.0's Char production (validate's xml-char rule).
"""

from __future__ import annotations

import re
import xml.parsers.expat
from fractions import Fraction
from math import gcd
from typing import Callable

from .canonical import CanonicalizeError, canonicalize
from .model import (
    MTNWork, Measure, NODE_KINDS, Node, Part, StaffPosition, Token,
    _Validator, validate,
)

MTN_VERSION = "1.0"
# Deepest node nesting under a measure that the parser accepts. The model's
# walkers recurse once or twice per level, so this stays well inside the
# interpreter's recursion limit; real note groups nest a few levels deep.
MAX_NODE_DEPTH = 100
_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'


class FormatError(ValueError):
    """A parse error; carries the 1-based line and column. Its args are
    the constructor's, so that a pickled copy reads the same."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message, line, column)
        self.line = line
        self.column = column

    def __str__(self) -> str:
        return f"{self.args[0]} (line {self.line}, column {self.column})"


class InvalidWorkError(ValueError):
    """Serialization refused: the work fails validation."""

    def __init__(self, violation):
        super().__init__(str(violation))
        self.violation = violation


# ---------------------------------------------------------------------------
# Writing.

_NEEDS_ESCAPE = re.compile('[&<>"\n\r\t]').search
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                          "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"})


def _quote_attr(value: str) -> str:
    """value escaped and quoted as xml.sax.saxutils.quoteattr does it."""
    if _NEEDS_ESCAPE(value) is None:
        return '"' + value + '"'
    value = value.translate(_ESCAPES)
    if '"' not in value:
        return '"' + value + '"'
    if "'" not in value:
        return "'" + value + "'"
    return '"' + value.replace('"', "&quot;") + '"'


def _write_node(node: Node, indent: int, out: list[str]) -> None:
    # Attributes go straight into the line in alphabetical order. Integers
    # and onsets hold nothing to escape, so only strings are quoted.
    pad = "  " * indent
    onset = "" if node.onset is None else f' onset="{node.onset!s}"'
    synthetic = ' synthetic="true"' if node.synthetic else ""
    out.append(f"{pad}<{node.kind}{onset}{synthetic}>")
    for child in node.children:
        if isinstance(child, Token):
            pos = child.position
            pair = ("" if child.pair_id is None
                    else f" pair={_quote_attr(child.pair_id)}")
            step = "" if pos.step is None else f' step="{pos.step}"'
            value = ("" if child.numeric_value is None
                     else f' value="{child.numeric_value}"')
            out.append(f"{pad}  <token id={_quote_attr(child.id)} "
                       f"label={_quote_attr(child.label)}{pair} "
                       f'staff="{pos.staff}"{step}{value}/>')
        else:
            _write_node(child, indent + 1, out)
    out.append(f"{pad}</{node.kind}>")


def serialize_work(work: MTNWork) -> bytes:
    """Canonical byte form of a valid work.

    Raises InvalidWorkError with the first violation when the work does not
    validate (including non-canonical sibling order).
    """
    return _write_work(work, validate(work))


def _serialize_ordered(work: MTNWork) -> bytes:
    """serialize_work for a work whose every measure canonicalize has
    returned (renumbered since or not: ids never move a sibling): every
    validate rule runs but the order check. The converter writes through
    this, so that it orders each measure once."""
    return _write_work(work, _Validator(work, check_order=False).run())


def _write_work(work: MTNWork, problems: list) -> bytes:
    if problems:
        raise InvalidWorkError(problems[0])
    out = [_HEADER.rstrip("\n"),
           f'<work mtn-version="{MTN_VERSION}" '
           f"work_id={_quote_attr(work.work_id)}>"]
    for part in work.parts:
        out.append(f'  <part staff_count="{part.staff_count}">')
        for m in part.measures:
            line_start = ' line_start="true"' if m.line_start else ""
            out.append(f"    <measure id={_quote_attr(m.id)}{line_start}>")
            for child in m.children:
                _write_node(child, 3, out)
            out.append("    </measure>")
        out.append("  </part>")
    out.append("</work>")
    out.append("")
    return "\n".join(out).encode("utf-8")


# ---------------------------------------------------------------------------
# Parsing.

def _int(raw: str) -> int:
    # int() also takes "+1", " 1", "1_0", "01" and non-ASCII digits
    value = int(raw)
    if str(value) != raw:
        raise ValueError
    return value


def _fraction(raw: str) -> Fraction:
    num, slash, den = raw.partition("/")
    if not slash:
        return Fraction(_int(raw))
    n, d = _int(num), _int(den)
    if d < 2 or gcd(n, d) != 1:
        raise ValueError
    return Fraction(n, d)


def _flag(raw: str) -> bool:
    if raw != "true":
        raise ValueError
    return True


# Each element's attributes with their readers, its required attributes in
# the order they are checked, and the elements it may sit directly under
# ("" is the document).
_ELEMENTS = {
    "work": ({"mtn-version": str, "work_id": str},
             ("mtn-version", "work_id"), frozenset({""})),
    "part": ({"staff_count": _int}, ("staff_count",), frozenset({"work"})),
    "measure": ({"id": str, "line_start": _flag}, ("id",),
                frozenset({"part"})),
    "token": ({"id": str, "label": str, "staff": _int, "step": _int,
               "pair": str, "value": _int},
              ("id", "label", "staff"), NODE_KINDS),
    **{kind: ({"onset": _fraction, "synthetic": _flag}, (),
              frozenset({"measure", *NODE_KINDS})) for kind in NODE_KINDS},
}


class _Parser:
    def __init__(self, on_warning: Callable[[str], None] | None):
        self.on_warning = on_warning or (lambda msg: None)
        self.expat = xml.parsers.expat.ParserCreate("UTF-8")
        self.expat.StartElementHandler = self.start
        self.expat.EndElementHandler = self.end
        self.expat.CharacterDataHandler = self.text
        # One (name, attribute values, children) frame per open element.
        self.stack: list[tuple[str, dict, list]] = [("", {}, [])]
        self.ids: set[tuple[str, str]] = set()  # (element, id) pairs

    def err(self, message: str):
        raise FormatError(message, self.expat.CurrentLineNumber,
                          self.expat.CurrentColumnNumber + 1)

    def start(self, name: str, attrs: dict[str, str]) -> None:
        spec = _ELEMENTS.get(name)
        if spec is None:
            self.err(f"unknown element <{name}>")
        readers, required, parents = spec
        if self.stack[-1][0] not in parents:
            self.err(f"misplaced <{name}>")
        # the document, work, part and measure frames sit above the nodes
        if name in NODE_KINDS and len(self.stack) > MAX_NODE_DEPTH + 3:
            self.err(f"<{name}> nested deeper than {MAX_NODE_DEPTH} nodes")
        values = {}
        for key, raw in attrs.items():
            read = readers.get(key)
            if read is None:
                self.err(f"unknown attribute {key!r} on <{name}>")
            try:
                values[key] = read(raw)
            except ValueError:
                self.err(f"bad {key} {raw!r} on <{name}>")
        for key in required:
            if key not in values:
                self.err(f"<{name}> is missing attribute {key!r}")
        if name == "work" and values["mtn-version"] != MTN_VERSION:
            self.err(f"unsupported mtn-version {values['mtn-version']!r}")
        if "id" in values:
            if (name, values["id"]) in self.ids:
                self.err(f"{name} id {values['id']!r} already used")
            self.ids.add((name, values["id"]))
        self.stack.append((name, values, []))

    def end(self, name: str) -> None:
        _, values, children = self.stack.pop()
        if name == "token":
            item = Token(values["id"], values["label"],
                         StaffPosition(values["staff"], values.get("step")),
                         values.get("pair"), values.get("value"))
        elif name in NODE_KINDS:
            item = Node(name, tuple(children), onset=values.get("onset"),
                        synthetic=values.get("synthetic", False))
        elif name == "measure":
            item = self._canonical(Measure(values["id"], tuple(children),
                                           values.get("line_start", False)))
        elif name == "part":
            item = Part(values["staff_count"], tuple(children))
        else:
            item = MTNWork(values["work_id"], tuple(children))
        self.stack[-1][2].append(item)

    def text(self, data: str) -> None:
        # Only XML's own whitespace may sit between elements.
        text = data.strip(" \t\r\n")
        if text:
            self.err(f"unexpected text content {text[:20]!r}")

    def _canonical(self, measure: Measure) -> Measure:
        try:
            ordered = canonicalize(measure)
        except CanonicalizeError:
            return measure  # validation will name the missing onsets
        if ordered is not measure:
            self.on_warning(
                f"measure {measure.id} was not in canonical order; reordered")
        return ordered

    def parse(self, data: bytes) -> MTNWork:
        try:
            self.expat.Parse(data, True)
        except xml.parsers.expat.ExpatError as exc:
            raise FormatError(
                xml.parsers.expat.errors.messages[exc.code],
                exc.lineno, exc.offset + 1) from exc
        (work,) = self.stack[0][2]
        return work


def parse_work(data: bytes | str,
               on_warning: Callable[[str], None] | None = None) -> MTNWork:
    """Parse canonical XML bytes into a work.

    Strict: unknown elements and attributes, misplaced elements, values not
    in the writer's form, duplicate ids and malformed XML each raise a
    FormatError with line/column. Sibling order is repaired to canonical
    form with a warning rather than rejected.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    return _Parser(on_warning).parse(data)
