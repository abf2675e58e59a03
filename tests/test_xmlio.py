"""Canonical XML round trips, byte stability, and the strict parse errors."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import builders as B
from mtnkit.model import (
    ATTR_STAFF, ATTRIBUTES, BARLINE, CHORD, CLEF, NOTE, NOTE_GROUP, STEM,
    TIME_SIG, Measure, MTNWork, Node, Part, StaffPosition, Token, validate,
)
from mtnkit.xmlio import (
    MAX_NODE_DEPTH, FormatError, InvalidWorkError, _quote_attr, _write_node,
    parse_work, serialize_work,
)

CORPUS = Path(__file__).resolve().parent.parent / "fixtures" / "corpus"


def test_round_trip_structural_equality():
    w = B.standard_work()
    data = serialize_work(w)
    assert parse_work(data) == w


def test_serialize_is_a_fixed_point_of_parse():
    w = B.standard_work()
    data = serialize_work(w)
    assert serialize_work(parse_work(data)) == data


def test_byte_form_basics():
    data = serialize_work(B.standard_work(1))
    text = data.decode("utf-8")
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
    assert "\r" not in text
    assert text.endswith("</work>\n")
    assert 'mtn-version="1.0"' in text
    # two-space indentation, no tabs
    assert "\t" not in text
    assert '\n  <part staff_count="1">' in text


def test_fraction_attribute_lowest_terms():
    m = B.measure(
        B.group(B.simple_chord(onset=Fraction(2, 4))))
    data = serialize_work(B.work(m)).decode()
    assert 'onset="1/2"' in data
    assert "2/4" not in data and "0.5" not in data


def test_equal_works_serialize_identically():
    rng = random.Random(42)
    for i in range(20):
        m = B.random_measure(rng, "m1")
        kids = list(m.children)
        rng.shuffle(kids)
        w1 = B.work(B.measure(*m.children, id="m1"), work_id="w")
        w2 = B.work(B.measure(*kids, id="m1"), work_id="w")
        assert serialize_work(w1) == serialize_work(w2)


def test_shuffled_file_reparses_to_canonical_with_warning():
    w = B.standard_work(1)
    data = serialize_work(w).decode()
    # move the barline element block before the attributes block
    lines = data.splitlines()
    start = next(i for i, l in enumerate(lines) if "<barline" in l)
    stop = next(i for i, l in enumerate(lines) if "</barline>" in l)
    block = lines[start:stop + 1]
    del lines[start:stop + 1]
    anchor = next(i for i, l in enumerate(lines) if "<attributes" in l)
    shuffled = "\n".join(lines[:anchor] + block + lines[anchor:]) + "\n"
    warnings = []
    out = parse_work(shuffled, on_warning=warnings.append)
    assert out == w
    assert any("canonical" in msg for msg in warnings)


def test_no_warning_for_canonical_input():
    warnings = []
    parse_work(serialize_work(B.standard_work()), on_warning=warnings.append)
    assert warnings == []


def test_serialize_refuses_invalid_work():
    bad = MTNWork("w", (Part(0, ()),))
    with pytest.raises(InvalidWorkError) as info:
        serialize_work(bad)
    assert info.value.violation.rule == "staff-count"


def test_serialize_refuses_out_of_order_work():
    late = B.group(B.simple_chord(onset=2))
    w = B.work(B.measure(late, B.rest(onset=0)), normalize=False)
    with pytest.raises(InvalidWorkError) as info:
        serialize_work(w)
    assert (info.value.violation.rule, info.value.violation.subject) == (
        "non-canonical", "m1")


@pytest.mark.parametrize("char", ["\t", "\n", "\r", "\xa0", "\U0001d11e"],
                         ids=lambda c: f"U+{ord(c):04X}")
def test_ids_with_any_xml_character_round_trip(char):
    w = B.work_with_id_suffix(char)
    assert validate(w) == []
    assert parse_work(serialize_work(w)) == w


def test_malformed_xml_has_position():
    with pytest.raises(FormatError) as info:
        parse_work("<work mtn-version='1.0' work_id='w'>"
                   "<part staff_count='1'></work>")
    assert str(info.value) == "mismatched tag (line 1, column 61)"
    assert (info.value.line, info.value.column) == (1, 61)


def test_unknown_element():
    doc = ('<?xml version="1.0" encoding="UTF-8"?>\n'
           '<work mtn-version="1.0" work_id="w">\n  <chapter/>\n</work>\n')
    with pytest.raises(FormatError) as info:
        parse_work(doc)
    assert str(info.value) == "unknown element <chapter> (line 3, column 3)"


def test_unknown_attribute():
    doc = ('<work mtn-version="1.0" work_id="w" color="red"></work>')
    with pytest.raises(FormatError) as info:
        parse_work(doc)
    assert str(info.value) == (
        "unknown attribute 'color' on <work> (line 1, column 1)")


def test_missing_required_attribute():
    doc = ('<work mtn-version="1.0"></work>')
    with pytest.raises(FormatError) as info:
        parse_work(doc)
    assert str(info.value) == (
        "<work> is missing attribute 'work_id' (line 1, column 1)")


def test_unsupported_version():
    doc = ('<work mtn-version="9.9" work_id="w"></work>')
    with pytest.raises(FormatError) as info:
        parse_work(doc)
    assert str(info.value) == (
        "unsupported mtn-version '9.9' (line 1, column 1)")


def test_bad_fraction_has_position():
    doc = ('<work mtn-version="1.0" work_id="w">\n'
           ' <part staff_count="1">\n'
           '  <measure id="m1">\n'
           '   <rest onset="nope"><token id="t1" label="rest_quarter" staff="1"/></rest>\n'
           '  </measure>\n </part>\n</work>\n')
    with pytest.raises(FormatError) as info:
        parse_work(doc)
    assert str(info.value) == "bad onset 'nope' on <rest> (line 4, column 4)"


def nested_groups(depth):
    """A one-measure work whose chord sits under depth - 2 note groups."""
    groups = depth - 2
    return ('<work mtn-version="1.0" work_id="w"><part staff_count="1">'
            '<measure id="m1">' + '<note_group onset="0">' * groups
            + '<chord onset="0"><note><token id="t1" label="notehead_black"'
            ' staff="1" step="4"/></note></chord>'
            + '</note_group>' * groups + '</measure></part></work>')


def test_nesting_depth_is_bounded():
    from mtnkit.ted import SEMANTIC_COSTS, tree_edit_distance
    from mtnkit.trees import project_tree

    work = parse_work(nested_groups(MAX_NODE_DEPTH))
    validate(work)
    assert parse_work(serialize_work(work)) == work
    tree = project_tree(work.parts[0].measures[0])
    assert len(tree.nodes) == MAX_NODE_DEPTH + 2
    assert tree_edit_distance(tree, tree, SEMANTIC_COSTS).cost == 0
    with pytest.raises(FormatError,
                       match=f"nested deeper than {MAX_NODE_DEPTH} nodes"):
        parse_work(nested_groups(MAX_NODE_DEPTH + 1))


def test_duplicate_token_id_at_parse():
    doc = ('<work mtn-version="1.0" work_id="w">\n'
           ' <part staff_count="1">\n'
           '  <measure id="m1">\n'
           '   <rest onset="0"><token id="t1" label="rest_quarter" staff="1"/></rest>\n'
           '   <rest onset="1"><token id="t1" label="rest_quarter" staff="1"/></rest>\n'
           '  </measure>\n </part>\n</work>\n')
    with pytest.raises(FormatError) as info:
        parse_work(doc)
    assert str(info.value) == "token id 't1' already used (line 5, column 20)"


def test_duplicate_measure_id_at_parse():
    doc = ('<work mtn-version="1.0" work_id="w">\n'
           ' <part staff_count="1">\n'
           '  <measure id="m1"></measure>\n'
           '  <measure id="m1"></measure>\n'
           ' </part>\n</work>\n')
    with pytest.raises(FormatError) as info:
        parse_work(doc)
    assert str(info.value) == "measure id 'm1' already used (line 4, column 3)"


def test_unexpected_text_content():
    doc = ('<work mtn-version="1.0" work_id="w">hello</work>')
    with pytest.raises(FormatError) as info:
        parse_work(doc)
    assert str(info.value) == (
        "unexpected text content 'hello' (line 1, column 37)")


@pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\u3000"])
def test_only_xml_whitespace_between_elements(space):
    # Space, tab, CR and LF may sit between elements; Unicode's other
    # spaces are text, and text content is refused with its place.
    doc = (CORPUS / "motif.mtn.xml").read_text(encoding="utf-8")
    assert parse_work(doc.replace("    </measure>", "\t \r\n    </measure>")
                      ) == parse_work(doc)
    with pytest.raises(FormatError) as info:
        parse_work(doc.replace("    </measure>", space + "   </measure>"))
    assert str(info.value) == (
        f"unexpected text content {space!r} (line 11, column 1)")


def in_measure(*lines: str) -> str:
    """A one-measure work whose measure holds the given lines (line 4 on)."""
    return "\n".join(['<work mtn-version="1.0" work_id="w">',
                      ' <part staff_count="1">', '  <measure id="m1">',
                      *lines, '  </measure>', ' </part>', '</work>', ''])


REST = '   <rest onset="0"><token id="t1" label="rest_quarter" staff="1"/>'


@pytest.mark.parametrize("doc, message", [
    ('<work mtn-version="1.0" work_id="w">\n <part staff_count="1">\n'
     '  <work mtn-version="1.0" work_id="v"></work>\n </part>\n</work>\n',
     "misplaced <work> (line 3, column 3)"),
    ('<part staff_count="1"></part>', "misplaced <part> (line 1, column 1)"),
    ('<work mtn-version="1.0" work_id="w">\n <measure id="m1"></measure>\n'
     '</work>\n', "misplaced <measure> (line 2, column 2)"),
    (in_measure('   <token id="t1" label="rest_quarter" staff="1"/>'),
     "misplaced <token> (line 4, column 4)"),
    ('<work mtn-version="1.0" work_id="w">\n <part staff_count="1">\n'
     '  <rest onset="0"></rest>\n </part>\n</work>\n',
     "misplaced <rest> (line 3, column 3)"),
])
def test_misplaced_element(doc, message):
    with pytest.raises(FormatError) as info:
        parse_work(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("inner, name", [
    ('<token id="t2" label="rest_quarter" staff="1"/>', "token"),
    ('<rest onset="0"/>', "rest"),
])
def test_element_inside_a_token_is_misplaced(inner, name):
    doc = in_measure(REST.replace("/>", ">"), f"    {inner}",
                     "   </token></rest>")
    with pytest.raises(FormatError) as info:
        parse_work(doc)
    assert str(info.value) == f"misplaced <{name}> (line 5, column 5)"


def one_rest(staff_count="1", line_start=None, onset="0", synthetic=None,
             staff="1", step=None, value=None):
    """A one-rest work with the given attribute texts (None leaves one out).

    The part opens on line 2, the measure on line 3, the rest on line 4 and
    the token on line 5; each closes on a later line than it opens.
    """
    def attr(name, text):
        return "" if text is None else f' {name}="{text}"'
    return "\n".join([
        '<work mtn-version="1.0" work_id="w">',
        f" <part{attr('staff_count', staff_count)}>",
        f'  <measure id="m1"{attr("line_start", line_start)}>',
        f"   <rest{attr('onset', onset)}{attr('synthetic', synthetic)}>",
        f'    <token id="t1" label="rest_quarter"{attr("staff", staff)}'
        f"{attr('step', step)}{attr('value', value)}>",
        "    </token>", "   </rest>", "  </measure>", " </part>", "</work>",
        ""])


# Each form the writer never emits is refused where its start tag begins,
# even when the element closes lines later.
@pytest.mark.parametrize("attrs, message", [
    ({"staff": "1_0"}, "bad staff '1_0' on <token> (line 5, column 5)"),
    ({"step": " \u0663"},
     "bad step ' \u0663' on <token> (line 5, column 5)"),
    ({"staff_count": "+1"},
     "bad staff_count '+1' on <part> (line 2, column 2)"),
    ({"onset": "0.0e0"}, "bad onset '0.0e0' on <rest> (line 4, column 4)"),
    ({"onset": "2/4"}, "bad onset '2/4' on <rest> (line 4, column 4)"),
    ({"onset": "1/1"}, "bad onset '1/1' on <rest> (line 4, column 4)"),
    ({"step": "07"}, "bad step '07' on <token> (line 5, column 5)"),
    ({"step": "-0"}, "bad step '-0' on <token> (line 5, column 5)"),
    ({"line_start": "yes"},
     "bad line_start 'yes' on <measure> (line 3, column 3)"),
    ({"synthetic": "True"},
     "bad synthetic 'True' on <rest> (line 4, column 4)"),
])
def test_attribute_not_in_the_writers_form_is_refused(attrs, message):
    with pytest.raises(FormatError) as info:
        parse_work(one_rest(**attrs))
    assert str(info.value) == message


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663"
                             "\u0664\u0665\u0666\u0667\u0668\u0669")
FLAG_MISSES = ["True", "yes", "false", "1", "TRUE", " true", ""]


def near_misses(text):
    """Forms the writer never emits, close to a rendered int or fraction."""
    value = Fraction(text)
    return ["+" + text, text + "_0", text.translate(ARABIC_INDIC),
            "-0" + text[1:] if text.startswith("-") else "0" + text,
            " " + text, text + " ", text + ".0", text + "e0", text + "/1",
            f"{value.numerator * 2}/{value.denominator * 2}"]


@st.composite
def attribute_texts(draw):
    """one_rest's attribute texts in the writer's form, with up to two of
    them replaced by near misses, and whether none was replaced."""
    ints = st.integers(-40, 40).map(str)
    flags = st.sampled_from([None, "true"])
    texts = {
        "staff_count": draw(ints), "staff": draw(ints),
        "step": draw(st.none() | ints), "value": draw(st.none() | ints),
        "onset": str(draw(st.fractions(-8, 8, max_denominator=12))),
        "line_start": draw(flags), "synthetic": draw(flags),
    }
    broken = draw(st.lists(st.sampled_from(sorted(texts)), min_size=1,
                           max_size=2, unique=True) | st.just([]))
    for name in broken:
        texts[name] = draw(st.sampled_from(
            FLAG_MISSES if name in ("line_start", "synthetic")
            else near_misses(texts[name] or "0")))
    return texts, not broken


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(attribute_texts())
def test_accepted_attributes_read_back_as_written(drawn):
    texts, in_writers_form = drawn
    try:
        work = parse_work(one_rest(**texts))
    except FormatError as exc:
        assert exc.args[0].startswith("bad ")
        assert not in_writers_form
        return
    assert in_writers_form
    measure = work.parts[0].measures[0]
    rest = measure.children[0]
    token = rest.children[0]
    def written(value):
        return None if value is None else str(value)
    assert {
        "staff_count": written(work.parts[0].staff_count),
        "line_start": "true" if measure.line_start else None,
        "onset": written(rest.onset),
        "synthetic": "true" if rest.synthetic else None,
        "staff": written(token.position.staff),
        "step": written(token.position.step),
        "value": written(token.numeric_value),
    } == texts


# One interpreter per hash seed: set iteration order follows the seed, so a
# check that walks a set would name a different missing attribute.
MISSING_ATTRIBUTES = """
from mtnkit.xmlio import FormatError, parse_work
for doc in ("<work></work>", {token!r}):
    try:
        parse_work(doc)
    except FormatError as exc:
        print(exc)
"""


def test_missing_attribute_message_does_not_follow_the_hash_seed():
    src = Path(__file__).resolve().parent.parent / "src"
    code = MISSING_ATTRIBUTES.format(token=in_measure(
        '   <rest onset="0"><token/></rest>'))
    for seed in range(8):
        env = {**os.environ, "PYTHONPATH": str(src),
               "PYTHONHASHSEED": str(seed)}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.stdout.splitlines() == [
            "<work> is missing attribute 'mtn-version' (line 1, column 1)",
            "<token> is missing attribute 'id' (line 4, column 20)",
        ], (seed, done.stderr)


def test_random_work_round_trips():
    rng = random.Random(77)
    for i in range(40):
        w = B.random_work_checked(rng, f"w{i}")
        data = serialize_work(w)
        back = parse_work(data)
        assert back == w
        assert serialize_work(back) == data


def test_parse_keeps_explicit_timing_and_validates():
    w = B.standard_work()
    back = parse_work(serialize_work(w))
    assert validate(back) == []


def test_escaping_in_ids():
    m = B.standard_measure(id='m"<&>1')
    w = B.work(m, work_id='w&<">')
    data = serialize_work(w)
    assert parse_work(data) == w


def test_attribute_escaper_matches_quoteattr():
    from xml.sax.saxutils import quoteattr
    rng = random.Random(1701)
    alphabet = "aZ0 &<>\"'\n\r\t;#\u00e9\u266d"
    values = ["", *alphabet] + [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        for _ in range(5000)]
    for value in values:
        assert _quote_attr(value) == quoteattr(value), value


def _tok(id: str, label: str, step: int | None = None, pair: str | None = None,
         value: int | None = None) -> Token:
    return Token(id, label, StaffPosition(1, step), pair, value)


def test_writer_pins_attribute_order_and_escaping_line_by_line():
    attributes = Node(ATTRIBUTES, (Node(ATTR_STAFF, (
        Node(CLEF, (_tok("c1", "clef_G", 4),)),
        Node(TIME_SIG, (_tok("n4", "timesig_number", 4, value=4),
                        _tok("n3", "timesig_number", 8, value=3))),
    )),), onset=Fraction(0), synthetic=True)
    slurred = Node(NOTE_GROUP, (
        Node(CHORD, (Node(STEM, (_tok("s1", "stem_up"),)),
                     Node(NOTE, (_tok('t"<&>1', "notehead_black", 6),
                                 _tok("a'b\"c", "slur_start",
                                      pair="p&1")))),
             onset=Fraction(1, 3)),
        Node(CHORD, (Node(STEM, (_tok("s2", "stem_up"),)),
                     Node(NOTE, (_tok("t\t2", "notehead_black", 7),
                                 _tok("t3", "slur_stop", pair="p&1")))),
             onset=Fraction(2, 3)),
    ), onset=Fraction(1, 3))
    bar = Node(BARLINE, (_tok("b1", "barline_tok_regular"),), onset=Fraction(3))
    work = MTNWork('w&"', (Part(1, (
        Measure("m<1>", (attributes, slurred, bar), line_start=True),
        Measure("m2", (Node(BARLINE, (_tok("b2", "barline_tok_heavy"),),
                            onset=Fraction(0)),)),
    )),))
    assert serialize_work(work).decode("utf-8").split("\n") == [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<work mtn-version="1.0" work_id=\'w&amp;"\'>',
        '  <part staff_count="1">',
        '    <measure id="m&lt;1&gt;" line_start="true">',
        '      <attributes onset="0" synthetic="true">',
        '        <attr_staff>',
        '          <clef>',
        '            <token id="c1" label="clef_G" staff="1" step="4"/>',
        '          </clef>',
        '          <time_sig>',
        '            <token id="n4" label="timesig_number" staff="1" step="4"'
        ' value="4"/>',
        '            <token id="n3" label="timesig_number" staff="1" step="8"'
        ' value="3"/>',
        '          </time_sig>',
        '        </attr_staff>',
        '      </attributes>',
        '      <note_group onset="1/3">',
        '        <chord onset="1/3">',
        '          <stem>',
        '            <token id="s1" label="stem_up" staff="1"/>',
        '          </stem>',
        '          <note>',
        '            <token id=\'t"&lt;&amp;&gt;1\' label="notehead_black"'
        ' staff="1" step="6"/>',
        '            <token id="a\'b&quot;c" label="slur_start" pair="p&amp;1"'
        ' staff="1"/>',
        '          </note>',
        '        </chord>',
        '        <chord onset="2/3">',
        '          <stem>',
        '            <token id="s2" label="stem_up" staff="1"/>',
        '          </stem>',
        '          <note>',
        '            <token id="t&#9;2" label="notehead_black" staff="1"'
        ' step="7"/>',
        '            <token id="t3" label="slur_stop" pair="p&amp;1"'
        ' staff="1"/>',
        '          </note>',
        '        </chord>',
        '      </note_group>',
        '      <barline onset="3">',
        '        <token id="b1" label="barline_tok_regular" staff="1"/>',
        '      </barline>',
        '    </measure>',
        '    <measure id="m2">',
        '      <barline onset="0">',
        '        <token id="b2" label="barline_tok_heavy" staff="1"/>',
        '      </barline>',
        '    </measure>',
        '  </part>',
        '</work>',
        '',
    ]


def test_writer_puts_every_token_attribute_in_alphabetical_order():
    # no valid token holds a pair, a step and a value at once, so the node
    # writer is called without validation
    token = Token("t<1>", "slur_start", StaffPosition(2, 5), "p1", 7)
    out: list[str] = []
    _write_node(Node(NOTE, (token,), onset=Fraction(-7, 2), synthetic=True),
                1, out)
    assert out == [
        '  <note onset="-7/2" synthetic="true">',
        '    <token id="t&lt;1&gt;" label="slur_start" pair="p1" staff="2"'
        ' step="5" value="7"/>',
        '  </note>',
    ]
