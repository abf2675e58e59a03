"""Regenerates the shipped fixture corpus under fixtures/.

Run from the repository root, with the source tree on the path:

    PYTHONPATH=src python3 tests/make_fixtures.py

Keep the pieces hand-countable: several tests freeze exact token counts
derived from these files (the acceptance suite relabels exactly 10% of
the black noteheads, so every work carries a multiple of ten of them).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from builders import (
    attr_staff, attributes, barline, clef_node, direction, group, measure,
    rest, simple_chord, tok, treble_attributes, work,
)
from mtnkit.harness import manifest_for_work, write_manifest
from mtnkit.model import validate
from mtnkit.xmlio import serialize_work


def anthem():
    # 10 black noteheads; 28 tokens.
    m1 = measure(
        treble_attributes(),
        group(simple_chord(4, 0), simple_chord(5, Fraction(1, 2)),
              simple_chord(6, 1), simple_chord(7, Fraction(3, 2)), beams=1),
        group(simple_chord(8, 2)),
        rest("rest_quarter", onset=3),
        barline(onset=4),
        id="m1", line_start=True)
    m2 = measure(
        group(simple_chord(7, 0), simple_chord(6, Fraction(1, 2)),
              simple_chord(5, 1), simple_chord(4, Fraction(3, 2)), beams=1),
        group(simple_chord(3, 2)),
        rest("rest_quarter", onset=3),
        direction("dyn_p", onset=0),
        barline(onset=4),
        id="m2")
    return work(m1, m2, work_id="anthem")


def carol():
    # 10 black noteheads; 26 tokens.
    m1 = measure(
        treble_attributes(),
        group(simple_chord(6, 0), simple_chord(7, Fraction(1, 2)),
              simple_chord(8, 1), simple_chord(9, Fraction(3, 2)), beams=1),
        group(simple_chord(10, 2)),
        group(simple_chord(8, 3)),
        barline(onset=4),
        id="m1", line_start=True)
    m2 = measure(
        group(simple_chord(4, 0), simple_chord(5, Fraction(1, 2)), beams=1),
        group(simple_chord(6, 1)),
        group(simple_chord(7, 2)),
        rest("rest_quarter", onset=3),
        barline(onset=4),
        id="m2")
    return work(m1, m2, work_id="carol")


def etude():
    # Bass clef, two slurred white halves, one sharp; 9 tokens.
    m1 = measure(
        attributes(attr_staff(clef_node("clef_F", 1, 8))),
        group(simple_chord(4, 0, head="notehead_white",
                           extras=(tok("accidental_sharp", 1, 4),
                                   tok("slur_start", 1, pair="s1")))),
        group(simple_chord(6, 2, head="notehead_white",
                           extras=(tok("slur_stop", 1, pair="s1"),))),
        barline(onset=4),
        id="m1", line_start=True)
    return work(m1, work_id="etude")


def motif():
    # The smallest interesting measure: 5 projected nodes (measure, rest
    # and its token, direction and its token).
    m1 = measure(rest("rest_quarter", onset=0),
                 direction("dyn_p", onset=0),
                 id="m1", line_start=True)
    return work(m1, work_id="motif")


# One measure in 3/4 at divisions=24 mixing a dotted quarter, a plain
# eighth, a 3:2 eighth triplet, and a second voice entered via backup.
TORTURE_MUSICXML = """<score-partwise version="4.0">
  <part-list>
    <score-part id="P1"><part-name>x</part-name></score-part>
  </part-list>
  <part id="P1">
    <measure number="1">
      <attributes>
        <divisions>24</divisions>
        <time><beats>3</beats><beat-type>4</beat-type></time>
        <clef><sign>G</sign><line>2</line></clef>
      </attributes>
      <note><pitch><step>C</step><octave>5</octave></pitch>
        <duration>36</duration><type>quarter</type><dot/>
        <voice>1</voice></note>
      <note><pitch><step>D</step><octave>5</octave></pitch>
        <duration>12</duration><type>eighth</type><voice>1</voice></note>
      <note><pitch><step>E</step><octave>5</octave></pitch>
        <duration>8</duration><type>eighth</type>
        <time-modification><actual-notes>3</actual-notes>
          <normal-notes>2</normal-notes></time-modification>
        <beam number="1">begin</beam>
        <notations><tuplet type="start"/></notations></note>
      <note><pitch><step>F</step><octave>5</octave></pitch>
        <duration>8</duration><type>eighth</type>
        <time-modification><actual-notes>3</actual-notes>
          <normal-notes>2</normal-notes></time-modification>
        <beam number="1">continue</beam></note>
      <note><pitch><step>G</step><octave>5</octave></pitch>
        <duration>8</duration><type>eighth</type>
        <time-modification><actual-notes>3</actual-notes>
          <normal-notes>2</normal-notes></time-modification>
        <beam number="1">end</beam>
        <notations><tuplet type="stop"/></notations></note>
      <backup><duration>72</duration></backup>
      <note><pitch><step>C</step><octave>4</octave></pitch>
        <duration>48</duration><type>half</type><voice>2</voice></note>
      <note><pitch><step>D</step><octave>4</octave></pitch>
        <duration>24</duration><type>quarter</type><voice>2</voice></note>
      <barline location="right"><bar-style>light-heavy</bar-style></barline>
    </measure>
  </part>
</score-partwise>
"""

SIMPLE_MUSICXML = """<score-partwise version="4.0">
  <part-list>
    <score-part id="P1"><part-name>x</part-name></score-part>
  </part-list>
  <part id="P1">
    <measure number="1">
      <attributes>
        <divisions>2</divisions>
        <key><fifths>0</fifths></key>
        <time><beats>4</beats><beat-type>4</beat-type></time>
        <clef><sign>G</sign><line>2</line></clef>
      </attributes>
      <note><pitch><step>C</step><octave>4</octave></pitch>
        <duration>4</duration><type>half</type></note>
      <note><pitch><step>E</step><octave>4</octave></pitch>
        <duration>4</duration><type>half</type></note>
      <barline location="right"><bar-style>light-heavy</bar-style></barline>
    </measure>
  </part>
</score-partwise>
"""


def main() -> None:
    root = Path(__file__).resolve().parent.parent / "fixtures"
    corpus = root / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    entries = []
    for build in (anthem, carol, etude, motif):
        w = build()
        problems = validate(w)
        assert problems == [], problems
        name = f"{w.work_id}.mtn.xml"
        (corpus / name).write_bytes(serialize_work(w))
        entries.extend(manifest_for_work(w, name))
        print(f"wrote fixtures/corpus/{name}")
    (root / "manifest.jsonl").write_text(write_manifest(entries),
                                         encoding="utf-8")
    print("wrote fixtures/manifest.jsonl")
    mx = root / "musicxml"
    mx.mkdir(exist_ok=True)
    (mx / "torture.musicxml").write_text(TORTURE_MUSICXML, encoding="utf-8")
    (mx / "simple.musicxml").write_text(SIMPLE_MUSICXML, encoding="utf-8")
    print("wrote fixtures/musicxml/*.musicxml")


if __name__ == "__main__":
    main()
