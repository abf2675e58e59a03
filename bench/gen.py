"""Seeded benchmark inputs and the facts each one implies.

The generators write tree-score XML and MusicXML text themselves and import
nothing from mtnkit, so a change to the program cannot shift the inputs; the
digests in pins.json hold their bytes fixed. They also do not use mtnkit's
perturbation helpers: predictions are perturbed here, and every perturbation
is recorded, so the checks can bound what the program must report without
running any of its code.

Evaluate workloads return the truth corpus, the predictions and the
manifest, with facts: measure, node and per-class token counts, expected
pairs, missed measures and discarded predictions, and bounds on each pair's
tier-2 cost: from below the distance between the two trees' label
multisets (never less than their size difference), from above relabels +
dropped nodes. The
convert workload returns MusicXML files and .mxl archives, with the measures,
noteheads and rests each one must convert to.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import zipfile
from dataclasses import dataclass
from fractions import Fraction
from xml.sax.saxutils import quoteattr

DEFAULT_SEED = 0


# ---------------------------------------------------------------------------
# Tree-score structures, built directly in canonical sibling order.

@dataclass
class Tok:
    label: str
    staff: int = 1
    step: int | None = None
    pair: str | None = None
    value: int | None = None


@dataclass
class Nd:
    kind: str
    children: list
    onset: Fraction | None = None


def _tok_key(t: Tok):
    step_key = (1, 0) if t.step is None else (0, t.step)
    return (t.staff, step_key, t.label, t.value or 0)


def _leaf(kind: str, toks: list[Tok], onset=None) -> Nd:
    return Nd(kind, sorted(toks, key=_tok_key), onset)


def size(item) -> int:
    """Node count of the projected tree: every node and token."""
    if isinstance(item, Tok):
        return 1
    return 1 + sum(size(c) for c in item.children)


def tokens(item):
    if isinstance(item, Tok):
        yield item
    else:
        for c in item.children:
            yield from tokens(c)


@dataclass
class MeasureSpec:
    id: str
    children: list[Nd]
    line_start: bool = False

    @property
    def nodes(self) -> int:
        return 1 + sum(size(c) for c in self.children)

    def labels(self) -> dict[str, int]:
        """Token label counts, as tier 1 tallies them."""
        out: dict[str, int] = {}
        for c in self.children:
            for t in tokens(c):
                out[t.label] = out.get(t.label, 0) + 1
        return out

    def node_labels(self) -> dict[str, int]:
        """Label counts over every node of the projected tree."""
        out = self.labels()
        todo = list(self.children)
        out["measure"] = 1
        while todo:
            node = todo.pop()
            if isinstance(node, Nd):
                out[node.kind] = out.get(node.kind, 0) + 1
                todo.extend(node.children)
        return out


def _write_node(node: Nd, indent: int, ids, out: list[str]) -> None:
    attrs = {} if node.onset is None else {"onset": str(node.onset)}
    out.append(_open(node.kind, attrs, indent))
    for c in node.children:
        if isinstance(c, Tok):
            a = {"id": f"t{next(ids)}", "label": c.label, "staff": str(c.staff)}
            if c.step is not None:
                a["step"] = str(c.step)
            if c.pair is not None:
                a["pair"] = c.pair
            if c.value is not None:
                a["value"] = str(c.value)
            out.append(_open("token", a, indent + 1, close=True))
        else:
            _write_node(c, indent + 1, ids, out)
    out.append(f"{'  ' * indent}</{node.kind}>")


def _open(name: str, attrs: dict[str, str], indent: int,
          close: bool = False) -> str:
    text = "".join(f" {k}={quoteattr(v)}" for k, v in sorted(attrs.items()))
    return f"{'  ' * indent}<{name}{text}{'/>' if close else '>'}"


def work_xml(work_id: str, measures: list[MeasureSpec]) -> bytes:
    """Canonical tree-score XML of a one-part, one-staff work."""
    ids = iter(range(1, 1 << 30))
    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           _open("work", {"mtn-version": "1.0", "work_id": work_id}, 0),
           _open("part", {"staff_count": "1"}, 1)]
    for m in measures:
        attrs = {"id": m.id}
        if m.line_start:
            attrs["line_start"] = "true"
        out.append(_open("measure", attrs, 2))
        for c in m.children:
            _write_node(c, 3, ids, out)
        out.append("    </measure>")
    out += ["  </part>", "</work>", ""]
    return "\n".join(out).encode("utf-8")


# ---------------------------------------------------------------------------
# Measure generator for the evaluate size bands.

_SHARPS = (7, 10)  # treble F5, C5


def _note(step: int, head: str, accidental: str | None = None,
          marks: tuple[str, ...] = ()) -> Nd:
    toks = [Tok(head, 1, step)]
    if accidental:
        toks.append(Tok(accidental, 1, step))
    toks += [Tok(m) for m in marks]
    return _leaf("note", toks)


def _chord(rng: random.Random, shape: random.Random, onset: Fraction,
           notes: int, head: str, stem: bool, dot: bool = False) -> Nd:
    steps = sorted(rng.sample(range(0, 13), notes))
    kids: list = []
    if stem:
        direction = "stem_down" if steps[-1] >= 6 else "stem_up"
        kids.append(_leaf("stem", [Tok(direction)]))
    for s in steps:
        acc = rng.choice(("accidental_sharp", "accidental_flat",
                          "accidental_natural")) if shape.random() < 0.2 else None
        marks = ["dot"] if dot else []
        if shape.random() < 0.15:
            marks.append(rng.choice(("staccato", "accent", "tenuto")))
        kids.append(_note(s, head, acc, tuple(marks)))
    return Nd("chord", kids, onset)


def _event(rng: random.Random, shape: random.Random, onset: Fraction,
           max_notes: int):
    """One top-level rest or note group at onset; returns (node, length).

    Draws from `shape` decide the tree's shape, draws from `rng` only its
    labels and pitches.
    """
    kind = shape.choices(("quarter", "eighths", "sixteenths", "half", "rest",
                          "dotted"), weights=(3, 4, 2, 1, 2, 1))[0]
    n = lambda: shape.randint(1, max_notes)  # noqa: E731
    if kind == "rest":
        label, length = shape.choice((("rest_quarter", Fraction(1)),
                                    ("rest_eighth", Fraction(1, 2))))
        return _leaf("rest", [Tok(label)], onset), length
    if kind in ("quarter", "half", "dotted"):
        head = "notehead_white" if kind == "half" else "notehead_black"
        length = {"quarter": Fraction(1), "half": Fraction(2),
                  "dotted": Fraction(3, 2)}[kind]
        chord = _chord(rng, shape, onset, n(), head, True,
                       dot=kind == "dotted")
        return Nd("note_group", [chord], onset), length
    count, beams = (2, 1) if kind == "eighths" else (4, 2)
    unit = Fraction(1, 2 * beams)
    chords = [_chord(rng, shape, onset + i * unit, n(), "notehead_black",
                     True) for i in range(count)]
    return Nd("note_group", [Tok("beam")] * beams + chords, onset), count * unit


def _attributes() -> Nd:
    clef = _leaf("clef", [Tok("clef_G", 1, 4)])
    key = _leaf("key", [Tok("accidental_sharp", 1, s) for s in _SHARPS])
    time = _leaf("time_sig", [Tok("timesig_number", 1, 8, value=4),
                              Tok("timesig_number", 1, 4, value=4)])
    return Nd("attributes", [Nd("attr_staff", [clef, key, time])],
              Fraction(0))


def make_measure(rng: random.Random, mid: str, target: int,
                 line_start: bool = False,
                 shape: random.Random | None = None) -> MeasureSpec:
    """A measure whose projected tree has about `target` nodes.

    `shape`, when given, draws the tree's shape and `rng` only its labels,
    so measures built from one shape stream cost a tree edit distance
    engine the same work whatever `rng` is.
    """
    shape = shape or rng
    max_notes = 1 if target < 50 else (2 if target < 200 else 3)
    kids: list[Nd] = []
    if line_start:
        kids.append(_attributes())
    if shape.random() < 0.5:
        kids.append(_leaf("direction", [Tok(rng.choice(
            ("dyn_p", "dyn_mf", "dyn_f")))], Fraction(0)))
    m = MeasureSpec(mid, kids, line_start)
    onset = Fraction(0)
    # Two note groups at least, so that a prediction can drop one.
    while m.nodes < target - 3 or sum(
            c.kind == "note_group" for c in kids) < 2:
        node, length = _event(rng, shape, onset, max_notes)
        # Redraw events that would overshoot the band by more than a
        # quarter; the barline adds the last two nodes.
        if m.nodes + size(node) + 2 > max(target * 5 // 4, m.nodes + 8):
            continue
        kids.append(node)
        onset += length
    kids.append(_leaf("barline", [Tok("barline_tok_regular")], onset))
    return m


# ---------------------------------------------------------------------------
# Perturbations. Each returns the perturbed copy and the unit-cost bounds
# it implies: relabels cost one each, step shifts cost nothing, a dropped
# note group costs its node count.

def _copy(item):
    if isinstance(item, Tok):
        return Tok(item.label, item.staff, item.step, item.pair, item.value)
    return Nd(item.kind, [_copy(c) for c in item.children], item.onset)


def _chords(m: MeasureSpec) -> list[Nd]:
    out = []

    def walk(n):
        if isinstance(n, Nd):
            if n.kind == "chord":
                out.append(n)
            for c in n.children:
                walk(c)
    for c in m.children:
        walk(c)
    return out


@dataclass
class Edit:
    relabels: int = 0
    dropped_nodes: int = 0


def perturb(rng: random.Random, truth: MeasureSpec, new_id: str,
            relabels: int, shifts: int, drops: int,
            shape: random.Random | None = None) -> tuple[MeasureSpec, Edit]:
    """`shape`, when given, picks the dropped note groups, the only
    perturbation that changes the tree's shape; `rng` picks the rest."""
    shape = shape or rng
    m = MeasureSpec(new_id, [_copy(c) for c in truth.children],
                    truth.line_start)
    edit = Edit()
    chords = _chords(m)
    heads = [t for ch in chords for note in ch.children if note.kind == "note"
             for t in note.children if t.label == "notehead_black"]
    for t in rng.sample(heads, min(relabels, len(heads))):
        t.label = "notehead_white"
        edit.relabels += 1
    single = [ch for ch in chords
              if sum(1 for c in ch.children if c.kind == "note") == 1]
    for ch in rng.sample(single, min(shifts, len(single))):
        note = ch.children[-1]
        delta = rng.choice((-1, 1))
        for t in note.children:
            if t.step is not None:
                t.step += delta
    for _ in range(drops):
        groups = [c for c in m.children if c.kind == "note_group"]
        if len(groups) < 2:
            break
        victim = shape.choice(groups)
        m.children.remove(victim)
        edit.dropped_nodes += size(victim)
    return m, edit


# ---------------------------------------------------------------------------
# Evaluate workloads.

@dataclass
class Workload:
    files: dict[str, bytes]
    facts: dict

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0")
            h.update(hashlib.sha256(self.files[name]).digest())
        return h.hexdigest()


def _histogram_distance(a: dict[str, int], b: dict[str, int]) -> int:
    """Least number of unit edits that can turn label multiset a into b.

    Each relabel, delete or insert moves one label out of the surplus on
    at most one side, so this bounds the unit-cost TED from below; it is
    never less than the size difference.
    """
    keys = set(a) | set(b)
    return max(sum(max(0, a.get(k, 0) - b.get(k, 0)) for k in keys),
               sum(max(0, b.get(k, 0) - a.get(k, 0)) for k in keys))


def _count_events(labels: dict[str, int]) -> int:
    return sum(n for label, n in labels.items()
               if label.startswith(("notehead_", "rest_")))


def _eval_corpus(pages: list[tuple[list[MeasureSpec], list[MeasureSpec],
                                   list[Edit | None]]]) -> Workload:
    """Pages of (truth measures, predicted measures, per-truth edits).

    A truth measure whose edit is None has no prediction paired with it.
    """
    files: dict[str, bytes] = {}
    manifest = []
    classes: dict[str, dict[str, int]] = {}
    pairs = []
    facts = {"pages": len(pages), "truth_measures": 0, "matched": 0,
             "missed": 0, "discarded": 0, "truth_nodes": 0,
             "truth_events": 0, "predicted_events": 0}
    for index, (truth, pred, edits) in enumerate(pages, start=1):
        name = f"page-{index:03d}"
        path = f"{name}.mtn.xml"
        files[f"truth/{path}"] = work_xml(name, truth)
        files[f"pred/{path}"] = work_xml(name, pred)
        manifest.append(json.dumps(
            {"measures": [m.id for m in truth], "page": "1", "path": path,
             "work": name}, sort_keys=True))
        paired = [e is not None for e in edits]
        facts["truth_measures"] += len(truth)
        facts["matched"] += sum(paired)
        facts["missed"] += len(truth) - sum(paired)
        facts["discarded"] += max(0, len(pred) - len(truth))
        for i, (t, edit) in enumerate(zip(truth, edits)):
            g = t.labels()
            p = pred[i].labels() if edit is not None else {}
            for label in set(g) | set(p):
                c = classes.setdefault(label, {"truth": 0, "predicted": 0,
                                               "matched": 0})
                c["truth"] += g.get(label, 0)
                c["predicted"] += p.get(label, 0)
                c["matched"] += min(g.get(label, 0), p.get(label, 0))
            facts["truth_nodes"] += t.nodes
            facts["truth_events"] += _count_events(g)
            facts["predicted_events"] += _count_events(p)
            if edit is None:
                low = high = t.nodes
            else:
                low = _histogram_distance(t.node_labels(),
                                          pred[i].node_labels())
                high = edit.relabels + edit.dropped_nodes
            pairs.append({"id": t.id, "truth_nodes": t.nodes,
                          "cost_min": low, "cost_max": high})
    files["manifest.jsonl"] = ("\n".join(manifest) + "\n").encode()
    facts["classes"] = dict(sorted(classes.items()))
    facts["pairs"] = pairs
    facts["bands"] = sorted({p["truth_nodes"] for p in pairs})
    return Workload(files, facts)


# Prediction mix of one eval-small page: half exact copies. Fixed counts,
# shuffled per page by a fixed stream, keep the TED work the same for every
# seed.
_PAGE_MIX = (("copy",) * 10 + ("relabel",) * 3 + ("shift",) * 3
             + ("drop",) * 2 + ("both",) * 2)


def eval_small(seed: int, pages: int = 6, per_page: int = 20) -> Workload:
    """Realistic page mix of about 20-node measures.

    Half the predictions are exact copies; the rest are relabelled,
    step-shifted, missing a note group, or relabelled and shifted. Every
    sixth page renames its measure ids, so it pairs by reading order, and
    carries one surplus measure; every sixth page (offset by three) loses
    its last two measures. As in `eval_large`, the seed picks pitches,
    labels and the perturbed noteheads; tree shapes, the mix order and the
    dropped groups come from a fixed stream, so every seed asks for the
    same TED work.
    """
    rng = random.Random(f"eval-small:{seed}")
    shape = random.Random("eval-small:shape")
    out = []
    for p in range(pages):
        truth = [make_measure(rng, f"m{i + 1}", 20, line_start=i % 5 == 0,
                              shape=shape)
                 for i in range(per_page)]
        renamed = p % 6 == 1
        kept = per_page - 2 if p % 6 == 4 else per_page
        modes = [_PAGE_MIX[i * len(_PAGE_MIX) // kept] for i in range(kept)]
        shape.shuffle(modes)
        pred, edits = [], []
        for t, mode in zip(truth, modes):
            new_id = f"r{len(pred) + 1}" if renamed else t.id
            relabels = rng.randint(1, 2) if mode == "relabel" else int(
                mode == "both")
            shifts = rng.randint(1, 2) if mode == "shift" else int(
                mode == "both")
            m, e = perturb(rng, t, new_id, relabels, shifts,
                           int(mode == "drop"), shape)
            pred.append(m)
            edits.append(e)
        edits += [None] * (per_page - kept)
        if renamed:
            pred.append(make_measure(rng, f"r{per_page + 1}", 20,
                                     shape=shape))
        out.append((truth, pred, edits))
    return _eval_corpus(out)


def eval_large(seed: int) -> Workload:
    """Three measures of about 100 nodes on one page, one of about 400 on
    another.

    Every prediction relabels at least one notehead, so neither TED pass
    can take the identity shortcut. The seed picks pitches, labels and the
    perturbed noteheads, but not the tree shapes, and the perturbations
    keep the shape: one or two TED pairs dominate this workload, and
    shapes alone set how much work they take, so every seed asks for the
    same work.
    """
    rng = random.Random(f"eval-large:{seed}")
    shape = random.Random("eval-large:shape")
    out = []
    for count, nodes in ((3, 100), (1, 400)):
        truth = [make_measure(rng, f"m{i + 1}", nodes, line_start=i == 0,
                              shape=shape) for i in range(count)]
        pred, edits = [], []
        for t in truth:
            m, e = perturb(rng, t, t.id, rng.randint(1, 3), rng.randint(1, 3),
                           0)
            pred.append(m)
            edits.append(e)
        out.append((truth, pred, edits))
    return _eval_corpus(out)


# ---------------------------------------------------------------------------
# MusicXML corpus for the convert workload.

_DIVISIONS = 12
_LETTERS = "CDEFGAB"


def _pitch(index: int) -> tuple[str, int]:
    return _LETTERS[index % 7], index // 7


class _Score:
    """MusicXML text for one two-staff piano part, with conversion facts."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.lines: list[str] = []
        self.noteheads = 0
        self.rests = 0

    def note(self, staff: int, voice: int, pitches: list[int], duration: int,
             ntype: str, *, dots: int = 0, beam: list[tuple[int, str]] = (),
             tuplet: str | None = None, tie: str | None = None,
             slur: str | None = None, accidental: bool = False,
             articulation: str | None = None) -> None:
        for k, index in enumerate(pitches):
            letter, octave = _pitch(index)
            parts = ["<note>"]
            if k:
                parts.append("<chord/>")
            alter = ""
            if accidental and k == 0:
                alter = "<alter>1</alter>"
            parts.append(f"<pitch><step>{letter}</step>{alter}"
                         f"<octave>{octave}</octave></pitch>")
            parts.append(f"<duration>{duration}</duration>")
            if tie:
                parts.append(f'<tie type="{tie}"/>')
            parts.append(f"<voice>{voice}</voice><type>{ntype}</type>")
            parts += ["<dot/>"] * dots
            if accidental and k == 0:
                parts.append("<accidental>sharp</accidental>")
            if tuplet is not None:
                parts.append("<time-modification><actual-notes>3"
                             "</actual-notes><normal-notes>2</normal-notes>"
                             "</time-modification>")
            parts.append(f"<staff>{staff}</staff>")
            if k == 0:
                for level, state in beam:
                    parts.append(f'<beam number="{level}">{state}</beam>')
            notations = []
            if tie:
                notations.append(f'<tied type="{tie}"/>')
            if k == 0 and tuplet in ("start", "stop"):
                notations.append(f'<tuplet type="{tuplet}"/>')
            if k == 0 and slur:
                notations.append(f'<slur type="{slur}" number="1"/>')
            if k == 0 and articulation:
                notations.append(f"<articulations><{articulation}/>"
                                 "</articulations>")
            if notations:
                parts.append("<notations>" + "".join(notations)
                             + "</notations>")
            parts.append("</note>")
            self.lines.append("".join(parts))
            self.noteheads += 1

    def rest(self, staff: int, voice: int, duration: int, ntype: str) -> None:
        self.lines.append(f"<note><rest/><duration>{duration}</duration>"
                          f"<voice>{voice}</voice><type>{ntype}</type>"
                          f"<staff>{staff}</staff></note>")
        self.rests += 1

    def upper_beat(self, low: int) -> None:
        """One beat of the right hand, voice 1, staff 1."""
        rng = self.rng
        pitch = lambda: rng.randint(low, low + 9)  # noqa: E731
        chord = lambda: sorted(rng.sample(range(low, low + 9),  # noqa: E731
                                          rng.randint(1, 3)))
        kind = rng.choices(("quarter", "eighths", "sixteenths", "triplet",
                            "rest"), weights=(3, 4, 2, 1, 1))[0]
        if kind == "rest":
            self.rest(1, 1, 12, "quarter")
        elif kind == "quarter":
            self.note(1, 1, chord(), 12, "quarter",
                      accidental=rng.random() < 0.2,
                      articulation=rng.choice((None, None, "staccato",
                                               "accent")))
        elif kind == "eighths":
            slur = rng.random() < 0.3
            self.note(1, 1, chord(), 6, "eighth", beam=[(1, "begin")],
                      slur="start" if slur else None)
            self.note(1, 1, chord(), 6, "eighth", beam=[(1, "end")],
                      slur="stop" if slur else None)
        elif kind == "sixteenths":
            states = ("begin", "continue", "continue", "end")
            for state in states:
                self.note(1, 1, [pitch()], 3, "16th",
                          beam=[(1, state), (2, state)],
                          accidental=rng.random() < 0.1)
        else:
            for i, state in enumerate(("begin", "continue", "end")):
                self.note(1, 1, [pitch()], 4, "eighth", beam=[(1, state)],
                          tuplet={0: "start", 2: "stop"}.get(i))

    def lower_bar(self, beats: int) -> None:
        """The left hand, voice 2, staff 2, filling `beats` quarters."""
        rng = self.rng
        left = beats
        while left > 0:
            choice = rng.random()
            index = rng.randint(15, 24)
            if left >= 2 and choice < 0.3:
                self.note(2, 2, [index, index + 4], 24, "half")
                left -= 2
            elif left >= 2 and choice < 0.45:
                self.note(2, 2, [index], 12, "quarter", tie="start")
                self.note(2, 2, [index], 12, "quarter", tie="stop")
                left -= 2
            elif left >= 2 and choice < 0.55:
                self.note(2, 2, [index], 18, "quarter", dots=1)
                self.note(2, 2, [index + 2], 6, "eighth")
                left -= 2
            elif choice < 0.85:
                self.note(2, 2, [index], 12, "quarter")
                left -= 1
            else:
                self.rest(2, 2, 12, "quarter")
                left -= 1


def _musicxml(rng: random.Random, measures: int) -> tuple[bytes, dict]:
    s = _Score(rng)
    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           '<score-partwise version="4.0">',
           '<part-list><score-part id="P1"><part-name>Piano</part-name>'
           '</score-part></part-list>', '<part id="P1">']
    beats = 4
    fifths = 0
    for number in range(1, measures + 1):
        out.append(f'<measure number="{number}">')
        if number > 1 and number % 4 == 1:
            out.append('<print new-system="yes"/>')
        attrs = []
        if number == 1:
            fifths = rng.randint(-3, 3)
            attrs = [f"<divisions>{_DIVISIONS}</divisions>",
                     f"<key><fifths>{fifths}</fifths></key>",
                     "<time><beats>4</beats><beat-type>4</beat-type></time>",
                     "<staves>2</staves>",
                     '<clef number="1"><sign>G</sign><line>2</line></clef>',
                     '<clef number="2"><sign>F</sign><line>4</line></clef>']
        elif rng.random() < 0.08:
            fifths = rng.choice([f for f in range(-4, 5) if f != fifths])
            attrs.append(f"<key><fifths>{fifths}</fifths></key>")
        if number > 1 and rng.random() < 0.08:
            beats = 7 - beats  # alternate 4/4 and 3/4
            attrs.append(f"<time><beats>{beats}</beats>"
                         "<beat-type>4</beat-type></time>")
        if attrs:
            out.append("<attributes>" + "".join(attrs) + "</attributes>")
        if rng.random() < 0.3:
            mark = rng.choice(("p", "mp", "mf", "f", "ff"))
            out.append(f"<direction><direction-type><dynamics><{mark}/>"
                       "</dynamics></direction-type><staff>1</staff>"
                       "</direction>")
        wedge = rng.random() < 0.2
        if wedge:
            out.append('<direction><direction-type><wedge type="crescendo" '
                       'number="1"/></direction-type><staff>1</staff>'
                       "</direction>")
        s.lines = []
        for _ in range(beats):
            s.upper_beat(rng.choice((28, 30, 32)))
        out += s.lines
        if wedge:
            out.append('<direction><direction-type><wedge type="stop" '
                       'number="1"/></direction-type><staff>1</staff>'
                       "</direction>")
        out.append(f"<backup><duration>{beats * _DIVISIONS}</duration>"
                   "</backup>")
        s.lines = []
        s.lower_bar(beats)
        out += s.lines
        if number == measures:
            out.append('<barline location="right"><bar-style>light-heavy'
                       "</bar-style></barline>")
        out.append("</measure>")
    out += ["</part>", "</score-partwise>", ""]
    facts = {"measures": measures, "noteheads": s.noteheads,
             "rests": s.rests}
    return "\n".join(out).encode("utf-8"), facts


_CONTAINER = (b'<?xml version="1.0" encoding="UTF-8"?>\n<container>'
              b'<rootfiles><rootfile full-path="score.xml"/></rootfiles>'
              b"</container>\n")


def _mxl(score: bytes) -> bytes:
    """A stored (uncompressed) .mxl archive with fixed timestamps, so its
    bytes do not depend on the zlib build."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        for name, data in (("META-INF/container.xml", _CONTAINER),
                           ("score.xml", score)):
            info = zipfile.ZipInfo(name, date_time=(2020, 1, 1, 0, 0, 0))
            zf.writestr(info, data)
    return buf.getvalue()


def convert_corpus(seed: int, files: int = 6,
                   measures: int = 400) -> Workload:
    """MusicXML files of two-staff piano music; every third is an .mxl.

    Chords, beams down to sixteenths, triplets, ties, slurs, dynamics,
    wedges, key and time changes and system breaks, all in forms the
    converter maps without a warning.
    """
    rng = random.Random(f"convert:{seed}")
    per_file = [measures // files + (1 if i < measures % files else 0)
                for i in range(files)]
    out: dict[str, bytes] = {}
    facts: dict[str, dict] = {}
    for i, count in enumerate(per_file):
        data, fact = _musicxml(rng, count)
        stem = f"score-{i + 1:02d}"
        if i % 3 == 2:
            out[f"{stem}.mxl"] = _mxl(data)
        else:
            out[f"{stem}.musicxml"] = data
        facts[stem] = fact
    return Workload(out, {"files": facts,
                          "measures": sum(per_file)})


def build(workload: str, seed: int) -> Workload:
    if workload == "eval-small":
        return eval_small(seed)
    if workload == "eval-large":
        return eval_large(seed)
    if workload == "convert":
        return convert_corpus(seed)
    raise ValueError(f"unknown workload {workload!r}")
