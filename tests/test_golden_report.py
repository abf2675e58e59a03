"""Golden corpus reports: the fixture corpus scored against predictions that
reach every tier-1 counting edge case.

The digests were taken before tier 1 moved from walking the rich model to
counting the projection's token leaves; any change to how tokens, nodes,
empty measures or synthetic attributes are counted shows here.
"""

import hashlib
import shutil
from pathlib import Path

from mtnkit.cli import main
from mtnkit.harness import (
    EvalConfig, evaluate_corpus, read_manifest, render_report, report_to_json,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SYNTHETIC_CLEF = (
    '      <attributes onset="0" synthetic="true">\n'
    '        <attr_staff>\n'
    '          <clef>\n'
    '            <token id="s1" label="clef_G" staff="1" step="4"/>\n'
    '          </clef>\n'
    '        </attr_staff>\n'
    '      </attributes>\n')

# file -> (old text, new text) edits, each applied exactly once.
EDITS = {
    "anthem.mtn.xml": [
        # relabelled tokens
        ('id="t8" label="notehead_black"', 'id="t8" label="notehead_white"'),
        ('id="t15" label="dyn_p"', 'id="t15" label="dyn_f"'),
        # step-shifted tokens
        ('id="t10" label="notehead_black" staff="1" step="7"',
         'id="t10" label="notehead_black" staff="1" step="9"'),
        ('id="t20" label="notehead_black" staff="1" step="6"',
         'id="t20" label="notehead_black" staff="1" step="5"'),
        # a token labelled like a node kind
        ('id="t28" label="barline_tok_regular"', 'id="t28" label="chord"'),
        # synthetic attributes: one truth block marked, one block added
        ('<measure id="m1" line_start="true">\n      <attributes onset="0">',
         '<measure id="m1" line_start="true">\n'
         '      <attributes onset="0" synthetic="true">'),
        ('<measure id="m2">\n', '<measure id="m2">\n' + SYNTHETIC_CLEF),
    ],
    "carol.mtn.xml": [
        # a chord whose note lost its notehead: m1 cannot be timed
        ('            <token id="t14" label="notehead_black" staff="1" '
         'step="8"/>\n', ''),
        # a dropped note group
        ('      <note_group onset="1">\n'
         '        <chord onset="1">\n'
         '          <stem>\n'
         '            <token id="t21" label="stem_up" staff="1"/>\n'
         '          </stem>\n'
         '          <note>\n'
         '            <token id="t22" label="notehead_black" staff="1" '
         'step="6"/>\n'
         '          </note>\n'
         '        </chord>\n'
         '      </note_group>\n', ''),
    ],
    "motif.mtn.xml": [
        # an empty chord node
        ('      <rest onset="0">', '      <chord onset="0"/>\n'
         '      <rest onset="0">'),
    ],
}


def perturbed_corpus(tmp_path) -> Path:
    pred = tmp_path / "pred"
    shutil.copytree(FIXTURES / "corpus", pred)
    for name, edits in EDITS.items():
        text = (pred / name).read_text(encoding="utf-8")
        for old, new in edits:
            assert text.count(old) == 1, (name, old)
            text = text.replace(old, new)
        (pred / name).write_text(text, encoding="utf-8")
    # an empty predicted measure
    etude = pred / "etude.mtn.xml"
    text = etude.read_text(encoding="utf-8")
    start = text.index('<measure id="m1" line_start="true">') + len(
        '<measure id="m1" line_start="true">')
    etude.write_text(text[:start] + text[text.index("</measure>"):],
                     encoding="utf-8")
    return pred


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# include_synthetic -> (JSON report, text report)
GOLDEN_REPORTS = {
    True: (
        "4f7bf8e9c5679d7ac1c011edf45a395c4dc2adf0e88984c6c65007603648da73",
        "28c2ca55fc7d90b6dbaa723b7065a38f412677e0acb03b5a3f5e9a061ec89271",
    ),
    False: (
        "31838ba6d526b4739c16831c636ed02220cbba53146b5b5f5095110503ef8a38",
        "0d14af154bec43365b929eb4af1a9df684256ff16bc855af78c7bf56083e5c1b",
    ),
}

# mtn stats flags -> stdout
GOLDEN_STATS = {
    (): "ccfacf3f500c5aca77ffd3a0b6ab531bfb7f6547ba45e05deb9db95ad227375d",
    ("--ignore-synthetic",):
        "58a97e7f44c2ef1f32093315623d79b4cd7b516213d6219d08503dfb173e45ed",
}


def test_golden_reports(tmp_path):
    pred = perturbed_corpus(tmp_path)
    entries = read_manifest(
        (FIXTURES / "manifest.jsonl").read_text(encoding="utf-8"))
    got = {}
    for include_synthetic in (True, False):
        report = evaluate_corpus(
            FIXTURES / "corpus", pred, entries,
            EvalConfig(include_synthetic=include_synthetic, per_measure=True))
        got[include_synthetic] = (sha(report_to_json(report)),
                                  sha(render_report(report)))
    assert got == GOLDEN_REPORTS


def test_golden_stats(tmp_path, capsys):
    pred = perturbed_corpus(tmp_path)
    got = {}
    for flags in GOLDEN_STATS:
        assert main(["stats", str(FIXTURES / "corpus"), str(pred),
                     *flags]) == 0
        got[flags] = sha(capsys.readouterr().out)
    assert got == GOLDEN_STATS
