"""End-to-end command tests through main(): exit codes and outputs."""

import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from builders import (
    barline, group, measure, simple_chord, standard_measure, standard_work,
    tok, work,
)
from mtnkit.cli import main
from mtnkit.harness import manifest_for_work, read_manifest, write_manifest
from mtnkit.model import validate
from mtnkit.perturb import relabel_fraction
from mtnkit.trees import project_tree
from mtnkit.xmlio import parse_work, serialize_work

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "fixtures" / "corpus"

MUSICXML = """<score-partwise version="4.0">
  <part-list><score-part id="P1"><part-name>x</part-name></score-part></part-list>
  <part id="P1"><measure number="1">
    <attributes><divisions>2</divisions>
      <key><fifths>0</fifths></key>
      <time><beats>4</beats><beat-type>4</beat-type></time>
      <clef><sign>G</sign><line>2</line></clef></attributes>
    <note><pitch><step>C</step><octave>4</octave></pitch>
      <duration>4</duration><type>half</type></note>
    <note><pitch><step>E</step><octave>4</octave></pitch>
      <duration>4</duration><type>half</type></note>
    <barline location="right"><bar-style>light-heavy</bar-style></barline>
  </measure></part>
</score-partwise>"""


def write_corpus(tmp_path, works):
    truth = tmp_path / "truth"
    pred = tmp_path / "pred"
    truth.mkdir()
    pred.mkdir()
    entries = []
    for w in works:
        name = f"{w.work_id}.mtn.xml"
        data = serialize_work(w)
        (truth / name).write_bytes(data)
        (pred / name).write_bytes(data)
        entries.extend(manifest_for_work(w, name))
    manifest = tmp_path / "corpus.jsonl"
    manifest.write_text(write_manifest(entries), encoding="utf-8")
    return truth, pred, manifest


# -- convert ------------------------------------------------------------------

def test_convert_writes_output_and_manifest(tmp_path, capsys):
    src = tmp_path / "tune.musicxml"
    src.write_text(MUSICXML, encoding="utf-8")
    out = tmp_path / "out"
    manifest = tmp_path / "corpus.jsonl"
    rc = main(["convert", str(src), "-o", str(out),
               "--manifest", str(manifest)])
    assert rc == 0
    target = out / "tune.mtn.xml"
    assert target.exists()
    w = parse_work(target.read_bytes())
    assert w.work_id == "tune"
    assert validate(w) == []
    entries = read_manifest(manifest.read_text(encoding="utf-8"))
    assert len(entries) == 1
    assert entries[0].measures == ("P1.1",)
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("names", [("a/x.musicxml", "b/x.musicxml"),
                                   ("x.musicxml", "x.mxl")])
def test_convert_duplicate_target_fails(tmp_path, capsys, names):
    sources = [tmp_path / name for name in names]
    for source in sources:
        source.parent.mkdir(exist_ok=True)
    sources[0].write_text(MUSICXML, encoding="utf-8")
    # the second input is no score at all: a convert would fail on it
    sources[1].write_text("not a score", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["convert", *map(str, sources), "-o", str(out)])
    assert rc == 2
    assert capsys.readouterr() == (
        "", f"error: two inputs map to the same output {out / 'x.mtn.xml'}\n")
    assert list(out.iterdir()) == []


def test_convert_missing_input(tmp_path, capsys):
    rc = main(["convert", str(tmp_path / "absent.musicxml"),
               "-o", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_convert_zero_divisions_is_usage_error(tmp_path, capsys):
    src = tmp_path / "tune.musicxml"
    src.write_text(MUSICXML.replace("<divisions>2<", "<divisions>0<"),
                   encoding="utf-8")
    rc = main(["convert", str(src), "-o", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "tune.musicxml" in err and "divisions must be a positive" in err
    assert "Traceback" not in err


def test_convert_bad_staff_names_file_and_element(tmp_path, capsys):
    good = tmp_path / "good.musicxml"
    good.write_text(MUSICXML, encoding="utf-8")
    bad = tmp_path / "bad.musicxml"
    bad.write_text(MUSICXML.replace(
        "<duration>4</duration><type>half</type></note>",
        "<duration>4</duration><type>half</type><staff>x</staff></note>", 1),
        encoding="utf-8")
    rc = main(["convert", str(good), str(bad), "-o", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (f"error: {bad}: part P1 measure 1: <staff> must be an "
                   "integer, got 'x'\n")


@pytest.mark.parametrize("old, new, element", [
    ("<step>E</step>", "<step>H</step>", "step"),
    ("<pitch><step>C</step><octave>4</octave></pitch>",
     "<unpitched><display-step>H</display-step>"
     "<display-octave>4</display-octave></unpitched>", "display-step"),
], ids=["step", "display-step"])
def test_convert_bad_pitch_letter_names_file_and_element(tmp_path, capsys,
                                                         old, new, element):
    bad = tmp_path / "bad.musicxml"
    assert old in MUSICXML
    bad.write_text(MUSICXML.replace(old, new), encoding="utf-8")
    rc = main(["convert", str(bad), "-o", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: part P1 measure 1: <{element}> must be one of A-G, "
        "got 'H'\n")


def test_convert_negative_duration_is_a_bad_duration(tmp_path, capsys):
    fixture = (Path(__file__).resolve().parent.parent / "fixtures"
               / "musicxml" / "simple.musicxml").read_text(encoding="utf-8")
    negated = re.sub(r"<duration>(\d+)</duration>",
                     r"<duration>-\1</duration>", fixture)
    assert negated != fixture
    src = tmp_path / "neg.musicxml"
    src.write_text(negated, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["convert", str(src), "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.count("neg.musicxml: part P1 measure 1: missing or bad "
                     "duration in <note>\n") == negated.count("<duration>")
    assert validate(parse_work((out / "neg.mtn.xml").read_bytes())) == []


def test_convert_duplicated_part_id_is_usage_error(tmp_path, capsys):
    part = re.search(r"<part id=.*?</part>", MUSICXML, re.S)
    src = tmp_path / "twice.musicxml"
    src.write_text(MUSICXML[:part.end()] + part.group(0)
                   + MUSICXML[part.end():], encoding="utf-8")
    rc = main(["convert", str(src), "-o", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {src}: part id 'P1' is used by more than one part\n")


def test_convert_corrupt_mxl_is_usage_error(tmp_path, capsys):
    import zipfile
    mxl = tmp_path / "tune.mxl"
    with zipfile.ZipFile(mxl, "w", zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("tune.xml", MUSICXML)
    data = bytearray(mxl.read_bytes())
    data[30 + len("tune.xml")] ^= 0xFF  # first byte of the deflated member
    mxl.write_bytes(bytes(data))
    rc = main(["convert", str(mxl), "-o", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        f"error: {mxl}: archive member 'tune.xml' is corrupt: Error -3 "
        "while decompressing data")


# -- validate -----------------------------------------------------------------

def test_validate_clean_file(tmp_path):
    p = tmp_path / "good.mtn.xml"
    p.write_bytes(serialize_work(standard_work()))
    assert main(["validate", str(p)]) == 0


def test_validate_reports_violations(tmp_path, capsys):
    w = work(measure(
        group(simple_chord(0, 0, extras=(tok("slur_start", pair="q1"),))),
        group(simple_chord(2, 1, extras=(tok("slur_stop", pair="q1"),))),
        id="m1"))
    data = serialize_work(w)
    hit = re.search(rb' pair="[^"]+"', data)
    broken = data[:hit.start()] + data[hit.end():]
    p = tmp_path / "bad.mtn.xml"
    p.write_bytes(broken)
    rc = main(["validate", str(p)])
    assert rc == 1
    assert "pair" in capsys.readouterr().out


def test_validate_onset_bound_warns(tmp_path, capsys):
    w = work(measure(group(simple_chord(0, 100)),
                     barline(onset=104), id="m1"))
    p = tmp_path / "far.mtn.xml"
    p.write_bytes(serialize_work(w))
    rc = main(["validate", str(p), "--max-onset", "32"])
    captured = capsys.readouterr()
    assert rc == 0  # a warning, not a violation
    assert "exceeds 32" in captured.err
    assert main(["validate", str(p)]) == 0


def test_validate_walks_directories(tmp_path):
    (tmp_path / "nest").mkdir()
    p = tmp_path / "nest" / "w.mtn.xml"
    p.write_bytes(serialize_work(standard_work()))
    assert main(["validate", str(tmp_path)]) == 0


def test_validate_shipped_fixture_corpus():
    assert main(["validate", str(CORPUS)]) == 0


def test_validate_unparseable_is_usage_error(tmp_path, capsys):
    p = tmp_path / "junk.mtn.xml"
    p.write_text("<broken", encoding="utf-8")
    rc = main(["validate", str(p)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "stats", "diff", "perturb"])
def test_format_error_names_the_file(tmp_path, capsys, command):
    source = (CORPUS / "anthem.mtn.xml").read_text(encoding="utf-8")
    signed = source.replace('staff_count="1"', 'staff_count="+1"', 1)
    assert signed != source
    bad = tmp_path / "anthem.mtn.xml"
    bad.write_text(signed, encoding="utf-8")
    args = {
        "validate": [str(bad)],
        "stats": [str(bad)],
        "diff": [str(bad), str(CORPUS / "anthem.mtn.xml")],
        "perturb": [str(bad), "-o", str(tmp_path / "out.mtn.xml"),
                    "--fraction", "1/2",
                    "--relabel", "notehead_black:notehead_white"],
    }[command]
    assert main([command, *args]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: bad staff_count '+1' on <part> (line 3, column 3)\n")


# -- stats --------------------------------------------------------------------

def test_stats_histogram(tmp_path, capsys):
    p = tmp_path / "w.mtn.xml"
    p.write_bytes(serialize_work(standard_work()))
    rc = main(["stats", str(p)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "notehead_black" in out
    assert "total" in out
    assert "measures" in out


def test_stats_without_tokens(tmp_path, capsys):
    p = tmp_path / "empty.mtn.xml"
    p.write_bytes(serialize_work(work(measure(id="m1"))))
    assert main(["stats", str(p)]) == 0
    assert capsys.readouterr().out == "no tokens found\n"


# -- evaluate -----------------------------------------------------------------

def test_evaluate_writes_json_report(tmp_path, capsys):
    works = [standard_work(), work(standard_measure(), work_id="other")]
    truth, pred, manifest = write_corpus(tmp_path, works)
    report_path = tmp_path / "report.json"
    rc = main(["evaluate", "--pred", str(pred), "--truth", str(truth),
               "--manifest", str(manifest), "-o", str(report_path)])
    assert rc == 0
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    assert doc["coverage"]["ratio"] == "1"
    assert doc["tier2"]["ter"] == "0"
    out = capsys.readouterr().out
    assert "Coverage" in out
    assert "TER" in out


def test_evaluate_quiet_prints_nothing(tmp_path, capsys):
    truth, pred, manifest = write_corpus(tmp_path, [standard_work()])
    rc = main(["evaluate", "--pred", str(pred), "--truth", str(truth),
               "--manifest", str(manifest), "--quiet"])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_evaluate_jobs_agree(tmp_path, capsys):
    truth, pred, manifest = write_corpus(
        tmp_path, [standard_work(), work(standard_measure(), work_id="o")])
    paths = []
    for jobs in ("1", "2"):
        out = tmp_path / f"report{jobs}.json"
        rc = main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                   "--manifest", str(manifest), "--jobs", jobs,
                   "--quiet", "-o", str(out)])
        assert rc == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_evaluate_bad_tier_list(tmp_path, capsys):
    truth, pred, manifest = write_corpus(tmp_path, [standard_work()])
    rc = main(["evaluate", "--pred", str(pred), "--truth", str(truth),
               "--manifest", str(manifest), "--tiers", "4"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


EVALUATE_ARGS = ["evaluate", "--pred", str(CORPUS), "--truth", str(CORPUS),
                 "--manifest", str(ROOT / "fixtures" / "manifest.jsonl")]
PERTURB_ARGS = ["perturb", str(CORPUS / "anthem.mtn.xml")]
USAGE_ERRORS = {
    "evaluate": (["--tiers", "x"], "bad tier list 'x'"),
    "evaluate-tiers-arabic-digit": (["--tiers", "1,٢"],
                                    "bad tier list '1,٢'"),
    "evaluate-jobs-arabic-digit": (
        ["--jobs", "٢"], "--jobs wants an integer of at least 1, not '٢'"),
    "evaluate-jobs-0": (
        ["--jobs", "0"], "--jobs wants an integer of at least 1, not '0'"),
    "evaluate-jobs-x": (
        ["--jobs", "x"], "--jobs wants an integer of at least 1, not 'x'"),
    "perturb": (["--fraction", "1/2", "--shift-step", "notehead_black"],
                "--shift-step wants LABEL:DELTA"),
    "perturb-delta-arabic-digit": (
        ["--fraction", "1/2", "--shift-step", "notehead_black:٤"],
        "--shift-step wants LABEL:DELTA"),
    "perturb-delta-x": (
        ["--fraction", "1/2", "--shift-step", "notehead_black:x"],
        "--shift-step wants LABEL:DELTA"),
    "perturb-fraction-arabic-digit": (
        ["--fraction", "٣/4", "--shift-step", "notehead_black:1"],
        "--fraction wants a fraction such as 1/2, not '٣/4'"),
    "perturb-fraction-x": (
        ["--fraction", "x", "--relabel", "notehead_black:notehead_white"],
        "--fraction wants a fraction such as 1/2, not 'x'"),
    "perturb-fraction-over-0": (
        ["--fraction", "1/0", "--relabel", "notehead_black:notehead_white"],
        "--fraction wants a fraction such as 1/2, not '1/0'"),
    "validate-max-onset-x": (
        ["--max-onset", "x"],
        "--max-onset wants a fraction such as 1/2, not 'x'"),
}


@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_usage_error_names_the_option(tmp_path, capsys, case):
    argv, message = USAGE_ERRORS[case]
    out = tmp_path / "out.mtn.xml"
    command = case.split("-")[0]
    prefix = {"evaluate": EVALUATE_ARGS,
              "perturb": PERTURB_ARGS + ["-o", str(out)],
              "validate": ["validate", str(CORPUS)]}[command]
    assert main([*prefix, *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_evaluate_tier2_prints_only_the_ter_column(tmp_path, capsys):
    truth, pred, manifest = write_corpus(tmp_path, [standard_work()])
    rc = main(["evaluate", "--pred", str(pred), "--truth", str(truth),
               "--manifest", str(manifest), "--tiers", "2"])
    assert rc == 0
    assert capsys.readouterr().out.split("\n")[1:] == [
        "", "   TER", " 0.000", ""]


def test_evaluate_missing_manifest(tmp_path, capsys):
    rc = main(["evaluate", "--pred", str(tmp_path), "--truth", str(tmp_path),
               "--manifest", str(tmp_path / "absent.jsonl")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# Every command is a fresh interpreter, so a command must not pay for
# modules it does not run: evaluate for the converter, the perturber or a
# process pool, and neither evaluate nor convert for dataclasses, which
# imports inspect.
IN_A_FRESH_INTERPRETER = """
import sys
from mtnkit.cli import main
rc = main(sys.argv[2:])
print(rc, [name for name in sys.argv[1].split(",") if name in sys.modules])
"""


PINNABLE = hasattr(os, "sched_setaffinity")


def on_one_cpu() -> None:
    """A preexec_fn: the child, and only the child, runs on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def fresh_mtn(unused: tuple[str, ...], argv: list[str], one_cpu: bool = False,
              cwd: Path | None = None) -> subprocess.CompletedProcess:
    """`mtn argv` run in a fresh interpreter, on one CPU if one_cpu. The
    last line it prints holds its exit code and which of the unused
    modules it loaded."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", IN_A_FRESH_INTERPRETER, ",".join(unused),
         *argv], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=60, preexec_fn=on_one_cpu if one_cpu else None)
    assert done.returncode == 0, done.stderr
    return done


def loaded_modules(unused: tuple[str, ...], argv: list[str],
                   one_cpu: bool = False) -> str:
    """The exit code of `mtn argv` in a fresh interpreter and which of the
    unused modules it loaded, as the last line it prints."""
    return fresh_mtn(unused, argv, one_cpu).stdout.splitlines()[-1]


def test_evaluate_imports_only_what_it_runs():
    unused = ("mtnkit.musicxml", "mtnkit.perturb", "concurrent.futures",
              "multiprocessing", "dataclasses", "inspect")
    assert loaded_modules(unused, [
        "evaluate", "--pred", str(CORPUS), "--truth", str(CORPUS),
        "--manifest", str(ROOT / "fixtures" / "manifest.jsonl"),
        "--jobs", "1", "--quiet"]) == "0 []"


def test_convert_imports_only_what_it_runs(tmp_path):
    unused = ("dataclasses", "inspect", "mtnkit.perturb", "concurrent.futures",
              "mtnkit.ted", "mtnkit.metrics", "mtnkit.trees", "mtnkit.timing")
    assert loaded_modules(unused, [
        "convert", str(ROOT / "fixtures" / "musicxml" / "simple.musicxml"),
        "-o", str(tmp_path)]) == "0 []"


@pytest.mark.skipif(not PINNABLE, reason="needs os.sched_setaffinity")
def test_convert_on_one_cpu_starts_no_pool(tmp_path):
    musicxml = ROOT / "fixtures" / "musicxml"
    assert loaded_modules(("concurrent.futures", "multiprocessing"), [
        "convert", str(musicxml / "simple.musicxml"),
        str(musicxml / "torture.musicxml"), "-o", str(tmp_path)],
        one_cpu=True) == "0 []"


@pytest.mark.parametrize("name, options", [
    ("simple.musicxml", ["--work-id", "w\x1bx"]),
    ("a\udcffb.musicxml", []),  # a file name holding the byte 0xFF
], ids=["escape-in-work-id", "undecodable-file-name"])
def test_convert_refuses_a_work_id_xml_cannot_hold(tmp_path, name, options):
    src = tmp_path / name
    try:
        src.write_bytes((ROOT / "fixtures" / "musicxml"
                         / "simple.musicxml").read_bytes())
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses this file name")
    out = tmp_path / "out"
    # In a fresh interpreter, whose stderr escapes what UTF-8 cannot encode.
    done = fresh_mtn((), ["convert", str(src), "-o", str(out), *options])
    assert done.stdout.splitlines()[-1] == "2 []"
    work_id = options[1] if options else "a\udcffb"
    expected = (
        f"error: {src}: conversion produced an invalid work: [xml-char] "
        f"{work_id!r}: work_id holds U+{ord(work_id[1]):04X}, which XML 1.0 "
        "cannot hold\n")
    assert done.stderr == expected.encode("utf-8", "backslashreplace").decode()
    assert list(out.iterdir()) == []


def convert_in_fresh_interpreter(cwd: Path, inputs: list[Path],
                                 one_cpu: bool) -> tuple:
    """`mtn convert INPUTS -o out --manifest out/manifest.jsonl` run in cwd:
    its exit code and whether it loaded a process pool, then its stdout,
    its stderr and the bytes of each file it wrote."""
    cwd.mkdir()
    done = fresh_mtn(("concurrent.futures",), [
        "convert", *map(str, inputs), "-o", "out",
        "--manifest", "out/manifest.jsonl"], one_cpu, cwd)
    *printed, last = done.stdout.splitlines(keepends=True)
    out = cwd / "out"
    files = ({path.name: path.read_bytes() for path in out.iterdir()}
             if out.is_dir() else {})
    return last, "".join(printed), done.stderr, files


def pooled_and_alone(tmp_path, inputs: list[Path]) -> tuple:
    """A convert of inputs by default, in a process pool, and one pinned to
    one CPU, in one process: (exit code line, stdout, stderr, files) of
    each, after checking that the two agree on all but the pool."""
    pooled = convert_in_fresh_interpreter(tmp_path / "pooled", inputs, False)
    alone = convert_in_fresh_interpreter(tmp_path / "alone", inputs, True)
    rc = pooled[0].split()[0]
    assert (pooled[0], alone[0]) == (f"{rc} ['concurrent.futures']\n",
                                     f"{rc} []\n")
    assert pooled[1:] == alone[1:]
    return alone


MANY_CPUS = PINNABLE and len(os.sched_getaffinity(0)) > 1
needs_many_cpus = pytest.mark.skipif(
    not MANY_CPUS, reason="needs os.sched_setaffinity and two or more CPUs")


@needs_many_cpus
def test_parallel_convert_matches_one_process(tmp_path):
    import zipfile
    musicxml = ROOT / "fixtures" / "musicxml"
    inputs = tmp_path / "in"
    inputs.mkdir()
    packed = inputs / "packed.mxl"
    with zipfile.ZipFile(packed, "w", zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("packed.xml", (musicxml / "simple.musicxml").read_bytes())
    # a slur that never stops and two articulations the converter cannot
    # hold draw warnings from a copy of the torture fixture
    torture = (musicxml / "torture.musicxml").read_text(encoding="utf-8")
    warned = inputs / "warned.musicxml"
    warned.write_text(torture.replace(
        '<tuplet type="start"/>', '<tuplet type="start"/><slur type="start"/>'
        "<articulations><breath-mark/><doit/></articulations>"),
        encoding="utf-8")
    last, stdout, stderr, files = pooled_and_alone(tmp_path, [
        musicxml / "simple.musicxml", musicxml / "torture.musicxml", packed,
        warned])
    assert last.startswith("0 ")
    assert sorted(files) == ["manifest.jsonl", "packed.mtn.xml",
                             "simple.mtn.xml", "torture.mtn.xml",
                             "warned.mtn.xml"]
    assert stdout.splitlines() == [f"wrote out/{name}" for name in (
        "simple.mtn.xml", "torture.mtn.xml", "packed.mtn.xml",
        "warned.mtn.xml", "manifest.jsonl")]
    assert "warned.musicxml: " in stderr and "<doit>" in stderr


@needs_many_cpus
@pytest.mark.parametrize("failing", ["bad", "missing"])
def test_parallel_convert_stops_where_one_process_does(tmp_path, failing):
    inputs = tmp_path / "in"
    inputs.mkdir()
    for name in ("first", "third"):
        (inputs / f"{name}.musicxml").write_text(MUSICXML, encoding="utf-8")
    second = inputs / "second.musicxml"
    if failing == "bad":
        second.write_text(MUSICXML.replace(
            "<type>half</type></note>",
            "<type>half</type><staff>x</staff></note>", 1), encoding="utf-8")
        error = (f"error: {second}: part P1 measure 1: <staff> must be an "
                 "integer, got 'x'\n")
    else:
        error = f"error: [Errno 2] No such file or directory: '{second}'\n"
    last, stdout, stderr, files = pooled_and_alone(tmp_path, [
        inputs / "first.musicxml", second, inputs / "third.musicxml"])
    assert last.startswith("2 ")
    assert (stdout, stderr) == ("wrote out/first.mtn.xml\n", error)
    assert list(files) == ["first.mtn.xml"]


def test_evaluate_report_does_not_follow_the_hash_seed(tmp_path):
    # The rejection warning, which names one missing attribute, goes into
    # the report; set order differs between these two seeds.
    pred = tmp_path / "pred"
    pred.mkdir()
    for source in CORPUS.glob("*.mtn.xml"):
        (pred / source.name).write_bytes(source.read_bytes())
    anthem = pred / "anthem.mtn.xml"
    text = anthem.read_text(encoding="utf-8")
    stripped = text.replace('<token id="t1" label="clef_G" staff="1"',
                            '<token label="clef_G"')
    assert stripped != text
    anthem.write_text(stripped, encoding="utf-8")
    reports = []
    for seed in ("1", "2"):
        out = tmp_path / f"report{seed}.json"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
               "PYTHONHASHSEED": seed}
        done = subprocess.run(
            [sys.executable, "-m", "mtnkit.cli", "evaluate",
             "--pred", str(pred), "--truth", str(CORPUS),
             "--manifest", str(ROOT / "fixtures" / "manifest.jsonl"),
             "--quiet", "-o", str(out)],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["warnings"] == [
        "prediction file anthem.mtn.xml rejected: <token> is missing "
        "attribute 'id' (line 8, column 13)"]


# -- diff ---------------------------------------------------------------------

def test_diff_identical_files(tmp_path, capsys):
    data = serialize_work(standard_work())
    a = tmp_path / "a.mtn.xml"
    b = tmp_path / "b.mtn.xml"
    a.write_bytes(data)
    b.write_bytes(data)
    rc = main(["diff", str(b), str(a)])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_diff_reports_relabels(tmp_path, capsys):
    truth = standard_work()
    pred, changed = relabel_fraction(truth, "notehead_black",
                                     "notehead_white", Fraction(1))
    assert changed > 0
    t = tmp_path / "truth.mtn.xml"
    p = tmp_path / "pred.mtn.xml"
    t.write_bytes(serialize_work(truth))
    p.write_bytes(serialize_work(pred))
    rc = main(["diff", str(p), str(t)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "relabel notehead_black -> notehead_white" in out
    assert "cost" in out and "TER" in out


def test_diff_single_relabel_prints_one_substitution(tmp_path, capsys):
    source = CORPUS / "motif.mtn.xml"
    motif = parse_work(source.read_bytes())
    relabeled, changed = relabel_fraction(motif, "dyn_p", "dyn_f",
                                          Fraction(1))
    assert changed == 1
    p = tmp_path / "pred.mtn.xml"
    p.write_bytes(serialize_work(relabeled))
    rc = main(["diff", str(p), str(source)])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.count("relabel") == 1
    assert "relabel dyn_p -> dyn_f" in out


def test_diff_missing_measure(tmp_path, capsys):
    truth = standard_work()
    pred = work(standard_measure(), work_id=truth.work_id)
    t = tmp_path / "truth.mtn.xml"
    p = tmp_path / "pred.mtn.xml"
    t.write_bytes(serialize_work(truth))
    p.write_bytes(serialize_work(pred))
    rc = main(["diff", str(p), str(t)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "missing from prediction" in out


def test_diff_extra_measure(tmp_path, capsys):
    pred = standard_work()
    truth = work(standard_measure(), work_id=pred.work_id)
    t = tmp_path / "truth.mtn.xml"
    p = tmp_path / "pred.mtn.xml"
    t.write_bytes(serialize_work(truth))
    p.write_bytes(serialize_work(pred))
    assert main(["diff", str(p), str(t)]) == 1
    assert capsys.readouterr().out == "m2: only in prediction\n"


def test_diff_unparseable_input(tmp_path, capsys):
    t = tmp_path / "t.mtn.xml"
    t.write_text("<broken", encoding="utf-8")
    rc = main(["diff", str(t), str(t)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# Edits to the fixture anthem's m1 that leave an event tier 3 cannot
# place: (text, its replacement, the timing error).
UNTIMEABLE = {
    "notehead": ('            <token id="t4" label="notehead_black" '
                 'staff="1" step="4"/>\n', "", "chord has no noteheads"),
    "onset": ('<chord onset="1/2">', "<chord>", "chord has no onset"),
    "step": ('<token id="t6" label="notehead_black" staff="1" step="5"/>',
             '<token id="t6" label="notehead_black" staff="1"/>',
             "notehead has no step"),
}


def untimeable_pair(tmp_path, case="notehead"):
    """Truth fixture and a copy whose m1 had one UNTIMEABLE edit (by
    default its first chord lost its notehead t4)."""
    text, replacement, _ = UNTIMEABLE[case]
    truth = tmp_path / "truth"
    pred = tmp_path / "pred"
    truth.mkdir()
    pred.mkdir()
    source = (CORPUS / "anthem.mtn.xml").read_text(encoding="utf-8")
    (truth / "anthem.mtn.xml").write_text(source, encoding="utf-8")
    edited = source.replace(text, replacement, 1)
    assert source.index(text) < source.index('<measure id="m2"')
    (pred / "anthem.mtn.xml").write_text(edited, encoding="utf-8")
    return truth, pred


def test_diff_untimeable_prediction_still_scripts(tmp_path, capsys):
    truth, pred = untimeable_pair(tmp_path)
    rc = main(["diff", str(pred / "anthem.mtn.xml"),
               str(truth / "anthem.mtn.xml")])
    assert rc == 1
    assert capsys.readouterr().out == (
        "m1: cost 1 over 37 truth nodes (TER 0.027)\n"
        "  missing notehead_black\n")


@pytest.mark.parametrize("case", sorted(UNTIMEABLE))
def test_semantic_diff_rejects_untimeable(tmp_path, capsys, case):
    truth, pred = untimeable_pair(tmp_path, case)
    # Either side may be the untimeable one; the error names it.
    for args, side in (([pred, truth], "prediction"),
                       ([truth, pred], "truth")):
        assert main(["diff", "--semantic"]
                    + [str(d / "anthem.mtn.xml") for d in args]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {side} anthem.mtn.xml: measure m1 cannot be timed: "
            f"{UNTIMEABLE[case][2]}\n")
        assert captured.out == ""


def anthem_manifest(tmp_path, truth):
    manifest = tmp_path / "corpus.jsonl"
    manifest.write_text(write_manifest(manifest_for_work(
        parse_work((truth / "anthem.mtn.xml").read_bytes()),
        "anthem.mtn.xml")), encoding="utf-8")
    return manifest


def _evaluate_json(truth, pred, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["evaluate", "--pred", str(pred), "--truth", str(truth),
               "--manifest", str(anthem_manifest(tmp_path, truth)),
               "--out", str(out), "--quiet"])
    return rc, json.loads(out.read_text(encoding="utf-8"))


def test_evaluate_scores_an_untimeable_prediction(tmp_path, capsys):
    truth, pred = untimeable_pair(tmp_path)
    rc, report = _evaluate_json(truth, truth, tmp_path)
    assert rc == 0
    capsys.readouterr()
    rc, degraded = _evaluate_json(truth, pred, tmp_path)
    assert rc == 0
    warning = ("prediction anthem.mtn.xml: measure m1 not timed, its truth "
               "events count as missed: chord has no noteheads")
    assert capsys.readouterr().err == f"warning: {warning}\n"
    assert degraded["warnings"] == [warning]
    # Tiers 1 and 2 still score m1: one notehead is missing.
    assert degraded["tier2"]["edit_cost"] == "1"
    assert degraded["tier1"]["classes"]["notehead_black"]["predicted"] == (
        report["tier1"]["classes"]["notehead_black"]["predicted"] - 1)
    # Tier 3: m1's truth events are all missed, its prediction adds none.
    m1 = project_tree(parse_work(
        (truth / "anthem.mtn.xml").read_bytes()).parts[0].measures[0])
    m1_events = sum(1 for n in m1.nodes if n.meta is not None)
    t3, full = degraded["tier3"], report["tier3"]
    assert t3["truth_events"] == full["truth_events"]
    assert t3["predicted_events"] == full["predicted_events"] - m1_events
    assert t3["matched"] == full["matched"] - m1_events


@pytest.mark.parametrize("case", sorted(UNTIMEABLE))
def test_evaluate_rejects_an_untimeable_truth(tmp_path, capsys, case):
    truth, pred = untimeable_pair(tmp_path, case)
    # Two pages, so that --jobs 2 runs them on the process pool.
    (entry,) = read_manifest(
        anthem_manifest(tmp_path, truth).read_text(encoding="utf-8"))
    manifest = tmp_path / "two-pages.jsonl"
    manifest.write_text(write_manifest(
        [entry, entry._replace(page="2")]), encoding="utf-8")
    for jobs in ("1", "2"):
        assert main(["evaluate", "--pred", str(truth), "--truth", str(pred),
                     "--manifest", str(manifest), "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: truth anthem.mtn.xml: measure m1 cannot be timed: "
            f"{UNTIMEABLE[case][2]}\n")
        assert captured.out == ""


@pytest.mark.parametrize("tiers", ["1", "2", "3", "1,2", "1,3", "2,3",
                                   "1,2,3"])
def test_an_untimeable_truth_stops_only_a_run_that_asks_for_tier_3(
        tmp_path, capsys, tiers):
    # motif's only rest holds a dot instead of its rest token
    truth = tmp_path / "truth"
    shutil.copytree(CORPUS, truth)
    motif = truth / "motif.mtn.xml"
    text = motif.read_text(encoding="utf-8")
    assert text.count('label="rest_quarter"') == 1
    motif.write_text(text.replace('label="rest_quarter"', 'label="dot"'),
                     encoding="utf-8")
    out = tmp_path / "report.json"
    rc = main(["evaluate", "--pred", str(CORPUS), "--truth", str(truth),
               "--manifest", str(ROOT / "fixtures" / "manifest.jsonl"),
               "--tiers", tiers, "--per-measure", "--quiet", "-o", str(out)])
    captured = capsys.readouterr()
    if "3" in tiers:
        assert rc == 2
        assert captured.err == (
            "error: truth motif.mtn.xml: measure m1 cannot be timed: "
            "rest node has no rest token\n")
        assert not out.exists()
        return
    assert (rc, captured.err) == (0, "")
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["coverage"]["matched"] == 6
    if "1" in tiers:
        assert doc["tier1"]["classes"]["dot"]["truth"] == 1
    if "2" in tiers:
        # the dot and the rest token are one relabel apart
        (row,) = [r for r in doc["tier2"]["per_measure"]
                  if r["cost"] != "0"]
        assert row["cost"] == "1"


@pytest.mark.parametrize("case", ["onset", "step"])
def test_evaluate_warns_on_a_prediction_event_with_no_onset_or_step(
        tmp_path, capsys, case):
    truth, pred = untimeable_pair(tmp_path, case)
    rc, report = _evaluate_json(truth, truth, tmp_path)
    capsys.readouterr()
    rc, degraded = _evaluate_json(truth, pred, tmp_path)
    assert rc == 0
    warning = ("prediction anthem.mtn.xml: measure m1 not timed, its truth "
               f"events count as missed: {UNTIMEABLE[case][2]}")
    assert capsys.readouterr().err == f"warning: {warning}\n"
    assert degraded["warnings"] == [warning]
    # m1's events are not scored at an onset or a step of 0.
    m1 = project_tree(parse_work(
        (truth / "anthem.mtn.xml").read_bytes()).parts[0].measures[0])
    m1_events = sum(1 for n in m1.nodes if n.meta is not None)
    t3, full = degraded["tier3"], report["tier3"]
    assert t3["matched"] == full["matched"] - m1_events
    assert t3["time_shift"] == t3["pitch_shift"] == "0"


def mixed_onset_clefs(tmp_path):
    """Truth fixture and a copy whose m1 attr_staff holds two clefs, only
    the first with an onset (which clefs must not carry)."""
    truth = tmp_path / "truth"
    pred = tmp_path / "pred"
    truth.mkdir()
    pred.mkdir()
    source = (CORPUS / "anthem.mtn.xml").read_text(encoding="utf-8")
    (truth / "anthem.mtn.xml").write_text(source, encoding="utf-8")
    clef = ('          <clef>\n'
            '            <token id="t1" label="clef_G" staff="1" step="4"/>\n'
            '          </clef>\n')
    assert source.count(clef) == 1
    (pred / "anthem.mtn.xml").write_text(source.replace(
        clef, clef.replace("<clef>", '<clef onset="1">')
        + clef.replace('id="t1"', 'id="t1b"')), encoding="utf-8")
    return truth, pred


def test_validate_reports_a_clef_onset_beside_a_plain_clef(tmp_path, capsys):
    _, pred = mixed_onset_clefs(tmp_path)
    assert main(["validate", str(pred / "anthem.mtn.xml")]) == 1
    assert "[onset-not-allowed] m1/0/0/" in capsys.readouterr().out


def test_evaluate_scores_a_clef_onset_beside_a_plain_clef(tmp_path, capsys):
    truth, pred = mixed_onset_clefs(tmp_path)
    rc, report = _evaluate_json(truth, pred, tmp_path)
    assert rc == 0
    # The second clef node and its token are the only differences.
    assert report["tier1"]["classes"]["clef_G"]["predicted"] == 2
    assert report["tier2"]["edit_cost"] == "2"


def test_deep_nesting_is_a_format_error(tmp_path, capsys):
    from test_xmlio import nested_groups
    truth = tmp_path / "truth"
    pred = tmp_path / "pred"
    truth.mkdir()
    pred.mkdir()
    (truth / "w.mtn.xml").write_text(nested_groups(4), encoding="utf-8")
    deep = pred / "w.mtn.xml"
    deep.write_text(nested_groups(3000), encoding="utf-8")
    for argv in (["validate", str(deep)],
                 ["diff", str(deep), str(truth / "w.mtn.xml")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {deep}: <note_group> nested deeper than 100 nodes "
            "(line 1, ")
    manifest = tmp_path / "corpus.jsonl"
    manifest.write_text(write_manifest(manifest_for_work(
        parse_work((truth / "w.mtn.xml").read_bytes()), "w.mtn.xml")),
        encoding="utf-8")
    assert main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                 "--manifest", str(manifest), "--quiet"]) == 0
    assert capsys.readouterr().err.startswith(
        "warning: prediction file w.mtn.xml rejected: <note_group> nested "
        "deeper than 100 nodes")


def test_diff_runs_one_edit_distance_per_differing_measure(
        tmp_path, capsys, monkeypatch):
    # Counted wherever diff could reach it, so a second (TER) run would show.
    import mtnkit.metrics as metrics
    import mtnkit.ted as ted
    calls = []
    real = ted.tree_edit_distance

    def counting(a, b, costs):
        calls.append(costs)
        return real(a, b, costs)

    monkeypatch.setattr(ted, "tree_edit_distance", counting)
    monkeypatch.setattr(metrics, "tree_edit_distance", counting)
    truth = standard_work(n_measures=3)
    pred, changed = relabel_fraction(truth, "notehead_black",
                                     "notehead_white", Fraction(1))
    assert changed == 6
    t = tmp_path / "truth.mtn.xml"
    p = tmp_path / "pred.mtn.xml"
    t.write_bytes(serialize_work(truth))
    p.write_bytes(serialize_work(pred))
    assert main(["diff", str(p), str(t)]) == 1
    assert capsys.readouterr().out.count("truth nodes") == 3
    assert len(calls) == 3


# -- perturb ------------------------------------------------------------------

def perturb_input(tmp_path, n=10):
    chords = [group(simple_chord(k % 8, k)) for k in range(n)]
    w = work(measure(*chords, id="m1"))
    p = tmp_path / "in.mtn.xml"
    p.write_bytes(serialize_work(w))
    return p


def test_perturb_relabel(tmp_path, capsys):
    src = perturb_input(tmp_path)
    out = tmp_path / "out.mtn.xml"
    rc = main(["perturb", str(src), "-o", str(out), "--fraction", "1/10",
               "--relabel", "notehead_black:notehead_white"])
    assert rc == 0
    assert "changed 1" in capsys.readouterr().out
    w = parse_work(out.read_bytes())
    assert validate(w) == []


def test_perturb_deterministic(tmp_path, capsys):
    src = perturb_input(tmp_path)
    outs = []
    for name in ("one.mtn.xml", "two.mtn.xml"):
        out = tmp_path / name
        assert main(["perturb", str(src), "-o", str(out),
                     "--fraction", "3/10",
                     "--relabel", "notehead_black:notehead_white"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_perturb_shift_step(tmp_path, capsys):
    src = perturb_input(tmp_path, n=4)
    out = tmp_path / "out.mtn.xml"
    rc = main(["perturb", str(src), "-o", str(out), "--fraction", "1",
               "--shift-step", "notehead_black:2"])
    assert rc == 0
    assert "changed 4" in capsys.readouterr().out


def test_perturb_bad_fraction(tmp_path, capsys):
    src = perturb_input(tmp_path)
    rc = main(["perturb", str(src), "-o", str(tmp_path / "o.mtn.xml"),
               "--fraction", "3/2",
               "--relabel", "notehead_black:notehead_white"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_perturb_bad_spec(tmp_path, capsys):
    src = perturb_input(tmp_path)
    rc = main(["perturb", str(src), "-o", str(tmp_path / "o.mtn.xml"),
               "--fraction", "1/10", "--relabel", "notehead_black"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
