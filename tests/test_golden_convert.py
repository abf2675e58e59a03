"""Golden convert output: the sha256 of every file `mtn convert` writes.

The inputs are the MusicXML fixtures, a zipped `.mxl` copy, and copies whose
file stems (the work ids) need attribute escaping, so every branch of the
writer's escaper runs: `&`, `<` and `>` become entities, a `"` alone makes
the value single-quoted, a `"` beside a `'` becomes `&quot;`, and tab,
newline and carriage return become character references.

The digests were taken before convert stopped repeating its canonical-order
and validity checks and before the writer escaped attributes itself; any
change to the bytes convert writes shows here.
"""

import hashlib
import shutil
import zipfile
from pathlib import Path

from mtnkit.cli import main

MUSICXML = Path(__file__).resolve().parent.parent / "fixtures" / "musicxml"

QUOTED_STEMS = ("a&b<c\"d'e", 'say "hi" > 1')
WORK_ID = ("--work-id", "tab\there\nnew\rline\"q\"")

# (convert flags, output file) -> sha256
GOLDEN = {
    ((), "simple.mtn.xml"):
        "18e8fac7c5d22172f67deba31c9a65634c186f640a47c93fa922e723cc595e0a",
    ((), "torture.mtn.xml"):
        "93c5814081a70e04b770e3f7de2b060860be4bee4db6257dd39fa01fdb8356d2",
    ((), "zipped.mtn.xml"):
        "d33d452dd93bf603b839d4388dfbfbb1dc854a081c22042151d46041a82f857a",
    ((), "a&b<c\"d'e.mtn.xml"):
        "7a49be9737bd3e21f779e051d589577ae0e2f07acf1cec24734cdfa466416065",
    ((), 'say "hi" > 1.mtn.xml'):
        "05d626bbc0f1d6f2f242f13925a13666d5741de81e4b4f10cb4ea17df0489230",
    ((), "manifest.jsonl"):
        "4742f6b9c9b0d44897147c89b6fa238e64ba3bcecb59c82caf4f08ad8ca31215",
    (WORK_ID, "simple.mtn.xml"):
        "942d33b95331f5740e63784c5ec7b22dfa432ff7f62e75a39b6a772843e028e0",
    (WORK_ID, "manifest.jsonl"):
        "83e3c82f766b7d9dbb4c1664bf5dc5e3a0e04f1e02833ac7a67f25ad3cda73c7",
}


def inputs(tmp_path) -> list[Path]:
    src = tmp_path / "in"
    src.mkdir()
    paths = []
    for fixture in sorted(MUSICXML.glob("*.musicxml")):
        paths.append(Path(shutil.copy(fixture, src / fixture.name)))
    zipped = src / "zipped.mxl"
    with zipfile.ZipFile(zipped, "w", zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("META-INF/container.xml",
                    '<container><rootfiles><rootfile full-path="score.xml"/>'
                    "</rootfiles></container>")
        zf.writestr("score.xml",
                    (MUSICXML / "torture.musicxml").read_bytes())
    paths.append(zipped)
    for stem in QUOTED_STEMS:
        paths.append(Path(shutil.copy(MUSICXML / "simple.musicxml",
                                      src / f"{stem}.musicxml")))
    return paths


def test_golden_convert_outputs(tmp_path, capsys):
    paths = inputs(tmp_path)
    runs = {
        (): [str(p) for p in paths],
        WORK_ID: [str(MUSICXML / "simple.musicxml")],
    }
    got = {}
    for i, (flags, run_inputs) in enumerate(runs.items()):
        out = tmp_path / f"out{i}"
        manifest = out / "manifest.jsonl"
        assert main(["convert", *run_inputs, "-o", str(out),
                     "--manifest", str(manifest), *flags]) == 0
        for written in sorted(out.iterdir()):
            got[(flags, written.name)] = hashlib.sha256(
                written.read_bytes()).hexdigest()
    capsys.readouterr()
    assert got == GOLDEN
