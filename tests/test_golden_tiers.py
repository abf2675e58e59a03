"""Golden reports for every non-empty tier set.

`mtn evaluate --per-measure` scores the golden report's perturbed corpus
once per tier set; the JSON report and the text tables of each run are
pinned. Only the asked tiers run, and each prints what it prints when
all three run: the per-measure rows are tier 2's, so without tier 2
neither rendering holds them.
"""

import hashlib
from pathlib import Path

from mtnkit.cli import main
from test_golden_report import FIXTURES, perturbed_corpus

# --tiers value -> (JSON report, text report)
GOLDEN_TIER_REPORTS = {
    "1": (
        "d0fe84fa5d38b1575699bc234a6f432e3831ce68d0fcac872250da6707f77877",
        "6f115bda963130225d411285f3d1033423347b636a73a749d252410656a1fae7",
    ),
    "2": (
        "453c76bcfbbc9767bb80b85fb08f2e4c32c19198a4d47216331f99771f4cf14e",
        "e1318bb9c94c3bb02e482ec08ab0cb0ba5a16039618e1da07607d0ef02816764",
    ),
    "3": (
        "31efb2a28da66bb713eed19d82fe03725bb439ce08e1f4e1b9404dc1a3c3855b",
        "6d018069731d38df174f5a253fab0bb6a314bbd9879bd3164afe80b91f976588",
    ),
    "1,2": (
        "dc72be3f8bd415c51e6709d60efa79c518f415aac03ace32509bf75f58a01074",
        "f793173f2bbd07f505198f4adb902c40bee018f6128e0f7f49614042b6a9fce0",
    ),
    "1,3": (
        "f194bb67e340a08b8374dcf4d347ebc2e9615d47d48fb664f91c452246e94807",
        "bcc3717792152f9de94ea29391cf8dcebff4bd54da2efac500460fd1d3d38344",
    ),
    "2,3": (
        "c929f3dcc6c6c7b219137809002e8e9d7625be90ffef396a7aff2148afa13d19",
        "9714aa508ac96a693d3ed1d7667539fe6043e28b308007c0be4ff16b807efaa0",
    ),
    # the same digests as test_golden_report's include_synthetic=True run
    "1,2,3": (
        "4f7bf8e9c5679d7ac1c011edf45a395c4dc2adf0e88984c6c65007603648da73",
        "28c2ca55fc7d90b6dbaa723b7065a38f412677e0acb03b5a3f5e9a061ec89271",
    ),
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_tier_sets(tmp_path, capsys):
    pred = perturbed_corpus(tmp_path)
    got = {}
    for tiers in GOLDEN_TIER_REPORTS:
        out = tmp_path / f"report-{tiers}.json"
        assert main(["evaluate", "--truth", str(FIXTURES / "corpus"),
                     "--pred", str(pred),
                     "--manifest", str(FIXTURES / "manifest.jsonl"),
                     "--tiers", tiers, "--per-measure", "-o", str(out)]) == 0
        got[tiers] = (sha(out.read_bytes()),
                      sha(capsys.readouterr().out.encode("utf-8")))
    assert got == GOLDEN_TIER_REPORTS
