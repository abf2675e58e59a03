"""Registry of music primitive token classes.

Every token in a tree score carries a label drawn from this registry, a
closed set fixed at import: validation rejects any other label.
"""

from __future__ import annotations

# Token classes whose tokens carry a vertical staff step. Everything else is
# positionless (step must be absent).
_POSITIONED: set[str] = set()

# start label -> set of admissible stop labels: the classes that pair via
# a shared pair id.
PAIR_PARTNERS: dict[str, frozenset[str]] = {
    "slur_start": frozenset({"slur_stop"}),
    "tied_start": frozenset({"tied_stop"}),
    "tuplet_start": frozenset({"tuplet_stop"}),
    "wedge_crescendo": frozenset({"wedge_stop"}),
    "wedge_diminuendo": frozenset({"wedge_stop"}),
}

# label -> "start" | "stop" for the classes in PAIR_PARTNERS.
_PAIR_ROLE: dict[str, str] = {
    **{stop: "stop" for stops in PAIR_PARTNERS.values() for stop in stops},
    **dict.fromkeys(PAIR_PARTNERS, "start"),
}

_ALL: set[str] = set()


def _define(labels: str, *, positioned: bool = False) -> frozenset[str]:
    """The space-separated labels, registered as known."""
    defined = frozenset(labels.split())
    _ALL.update(defined)
    if positioned:
        _POSITIONED.update(defined)
    return defined


NOTEHEADS = _define(
    "notehead_black notehead_white notehead_breve "
    "notehead_grace_black notehead_cue_black notehead_cue_white",
    positioned=True)

STEM_DIRECTIONS = _define("stem_up stem_down")
BEAM = _define("beam")
FLAG = _define("flag")

ACCIDENTALS = _define(
    "accidental_sharp accidental_flat accidental_natural "
    "accidental_double_sharp accidental_double_flat",
    positioned=True)

RESTS = _define(
    "rest_maxima rest_long rest_breve rest_whole rest_half rest_quarter "
    "rest_eighth rest_16th rest_32nd rest_64th rest_128th")

CLEFS = _define("clef_G clef_F clef_C clef_oct_G clef_oct_F", positioned=True)

TIMESIG_SYMBOLS = _define("timesig_common timesig_cut")
TIMESIG_NUMBER = _define("timesig_number", positioned=True)

BARLINE_TOKENS = _define("barline_tok_regular barline_tok_heavy")
REPEATS = _define("repeat_forward repeat_backward")

DYNAMICS = _define(
    "dyn_pppppp dyn_ppppp dyn_pppp dyn_ppp dyn_pp dyn_p dyn_mp "
    "dyn_mf dyn_f dyn_ff dyn_fff dyn_ffff dyn_fffff dyn_ffffff "
    "dyn_sf dyn_sfz dyn_sffz dyn_sfp dyn_sfpp dyn_sfzp dyn_fz dyn_rf "
    "dyn_rfz dyn_fp dyn_pf dyn_n")

WEDGES = _define("wedge_crescendo wedge_diminuendo wedge_stop")

MARKS = _define("segno coda")

SLURS = _define("slur_start slur_stop")
TIES = _define("tied_start tied_stop")
TUPLETS = _define("tuplet_start tuplet_stop")

DOT = _define("dot")
ARTICULATIONS = _define("staccato accent tenuto")
ORNAMENTS = _define("trill turn wavy_line")
FERMATA = _define("fermata")
ARPEGGIATE = _define("arpeggiate")
CAESURA = _define("caesura")


def is_known(label: str) -> bool:
    return label in _ALL


def is_positioned(label: str) -> bool:
    return label in _POSITIONED


def pair_role(label: str) -> str | None:
    """Pairing role of a class: "start", "stop", or None for unpaired."""
    return _PAIR_ROLE.get(label)
