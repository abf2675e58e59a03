"""Command-line interface.

Subcommands: convert (MusicXML import), validate, stats (class histogram),
evaluate (corpus metrics), diff (edit script between two files), perturb
(deterministic corpus perturbations). Exit codes: 0 success, 1 violations
or differences found, 2 I/O, format, or usage errors.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from contextlib import closing
from fractions import Fraction
from pathlib import Path

from .harness import (
    EvalConfig, convert_input, evaluate_corpus, ordered_map, read_manifest,
    render_report, report_to_json, write_manifest,
)
from .model import iter_nodes, validate
from .xmlio import FormatError, parse_work, serialize_work


def _read_work(path: Path, quiet: bool = False):
    def warn(message: str) -> None:
        if not quiet:
            print(f"{path}: {message}", file=sys.stderr)

    try:
        return parse_work(path.read_bytes(), on_warning=warn)
    except FormatError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _integer(text: str) -> int | None:
    """text as an int if it is ASCII -?[0-9]+, else None. int() alone also
    reads "٢", "1_0", "+1" and " 1"."""
    digits = text[1:] if text[:1] == "-" else text
    return int(text) if digits.isascii() and digits.isdigit() else None


def _fraction(text: str, option: str) -> Fraction:
    """text as a Fraction, read from ASCII text only (Fraction() alone also
    reads "٣/4"); a ValueError that names the option otherwise."""
    try:
        if text.isascii():
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"{option} wants a fraction such as 1/2, not {text!r}")


def _iter_work_files(paths: list[str]) -> list[Path]:
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(sorted(p.rglob("*.mtn.xml")))
        else:
            out.append(p)
    return out


# -- convert ------------------------------------------------------------------

def cmd_convert(args: argparse.Namespace) -> int:
    from .musicxml import ConvertOptions

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    options = ConvertOptions(
        work_id=args.work_id,
        use_print_breaks=not args.no_print_breaks,
        explicit_breaks=tuple(args.break_measures.split(","))
        if args.break_measures else (),
    )
    sources = [Path(raw) for raw in args.inputs]
    targets = [out_dir / (source.stem + ".mtn.xml") for source in sources]
    seen: set[Path] = set()
    for target in targets:
        if target in seen:
            raise ValueError(f"two inputs map to the same output {target}")
        seen.add(target)
    tasks = [(source, target.name, options, args.partition)
             for source, target in zip(sources, targets)]
    # The inputs convert in one process per available CPU (ordered_map's
    # cap), this one among them; all the command prints and writes happens
    # here, in input order, as it does in one process.
    results = ordered_map(convert_input, tasks, len(tasks))
    entries = []
    with closing(results):
        for source, target, (warnings, data, file_entries) in zip(
                sources, targets, results):
            for warning in warnings:
                print(f"{source.name}: {warning}", file=sys.stderr)
            target.write_bytes(data)
            print(f"wrote {target}")
            entries.extend(file_entries)
    if args.manifest:
        Path(args.manifest).write_text(write_manifest(entries),
                                       encoding="utf-8")
        print(f"wrote {args.manifest}")
    return 0


# -- validate -----------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    bound = (None if args.max_onset is None
             else _fraction(args.max_onset, "--max-onset"))
    bad = 0
    for path in _iter_work_files(args.inputs):
        work = _read_work(path)
        problems = validate(work)
        for violation in problems:
            print(f"{path}: {violation}")
        bad += len(problems)
        if bound is None:
            continue
        # Outlier check: events this far into a measure are usually noise
        # from the recognizer. Warn, never drop.
        for part in work.parts:
            for m in part.measures:
                for child in m.children:
                    for node in iter_nodes(child):
                        if node.onset is not None and node.onset > bound:
                            print(f"{path}: warning: {m.id}/{node.kind} "
                                  f"onset {node.onset} exceeds {bound}",
                                  file=sys.stderr)
    return 1 if bad else 0


# -- stats --------------------------------------------------------------------

def cmd_stats(args: argparse.Namespace) -> int:
    from .trees import project_tree, token_counts

    counts: Counter[str] = Counter()
    measures = 0
    for path in _iter_work_files(args.inputs):
        work = _read_work(path, quiet=True)
        for part in work.parts:
            for m in part.measures:
                counts.update(token_counts(
                    project_tree(m),
                    include_synthetic=not args.ignore_synthetic))
                measures += 1
    total = sum(counts.values())
    if total == 0:
        print("no tokens found")
        return 0
    print(f"{'Class':<28}{'Counts':>8}{'Prop':>8}")
    for label, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{label:<28}{n:>8}{n / total:>8.3f}")
    print(f"{'total':<28}{total:>8}{1:>8.3f}")
    print(f"({measures} measures)")
    return 0


# -- evaluate -----------------------------------------------------------------

def _parse_tiers(text: str) -> tuple[int, ...]:
    tiers = {_integer(x) for x in text.split(",")}
    if None in tiers:
        raise ValueError(f"bad tier list {text!r}")
    if not tiers <= {1, 2, 3}:
        raise ValueError(f"tiers must be among 1,2,3: {text!r}")
    return tuple(sorted(tiers))


def cmd_evaluate(args: argparse.Namespace) -> int:
    entries = read_manifest(Path(args.manifest).read_text(encoding="utf-8"))
    jobs = _integer(args.jobs)
    if jobs is None or jobs < 1:
        raise ValueError(f"--jobs wants an integer of at least 1, "
                         f"not {args.jobs!r}")
    config = EvalConfig(
        tiers=_parse_tiers(args.tiers),
        include_synthetic=not args.ignore_synthetic_attributes,
        matched_only=args.matched_only,
        partition=args.partition,
        jobs=jobs,
        per_measure=args.per_measure,
    )
    report = evaluate_corpus(args.truth, args.pred, entries, config)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(report_to_json(report), encoding="utf-8")
    if not args.quiet:
        print(render_report(report), end="")
    return 0


# -- diff ---------------------------------------------------------------------

def _measure_index(work):
    return {m.id: m for part in work.parts for m in part.measures}


def cmd_diff(args: argparse.Namespace) -> int:
    from .ted import SEMANTIC_COSTS, UNIT_COSTS, tree_edit_distance
    from .trees import project_tree, untimeable

    pred = _read_work(Path(args.pred))
    truth = _read_work(Path(args.truth))
    costs = SEMANTIC_COSTS if args.semantic else UNIT_COSTS
    pred_by_id = _measure_index(pred)
    differences = 0
    for truth_m in (m for part in truth.parts for m in part.measures):
        pred_m = pred_by_id.pop(truth_m.id, None)
        if pred_m is None:
            print(f"{truth_m.id}: missing from prediction")
            differences += 1
            continue
        g = project_tree(truth_m)
        p = project_tree(pred_m)
        if args.semantic:
            for side, path, tree in (("truth", args.truth, g),
                                     ("prediction", args.pred, p)):
                if tree.timing_error is not None:
                    raise untimeable(side, Path(path).name, truth_m.id,
                                     tree.timing_error)
        script = tree_edit_distance(g, p, costs)
        if script.cost == 0:
            continue
        differences += 1
        # TER is defined on unit costs.
        unit = (tree_edit_distance(g, p, UNIT_COSTS) if args.semantic
                else script)
        rate = Fraction(unit.cost) / unit.a_size
        print(f"{truth_m.id}: cost {script.cost} over {script.a_size} "
              f"truth nodes (TER {float(rate):.3f})")
        gn, pn = g.nodes, p.nodes
        mapped_a = set()
        mapped_b = set()
        for i, j in script.mapping:
            mapped_a.add(i)
            mapped_b.add(j)
            if gn[i].label != pn[j].label:
                print(f"  relabel {gn[i].label} -> {pn[j].label}")
            elif costs.substitute(gn[i], pn[j]) != 0:
                print(f"  adjust {gn[i].label} (staff/step/head mismatch)")
        for i, node in enumerate(gn):
            if i not in mapped_a:
                print(f"  missing {node.label}")
        for j, node in enumerate(pn):
            if j not in mapped_b:
                print(f"  spurious {node.label}")
    for leftover in pred_by_id:
        print(f"{leftover}: only in prediction")
        differences += 1
    return 1 if differences else 0


# -- perturb ------------------------------------------------------------------

def cmd_perturb(args: argparse.Namespace) -> int:
    from .perturb import relabel_fraction, shift_step_fraction

    work = _read_work(Path(args.input))
    fraction = _fraction(args.fraction, "--fraction")
    if args.relabel:
        source, _, target = args.relabel.partition(":")
        if not source or not target:
            raise ValueError("--relabel wants SOURCE:TARGET")
        work, changed = relabel_fraction(work, source, target, fraction)
    else:
        label, _, raw = args.shift_step.partition(":")
        delta = _integer(raw)
        if not label or delta is None:
            raise ValueError("--shift-step wants LABEL:DELTA")
        work, changed = shift_step_fraction(work, label, delta, fraction)
    Path(args.out).write_bytes(serialize_work(work))
    print(f"changed {changed} tokens; wrote {args.out}")
    return 0


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtn", description="Tree-score toolkit: conversion, "
        "validation, and three-tier evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert MusicXML files")
    p.add_argument("inputs", nargs="+", metavar="MUSICXML")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.add_argument("--manifest", help="also write a corpus manifest here")
    p.add_argument("--partition", help="partition tag for manifest entries")
    p.add_argument("--work-id", help="override the derived work id")
    p.add_argument("--break-measures",
                   help="comma-separated measure numbers that start lines")
    p.add_argument("--no-print-breaks", action="store_true",
                   help="ignore new-system/new-page print hints")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("validate", help="check tree-score files")
    p.add_argument("inputs", nargs="+", metavar="PATH",
                   help="files or directories of .mtn.xml")
    p.add_argument("--max-onset", metavar="QUARTERS",
                   help="warn about events beyond this onset, e.g. 32")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="token class histogram")
    p.add_argument("inputs", nargs="+", metavar="PATH")
    p.add_argument("--ignore-synthetic", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("evaluate", help="score a predicted corpus")
    p.add_argument("--pred", required=True, help="prediction root directory")
    p.add_argument("--truth", required=True, help="truth root directory")
    p.add_argument("--manifest", required=True, help="JSONL corpus manifest")
    p.add_argument("--tiers", default="1,2,3")
    p.add_argument("--ignore-synthetic-attributes", action="store_true")
    p.add_argument("--matched-only", action="store_true",
                   help="score only measure pairs that aligned")
    p.add_argument("--partition", help="restrict to one partition tag")
    p.add_argument("--jobs", default="1",
                   help="processes that share the pages, this one "
                   "included; at least 1")
    p.add_argument("--per-measure", action="store_true",
                   help="add the per-measure cost rows to tier 2")
    p.add_argument("-o", "--out", help="write the JSON report here")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the text tables")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("diff", help="edit script between two files")
    p.add_argument("pred", metavar="PRED")
    p.add_argument("truth", metavar="TRUTH")
    p.add_argument("--semantic", action="store_true",
                   help="use reduced-cost notehead substitutions")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("perturb", help="deterministic corpus perturbation")
    p.add_argument("input", metavar="IN")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--fraction", required=True,
                   help="exact fraction to change, e.g. 1/10")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--relabel", metavar="SOURCE:TARGET")
    mode.add_argument("--shift-step", metavar="LABEL:DELTA")
    p.set_defaults(func=cmd_perturb)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # FormatError, InvalidWorkError, ManifestError and the converter's
    # ConversionError are all ValueErrors.
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
