"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import pytest

import gen
import layers
import run

sys.path.insert(0, str(run.SRC))

from mtnkit.harness import (  # noqa: E402
    EvalConfig, evaluate_corpus, read_manifest, report_to_json,
)
from mtnkit.xmlio import parse_work  # noqa: E402


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_identical_bytes(name):
    first, second = gen.build(name, 7), gen.build(name, 7)
    assert first.files == second.files
    assert first.facts == second.facts
    assert gen.build(name, 8).digest() != first.digest()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_default_seed_inputs_match_their_pin(name):
    pinned = run.load_pins()["inputs"][name][str(gen.DEFAULT_SEED)]
    assert gen.build(name, gen.DEFAULT_SEED).digest() == pinned


def test_band_sizes():
    for seed in range(3):
        small = [p["truth_nodes"] for p in gen.eval_small(seed).facts["pairs"]]
        assert 18 <= statistics.median(small) <= 26, small
        assert all(15 <= n < 50 for n in small), small
        large = sorted(p["truth_nodes"]
                       for p in gen.eval_large(seed).facts["pairs"])
        assert all(80 <= n <= 130 for n in large[:-1]), large
        assert 350 <= large[-1] <= 470, large
        assert [layers.band(n) for n in large] == ["band100"] * 3 + ["band400"]


@pytest.mark.parametrize("name", ["eval-small", "eval-large"])
def test_seed_keeps_the_ted_work(name):
    first, second = gen.build(name, 1).facts, gen.build(name, 2).facts
    sizes = [(p["id"], p["truth_nodes"]) for p in first["pairs"]]
    assert sizes == [(p["id"], p["truth_nodes"]) for p in second["pairs"]]
    assert gen.build(name, 1).files != gen.build(name, 2).files


def test_generated_works_parse_in_canonical_order():
    workload = gen.eval_small(0, pages=6, per_page=5)
    for name, data in workload.files.items():
        if name.endswith(".mtn.xml"):
            warnings = []
            parse_work(data, on_warning=warnings.append)
            assert warnings == [], name


def _small_report(tmp_path):
    workload = gen.eval_small(3, pages=6, per_page=5)
    run.write_inputs(workload, tmp_path)
    entries = read_manifest((tmp_path / "manifest.jsonl").read_text())
    report = evaluate_corpus(tmp_path / "truth", tmp_path / "pred", entries,
                             EvalConfig(per_measure=True))
    return json.loads(report_to_json(report)), workload.facts


def test_report_meets_the_generator_facts(tmp_path):
    doc, facts = _small_report(tmp_path)
    assert facts["missed"] and facts["discarded"]
    assert run.check_report(doc, facts) == []


@pytest.mark.parametrize("path", [
    ("tier2", "ter"), ("tier2", "edit_cost"), ("coverage", "ratio"),
    ("tier1", "aggregate_recall"), ("tier3", "missed_note_rate"),
])
def test_one_corrupted_rational_is_caught(tmp_path, path):
    doc, facts = _small_report(tmp_path)
    section, key = path
    value = run.Fraction(doc[section][key])
    doc[section][key] = str(value + run.Fraction(1, value.denominator + 1))
    assert run.check_report(doc, facts) != []


def test_corrupted_per_measure_cost_is_caught(tmp_path):
    doc, facts = _small_report(tmp_path)
    row = next(r for r in doc["tier2"]["per_measure"] if r["cost"] != "0")
    row["cost"] = str(run.Fraction(row["cost"]) + 1)
    assert run.check_report(doc, facts) != []


def _runner(tmp_path, monkeypatch, name, workload):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    inputs = tmp_path / "inputs"
    run.write_inputs(workload, inputs)
    runner = run.Runner(name, -1, workload, inputs, time.monotonic() + 120)
    return runner, inputs


def test_checked_runs_pass(tmp_path, monkeypatch):
    for name, workload in (("eval-small", gen.eval_small(1, 3, 4)),
                           ("convert", gen.convert_corpus(1, 4, 12))):
        runner, _ = _runner(tmp_path, monkeypatch, name, workload)
        result = runner.run(traced=True)
        assert result["rc"] == 0 and runner.problems == [], runner.problems
        assert result["missing"] == []
        assert runner.failed == 0 and runner.attempted > 0
        metrics = layers.per_layer([result["spans"]], 1.0, 1.0)
        assert set(metrics) == set(layers.UNITS)
        if name == "convert":
            assert metrics["musicxml.convert_path.s"] > 0
            assert metrics["ted.calls"] == 0
        else:
            assert metrics["ted.calls"] == 2 * len(workload.facts["pairs"])


def test_failed_run_counts_all_operations(tmp_path, monkeypatch):
    workload = gen.eval_small(1, 3, 4)
    runner, inputs = _runner(tmp_path, monkeypatch, "eval-small", workload)
    (inputs / "manifest.jsonl").write_text("not json\n")
    runner.run(traced=False)
    assert runner.failed == runner.attempted == len(workload.facts["pairs"])


def test_output_digest_mismatch_counts_as_failure(tmp_path, monkeypatch):
    workload = gen.eval_small(1, 3, 4)
    runner, _ = _runner(tmp_path, monkeypatch, "eval-small", workload)
    runner.pin = "0" * 64
    runner.run(traced=False)
    assert runner.failed == runner.attempted > 0


def test_self_times_subtract_child_spans():
    spans = [["mtn.main", 0, 10_000_000_000, -1, 0, 0, None],
             ["metrics.tier3_counts", 1_000_000_000, 5_000_000_000, 0, 0, 0,
              None],
             ["ted.tree_edit_distance", 2_000_000_000, 4_000_000_000, 1, 0,
              2048, {"mode": "semantic", "na": 30, "nb": 20,
                     "zero": False}]]
    m = layers.one_run(spans)
    assert m["metrics.tier3.self_s"] == pytest.approx(2.0)
    assert m["ted.semantic.s.band20"] == pytest.approx(2.0)
    assert m["ted.semantic.cells"] == 600
    assert m["ted.self_share"] == pytest.approx(0.2)
    assert m["ted.rss_growth_mb"] == pytest.approx(2.0)


def test_scaling_cancels_host_speed_but_not_program_speed():
    ref = run.CAL_REFERENCE_S
    # The host slows to half speed over three commands; calibration and
    # command slow alike, and the scaled times agree.
    cals = [ref, ref, 2 * ref, 2 * ref]
    assert run.scaled([1.0, 1.5, 2.0], cals) == pytest.approx([1.0, 1.0,
                                                              1.0])
    # A program twice as slow on an unchanged host reads twice as slow.
    assert run.scaled([2.0], [ref, ref]) == pytest.approx([2.0])


def test_calibration_runs(tmp_path):
    assert run.calibrate(run.spawn, tmp_path / "cal", 60) > 0
