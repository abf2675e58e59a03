"""Benchmark of `mtn evaluate` and `mtn convert`.

    python3 bench/run.py --workload eval-small --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is taken from `src/` next to this directory,
and scratch files go to `.bench_work/` in the same checkout.

Each run builds the workload's inputs from the seed (set-up, repeated and
timed), then runs the real `mtn` command in a fresh interpreter, one job, as
many times as fit in --seconds, and at least twice. Each child is timed from
spawn to exit and its peak RSS is read from its own rusage (os.wait4).
Between the commands bench/calibrate.py, fixed work that imports nothing
from mtnkit, is timed the same way, and set-up times, and on eval-small and
convert the command times, are scaled by it (see `scaled`): on a shared
host the speed a process gets drifts by a third within minutes, and short
work drifts with the calibration.
Every output is checked outside the timer: the exit code, the pinned
digests of pins.json, and the facts the generator knows independently of
the program; outputs byte-identical to ones that already passed need only
the digest. A failed check counts all of that run's operations (measure
pairs, or input files for convert) as failed.

With --trace 0 the last line of stdout holds the end-to-end metrics, each
the median over the run's samples. With --trace 1 it holds per-layer
metrics from bench/tracer.py, taken in extra runs of the same command with
spans around mtnkit's public functions, next to untraced runs that give the
tracing overhead. The lines before it give quartiles, sample counts, the
failure ratio and run metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import gen
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINS = BENCH / "pins.json"

WORKLOADS = ("eval-small", "eval-large", "convert")
END_TO_END = {"ms_per_measure": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
# Set-up is repeated for SETUP_SLICE_S, at least once, before every timed
# command, so that its samples spread over the whole run as the commands'
# do; setup_s is their median.
SETUP_SLICE_S = 0.2
CALIBRATE = [sys.executable, str(BENCH / "calibrate.py")]
# Median wall time of calibrate.py on the host where the benchmark was
# defined (2-vCPU Intel Xeon VM at 2.0 GHz, Python 3.11). Scaled times are
# given as if the host always ran calibrate.py in this time.
CAL_REFERENCE_S = 0.30
# Workloads whose command times are scaled by the calibration (set-up
# times are scaled on every workload). Its 0.3 s of
# fresh-interpreter work slows as the 1-2 s commands of these workloads do:
# in three sets of five to ten runs on the 2-vCPU VM above, scaling took
# the spread (interquartile range over median) of ms_per_measure from
# 0.11-0.24 to 0.10-0.12 on eval-small and from 0.12-0.27 to 0.05-0.15 on
# convert. It does not slow as eval-large's 20 s in a 250 MB memo dict
# does: over seven runs scaling raised that spread from 0.17 to 0.40, so
# eval-large reports plain wall time.
SCALED = ("eval-small", "convert")
# Time a run may take beyond --seconds: set-up, the last timed command
# (started before --seconds ran out), the checks. A command still running
# past it is killed and fails.
MARGIN_S = 120


class SetupError(RuntimeError):
    """The benchmark itself is broken; no result is printed."""


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Set-up.

def write_inputs(workload: gen.Workload, target: Path) -> None:
    shutil.rmtree(target, ignore_errors=True)
    for name, data in workload.files.items():
        path = target / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def setup(name: str, seed: int, target: Path) -> tuple[gen.Workload,
                                                      list[float]]:
    """Build and write the inputs, repeatedly for SETUP_SLICE_S."""
    times: list[float] = []
    end = time.perf_counter() + SETUP_SLICE_S
    while not times or time.perf_counter() < end:
        start = time.perf_counter()
        workload = gen.build(name, seed)
        write_inputs(workload, target)
        times.append(time.perf_counter() - start)
    return workload, times


def check_inputs(name: str, seed: int, workload: gen.Workload) -> None:
    """Fail when the pinned default-seed inputs, or this seed's pinned
    inputs, no longer match: then the benchmark measures something else
    than it did when the pins were taken."""
    pins = load_pins()["inputs"][name]
    default = str(gen.DEFAULT_SEED)
    if default not in pins:
        raise SetupError(f"pins.json has no inputs digest for {name} "
                         f"seed {default}")
    checks = {default: gen.build(name, gen.DEFAULT_SEED).digest()}
    checks[str(seed)] = workload.digest()
    for key, digest in checks.items():
        if key in pins and pins[key] != digest:
            raise SetupError(f"{name} seed {key}: generated inputs changed "
                             f"(digest {digest[:16]}, pinned "
                             f"{pins[key][:16]})")


# ---------------------------------------------------------------------------
# One timed run of the program.

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], cwd: Path, limit: float) -> dict:
    """Run cmd to completion; wall time and the child's own peak RSS."""
    with open(cwd / "stdout.txt", "wb") as out, \
            open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        killer = threading.Timer(max(limit, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024,
            "rc": proc.returncode}


class Spawner:
    """Runs `spawn` in a helper process forked while this one is small.

    On Linux a child's ru_maxrss starts from the peak RSS of the process
    that spawned it (the address space it leaves at exec counts), so a
    child spawned after the checks parsed large outputs would report that
    peak as its own. The helper keeps the size the interpreter had when it
    was forked, below that of any `mtn` command.
    """

    def __init__(self):
        requests, self._requests = os.pipe()
        self._replies, replies = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:  # never return into the caller's code
                os.close(self._requests)
                os.close(self._replies)
                with open(requests) as inbox, open(replies, "w") as outbox:
                    for line in inbox:
                        cmd, cwd, limit = json.loads(line)
                        try:
                            reply = spawn(cmd, Path(cwd), limit)
                        except OSError as exc:
                            reply = {"error": str(exc)}
                        outbox.write(json.dumps(reply) + "\n")
                        outbox.flush()
                code = 0
            finally:
                os._exit(code)
        os.close(requests)
        os.close(replies)
        self._out = open(self._requests, "w")
        self._in = open(self._replies)

    def __call__(self, cmd: list[str], cwd: Path, limit: float) -> dict:
        self._out.write(json.dumps([cmd, str(cwd), limit]) + "\n")
        self._out.flush()
        line = self._in.readline()
        if not line:
            raise OSError("the spawning helper exited")
        reply = json.loads(line)
        if "error" in reply:
            raise OSError(reply["error"])
        return reply

    def close(self) -> None:
        self._out.close()
        self._in.close()
        os.waitpid(self.pid, 0)


def calibrate(launch, cwd: Path, limit: float) -> float:
    """Wall time of one run of calibrate.py."""
    cwd.mkdir(parents=True, exist_ok=True)
    result = launch(CALIBRATE, cwd, limit)
    if result["rc"] != 0:
        raise SetupError(f"calibrate.py exited with {result['rc']}")
    return result["wall"]


def scaled(walls: list[float], cals: list[float]) -> list[float]:
    """Each wall time scaled to the reference host speed by the mean of the
    calibrations just before and just after it: cals[i] ran before walls[i]
    and cals[i + 1] after it."""
    return [CAL_REFERENCE_S * 2 * wall / (cals[i] + cals[i + 1])
            for i, wall in enumerate(walls)]


def mtn_args(name: str, workload: gen.Workload, inputs: Path,
             out: Path) -> list[str]:
    if name == "convert":
        return (["convert"] + [str(inputs / f) for f in sorted(workload.files)]
                + ["-o", str(out / "mtn"), "--manifest",
                   str(out / "mtn" / "manifest.jsonl")])
    return ["evaluate", "--truth", str(inputs / "truth"),
            "--pred", str(inputs / "pred"),
            "--manifest", str(inputs / "manifest.jsonl"),
            "--jobs", "1", "--per-measure", "-o", str(out / "report.json")]


# ---------------------------------------------------------------------------
# Output checks, all outside the timer.

def _rat(text):
    return None if text is None else Fraction(text)


def check_report(doc: dict, facts: dict) -> list[str]:
    """Problems in an evaluate report, judged against the generator's facts
    and against the report's own totals."""
    bad: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            bad.append(what)

    cov = doc["coverage"]
    for key, fact in (("truth_measures", "truth_measures"),
                      ("matched", "matched"), ("missed_measures", "missed"),
                      ("discarded_predictions", "discarded")):
        expect(cov[key] == facts[fact], f"coverage.{key} {cov[key]} != "
               f"{facts[fact]}")
    expect(cov["skipped_pages"] == 0, "pages skipped")
    expect(_rat(cov["ratio"]) == Fraction(facts["matched"],
                                          facts["truth_measures"]),
           "coverage ratio")
    expect(doc["warnings"] == [], f"warnings: {doc['warnings'][:2]}")

    t1 = doc["tier1"]
    classes = t1["classes"]
    expect(sorted(classes) == sorted(facts["classes"]), "tier-1 class set")
    total = sum(c["truth"] for c in facts["classes"].values())
    expect(t1["total_truth_tokens"] == total, "tier-1 total tokens")
    precision = recall = Fraction(0)
    undefined = []
    for label, fact in facts["classes"].items():
        got = classes.get(label)
        if got is None:
            continue
        for key in ("truth", "predicted", "matched"):
            expect(got[key] == fact[key], f"tier-1 {label}.{key}")
        p = (Fraction(fact["matched"], fact["predicted"])
             if fact["predicted"] else None)
        r = Fraction(fact["matched"], fact["truth"]) if fact["truth"] else None
        expect(_rat(got["precision"]) == p, f"tier-1 {label}.precision")
        expect(_rat(got["recall"]) == r, f"tier-1 {label}.recall")
        expect(_rat(got["proportion"]) == Fraction(fact["truth"], total),
               f"tier-1 {label}.proportion")
        if fact["truth"]:
            weight = Fraction(fact["truth"], total)
            recall += weight * r
            if p is None:
                undefined.append(label)
            else:
                precision += weight * p
    expect(_rat(t1["aggregate_precision"]) == precision,
           "tier-1 aggregate precision")
    expect(_rat(t1["aggregate_recall"]) == recall, "tier-1 aggregate recall")
    expect(t1["undefined_precision"] == sorted(undefined),
           "tier-1 undefined precision")

    t2 = doc["tier2"]
    rows = t2["per_measure"]
    pairs = facts["pairs"]
    expect(len(rows) == len(pairs) == t2["measures"], "tier-2 measure count")
    expect(t2["truth_nodes"] == facts["truth_nodes"], "tier-2 truth nodes")
    cost_sum = Fraction(0)
    for row, pair in zip(rows, pairs):
        cost = _rat(row["cost"])
        cost_sum += cost
        expect(row["id"] == pair["id"]
               and row["truth_nodes"] == pair["truth_nodes"],
               f"tier-2 row {pair['id']}")
        expect(pair["cost_min"] <= cost <= pair["cost_max"],
               f"tier-2 {pair['id']} cost {cost} outside "
               f"[{pair['cost_min']}, {pair['cost_max']}]")
        expect(_rat(row["ter"]) == cost / pair["truth_nodes"],
               f"tier-2 {pair['id']} ter")
    expect(_rat(t2["edit_cost"]) == cost_sum, "tier-2 edit cost")
    expect(_rat(t2["ter"]) == cost_sum / facts["truth_nodes"], "tier-2 ter")

    t3 = doc["tier3"]
    te, pe, m = t3["truth_events"], t3["predicted_events"], t3["matched"]
    expect(te == facts["truth_events"], "tier-3 truth events")
    expect(pe == facts["predicted_events"], "tier-3 predicted events")
    expect(t3["matched_notes"] <= m <= min(te, pe), "tier-3 matched count")
    expect(_rat(t3["missed_note_rate"]) == Fraction(te - m, te),
           "tier-3 missed-note rate")
    expect(_rat(t3["false_positive_rate"]) == Fraction(pe - m, pe),
           "tier-3 false-positive rate")
    return bad


def output_digest(name: str, out: Path) -> str:
    """sha256 over the command's outputs: the JSON report and the text
    tables for evaluate, every written file for convert; "" if missing."""
    if name == "convert":
        mtn = out / "mtn"
        paths = sorted(mtn.iterdir()) if mtn.is_dir() else []
    else:
        paths = [out / "report.json", out / "stdout.txt"]
    h = hashlib.sha256()
    try:
        for path in paths:
            h.update(str(path.relative_to(out)).encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
    except OSError:
        return ""
    return h.hexdigest()


def check_evaluate(out: Path, facts: dict) -> list[str]:
    try:
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        return check_report(doc, facts)
    except (OSError, ValueError, KeyError, TypeError,
            ZeroDivisionError) as exc:
        return [f"report unreadable: {exc!r}"]


def check_convert(out: Path, facts: dict) -> list[str]:
    from mtnkit.model import iter_tokens, validate
    from mtnkit.xmlio import FormatError, parse_work

    bad = []
    if (out / "stderr.txt").read_bytes():
        bad.append("converter printed warnings")
    mtn = out / "mtn"
    try:
        manifest = [json.loads(line) for line in
                    (mtn / "manifest.jsonl").read_text().splitlines()]
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc!r}"]
    entries = {e.get("work"): len(e.get("measures", ())) for e in manifest}
    for stem, fact in facts["files"].items():
        path = mtn / f"{stem}.mtn.xml"
        try:
            work = parse_work(path.read_bytes(),
                              on_warning=lambda msg: bad.append(
                                  f"{stem}: {msg}"))
        except (OSError, FormatError) as exc:
            bad.append(f"{stem}: {exc}")
            continue
        problems = validate(work)
        if problems:
            bad.append(f"{stem}: {len(problems)} violations, "
                       f"first {problems[0]}")
        measures = sum(len(p.measures) for p in work.parts)
        labels = [t.label for t in iter_tokens(work)]
        got = {"measures": measures,
               "noteheads": sum(lb.startswith("notehead_") for lb in labels),
               "rests": sum(lb.startswith("rest_") for lb in labels)}
        for key, value in got.items():
            if value != fact[key]:
                bad.append(f"{stem}: {key} {value} != {fact[key]}")
        if entries.get(stem) != measures:
            bad.append(f"{stem}: manifest lists {entries.get(stem)} measures")
    if len(entries) != len(facts["files"]):
        bad.append("manifest entry count")
    return bad


def operations(name: str, workload: gen.Workload) -> int:
    if name == "convert":
        return len(workload.files)
    return len(workload.facts["pairs"])


def measures(name: str, workload: gen.Workload) -> int:
    if name == "convert":
        return workload.facts["measures"]
    return len(workload.facts["pairs"])


class Runner:
    """Runs and checks the command of one workload and seed."""

    def __init__(self, name: str, seed: int, workload: gen.Workload,
                 inputs: Path, deadline: float, launch=spawn):
        self.name, self.workload = name, workload
        self.inputs, self.deadline, self.launch = inputs, deadline, launch
        self.pin = load_pins()["outputs"].get(name, {}).get(str(seed))
        self.verified = None  # digest of outputs that passed every check
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.count = 0

    def run(self, traced: bool) -> dict:
        self.count += 1
        out = WORK / self.name / f"run-{self.count}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        args = mtn_args(self.name, self.workload, self.inputs, out)
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"),
                   str(out / "spans.json"), "--"] + args
        else:
            cmd = [sys.executable, "-m", "mtnkit.cli"] + args
        result = self.launch(cmd, out, self.deadline - time.monotonic())
        check = check_convert if self.name == "convert" else check_evaluate
        digest = result["digest"] = output_digest(self.name, out)
        if result["rc"] != 0:
            problems = [f"exit code {result['rc']}"]
        elif digest and digest == self.verified:
            problems = []  # byte-identical to outputs already checked
        else:
            problems = check(out, self.workload.facts)
            if self.pin is not None and digest != self.pin:
                problems.append(f"output digest {digest[:16]} != pinned "
                                f"{self.pin[:16]}")
            if not problems:
                self.verified = digest
        ops = operations(self.name, self.workload)
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems += problems
        if traced:
            spans = out / "spans.json"
            result.update(json.loads(spans.read_text(encoding="utf-8"))
                          if spans.is_file() else {"missing": [], "spans": []})
        shutil.rmtree(out, ignore_errors=True)
        return result


# ---------------------------------------------------------------------------
# Statistics and output.

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(label: str, values: list[float], unit: str) -> str:
    q1, q2, q3 = quartiles(values)
    return (f"# {label}: median {q2:.6g} {unit}, quartiles {q1:.6g} .. "
            f"{q3:.6g}, n={len(values)}")


def metadata(seed: int) -> dict:
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "mtnkit").glob("*.py")))
    return {"src_lines": lines, "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed}


def measure(name: str, seed: int, seconds: int, trace: bool,
            launch: Spawner) -> dict:
    deadline = time.monotonic() + seconds + MARGIN_S
    inputs = WORK / name / "inputs"
    workload, setup_times = setup(name, seed, inputs)
    check_inputs(name, seed, workload)
    # Compile the program's bytecode before timing, as an installed
    # package would have it; a failure here shows in the timed runs.
    subprocess.run([sys.executable, "-c", "import mtnkit.cli"],
                   env=child_env(), stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=60)
    runner = Runner(name, seed, workload, inputs, deadline, launch)
    plain: list[dict] = []
    traced: list[dict] = []
    cal_dir = WORK / name / "calibrate"
    cals = [calibrate(launch, cal_dir, deadline - time.monotonic())]
    # Untraced runs take at least two samples, so that no median rests on
    # a single run of eval-large's 400-node pair.
    least = 1 if trace else 2
    loop_start = time.monotonic()
    while True:
        step = time.monotonic()
        if plain:
            setup_times += setup(name, seed, inputs)[1]
        plain.append(runner.run(traced=False))
        if trace:
            traced.append(runner.run(traced=True))
        cals.append(calibrate(launch, cal_dir, deadline - time.monotonic()))
        now = time.monotonic()
        if (len(plain) >= least
                and now - loop_start + (now - step) > seconds):
            break

    walls = [r["wall"] for r in plain]
    times = scaled(walls, cals) if name in SCALED else walls
    per_measure = [1000 * t / measures(name, workload) for t in times]
    host = CAL_REFERENCE_S / statistics.median(cals)
    setup_scaled = [t * host for t in setup_times]
    rss = [r["rss_mb"] for r in plain]
    print(f"# workload {name}, seed {seed}, {len(plain)} untraced and "
          f"{len(traced)} traced runs of {measures(name, workload)} measures")
    print(f"# meta {json.dumps(metadata(seed), sort_keys=True)}")
    print(summary("calibrate.py wall", cals, "s"))
    print(summary("setup wall", setup_times, "s"))
    print(summary("command wall", walls, "s"))
    print(summary("setup_s", setup_scaled, "s"))
    print(summary("ms_per_measure", per_measure, "ms"))
    print(summary("peak_rss_mb", rss, "MB"))
    print(f"# fail_ratio {runner.failed}/{runner.attempted}")
    print("# output digest: " + ("checked against its pin" if runner.pin
                                 else f"no pin for seed {seed}"))
    for problem in runner.problems[:20]:
        print(f"# check failed: {problem}")
    for target in sorted({t for r in traced for t in r["missing"]}):
        print(f"# not traced, its layers read 0: {target}")
    if trace:
        metrics = layers.per_layer(
            [r["spans"] for r in traced],
            statistics.median(walls),
            statistics.median(r["wall"] for r in traced))
        units = layers.UNITS
    else:
        metrics = {"ms_per_measure": statistics.median(per_measure),
                   "peak_rss_mb": statistics.median(rss),
                   "setup_s": statistics.median(setup_scaled)}
        units = END_TO_END
    return {"correct": runner.failed == 0 and not runner.problems,
            "attempted": runner.attempted, "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mtnkit" / "cli.py").is_file():
        print(f"error: no mtnkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    launch = Spawner()
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), launch)
    except (SetupError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        launch.close()
        shutil.rmtree(WORK / args.workload, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
