"""Rewrite pins.json: input and output digests for a range of seeds.

    python3 bench/pin.py 0 15

Run it only on a commit whose reports are trusted. Every output must pass
the generator-fact checks before its digest is pinned; the old pins are
ignored. The default seed must be in the range.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import gen
import run


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    if not first <= gen.DEFAULT_SEED <= last:
        print("the range must include the default seed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    pins: dict = {"inputs": {}, "outputs": {}}
    for name in run.WORKLOADS:
        for seed in range(first, last + 1):
            workload = gen.build(name, seed)
            inputs = run.WORK / name / "inputs"
            run.write_inputs(workload, inputs)
            runner = run.Runner(name, seed, workload, inputs,
                                time.monotonic() + run.MARGIN_S)
            runner.pin = None
            result = runner.run(traced=False)
            if runner.problems:
                print(f"{name} seed {seed}: {runner.problems[:5]}",
                      file=sys.stderr)
                return 1
            pins["inputs"].setdefault(name, {})[str(seed)] = workload.digest()
            pins["outputs"].setdefault(name, {})[str(seed)] = result["digest"]
            print(f"{name} seed {seed}: {result['wall']:.2f} s", flush=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    shutil.rmtree(run.WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
