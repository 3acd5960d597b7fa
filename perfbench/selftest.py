#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the repository root. For every workload it checks that

  * an untraced and a traced run pass their output checks and print every
    metric BENCHMARK.json declares, each with its declared unit;
  * a run with one deliberately corrupted output (a flipped decision, or a
    truncated SARIF log) fails its checks, so the failure shows in `failed`;
  * two runs with the same seed print the same output digest.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("design", "fleet_audit", "fleet_redundancy", "serve")
SEED = 7


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
           "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def digests_of(notes):
    return [d for n in notes for d in re.findall(r"digest ([0-9a-f]+)", n)]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    for workload in WORKLOADS:
        digests = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            notes, result = run(workload, trace)
            declared = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: m.get("unit") for name, m in result["metrics"].items()}
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload} trace={trace}: checks pass "
                   f"({result['attempted']} attempted, {result['failed']} failed)")
            expect(printed == declared,
                   f"{workload} trace={trace}: every {key} metric printed with its unit")
            if trace == 0:
                digests.append(digests_of(notes))
        _, result = run(workload, 0, "--corrupt")
        expect(not result["correct"] and result["failed"] > 0,
               f"{workload}: a corrupted output trips the check "
               f"({result['failed']} failed)")
        if digests[0]:
            notes, _ = run(workload, 0)
            expect(digests_of(notes) == digests[0],
                   f"{workload}: same seed, same output digest")

    print("self-test " + ("passed" if not problems else
                          f"FAILED ({len(problems)} problems)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
