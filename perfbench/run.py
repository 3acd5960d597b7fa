#!/usr/bin/env python3
"""End-to-end benchmark of the dfw library: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (with the library sources
under src/) into .bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench
when that is set, then runs one measurement. The program's notes (host
calibration, per-workload summary, the traced run's self-time table) go to
stdout; the last line is one JSON object:

    {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": x, "unit": u}}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; a per-layer metric of a layer the workload
does not use reads 0. Exits 2 without a result when the sources are
missing or the build fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("design", "fleet_audit", "fleet_redundancy", "serve")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(out), "--target", "dfw_perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "dfw_perfbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt one output before it is checked")
    args = parser.parse_args()

    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    cmd += ["--tiny"] if args.tiny else []
    cmd += ["--corrupt"] if args.corrupt else []
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark program exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    # The program's metric set must be exactly the declared one, unit for
    # unit; a per-layer metric the workload does not exercise reads 0.
    measured = result["metrics"]
    failed = result["failed"]
    metrics = {}
    for spec in declared_metrics(args.trace):
        name, unit = spec["name"], spec["unit"]
        got = measured.pop(name, None)
        if got is None and args.trace:
            got = {"value": 0, "unit": unit}
        if got is None or got["unit"] != unit:
            print(f"METRIC MISSING OR MISLABELLED: {name}", flush=True)
            failed += 1
            continue
        metrics[name] = got
    for name in measured:
        print(f"METRIC NOT DECLARED IN BENCHMARK.json: {name}", flush=True)
        failed += 1

    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
