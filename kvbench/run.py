#!/usr/bin/env python3
"""Build and run kvbench, the served eNVy KV store benchmark.

    python3 kvbench/run.py --workload kv-read --seed 1 --seconds 16 --trace 0
    python3 kvbench/run.py --self-test

Run from the repository root.  The kvbench binary is built from source into
$CARGO_TARGET_DIR/kvbench (default .bench_build/kvbench).  The last
line of stdout is the JSON result; it names exactly the end-to-end
metrics of BENCHMARK.json with --trace 0 and its per-layer metrics
with --trace 1.  Exits nonzero, with no result line, when the build or
the run fails, and nonzero after the result when a value read back
was wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"kvbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "kvbench"


def build():
    """Configure once, then build incrementally; the binary's path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", str(out), "--target", "kvbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return out / "kvbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The parsed result line, or None when it breaks the contract."""
    try:
        res = json.loads(line)
    except ValueError:
        log("kvbench printed no result line")
        return None
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
    if sorted(res) != ["attempted", "correct", "failed", "metrics"] or got != want:
        log(f"result does not match BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}")
        return None
    if res["attempted"] < 1:
        log("no request was attempted")
        return None
    return res


def run(binary, workload, seed, seconds, trace, smoke=False, echo=True):
    """Run kvbench once; (exit code, result or None)."""
    tmp = build_dir() / "tmp"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--tmp", str(tmp)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} ran past {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    res = check_result(lines[-1], trace)
    return proc.returncode, res


def self_test(binary):
    """Derivations against fixed inputs, then a smoke run of each
    workload in both modes."""
    ok = subprocess.run([str(binary), "--self-test"]).returncode == 0
    for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        for trace in (0, 1):
            code, res = run(binary, w["name"], 1, 1, trace, smoke=True, echo=False)
            good = code == 0 and res is not None and res["correct"] and res["failed"] == 0
            print(f"smoke {w['name']} trace={trace}: {'ok' if good else 'FAILED'}")
            ok = ok and good
    print(f"self-test: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    if args.self_test:
        return self_test(binary)
    code, res = run(binary, args.workload, args.seed, args.seconds, args.trace)
    if res is None:
        return code or 1
    print(json.dumps(res), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
