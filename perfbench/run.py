#!/usr/bin/env python3
"""Builds and runs one workload of the ViewMap service benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the repository root. The first call configures and builds the
viewmap library and the benchmark binary from source into .bench_build
(or $CARGO_TARGET_DIR); later calls only rebuild what changed. Build output
goes to stderr. Standard output carries the binary's detail line and, last,
the result line {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 2)
    cmd = ["cmake", "--build", str(build_dir), "--target", "viewmap_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    exe = build_dir / "viewmap_perfbench"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def source_digest():
    """Identity of the program under test: the checkout need not be a git
    repository, so hash the sources themselves."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs for the benchmark's own tests")
    args = ap.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    exe = build(build_dir)
    work_dir = ROOT / ".bench_work"
    env = dict(os.environ, PERFBENCH_SOURCE_DIGEST=source_digest())
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", str(work_dir)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              env=env, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    shutil.rmtree(work_dir, ignore_errors=True)

    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        fail(f"benchmark printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line is not JSON")
    for ln in lines[:-1]:
        print(ln)
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)}")
    if result["correct"]:
        names = set(result["metrics"])
        want = expected_metrics(bool(args.trace))
        if names != want:
            fail(f"metrics differ from BENCHMARK.json: missing {sorted(want - names)}, "
                 f"extra {sorted(names - want)}")
        for name, m in result["metrics"].items():
            if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
                fail(f"metric {name} has no finite value")
    print(lines[-1], flush=True)
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
