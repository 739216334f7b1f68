#!/usr/bin/env python3
"""Build and run the perfbench harness from a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The harness is built with CMake from
perfbench/CMakeLists.txt against ../src into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). The library's PLS_* environment
variables are cleared, and PLS_PARALLELISM / PLS_AUTO_GRAIN pinned, so an
inherited setting cannot change a route; the harness prints what it ran
with. Arguments are passed to the harness unchanged (it also accepts
--perturb-op K, a test hook). The last stdout line is the harness's JSON
result; the exit code is non-zero on any failure or reference mismatch.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_ENV = {"PLS_PARALLELISM": "3", "PLS_AUTO_GRAIN": "0"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "forkjoin" / "pool.cpp").is_file():
        raise SystemExit("perfbench: library sources (src/) not found")
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "3"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / "perfbench"


def main():
    # Arguments go to the harness as given; it checks them (workload
    # names included) and prints the usage on any error. Only the two
    # values that name the span file are read here.
    args = sys.argv[1:]
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--workload", default="")
    p.add_argument("--seed", default="")
    p.add_argument("--trace", default="0")
    known, _ = p.parse_known_args(args)

    out = build_dir()
    exe = build(out)

    env = {k: v for k, v in os.environ.items() if not k.startswith("PLS_")}
    env.update(PINNED_ENV)
    cmd = [str(exe), *args]
    if known.trace == "1":
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        name = f"{known.workload}-seed{known.seed}.jsonl".replace("/", "_")
        cmd += ["--trace-out", str(traces / name)]
    r = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                       text=True)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"harness exited {r.returncode} without a result")
        return r.returncode or 1
    if r.returncode != 0 or not result.get("correct"):
        log(f"{result.get('failed')} of {result.get('attempted')} "
            f"operations failed (exit {r.returncode})")
        return r.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
