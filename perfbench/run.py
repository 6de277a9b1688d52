#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload row512 --seed 1 --seconds 20 --trace 0

Builds perfbench/ (a standalone CMake project over ../src) into
.bench_build/perfbench on first use, runs the driver with every RSD_*
variable removed from its environment, and prints the driver's output
with a metadata line before the result. The last line of stdout is the
result: {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
spans are written to .bench_build/spans/<workload>-seed<seed>.json.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
DRIVER = BUILD_DIR / "rsd_perfbench"
OPTIMISED = {"Release", "RelWithDebInfo"}
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Run a build step; its output goes to stderr, never to stdout, and the
    compiler's temporary files stay inside the checkout."""
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=timeout, env={**os.environ, "TMPDIR": str(tmp)})
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"[perfbench] build step failed: {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"[perfbench] no simulator sources under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    # One build at a time per checkout; a second run waits for the first.
    with open(BUILD_ROOT / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            generator = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
            run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-G", generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
        run_logged(["cmake", "--build", str(BUILD_DIR), "--target", "rsd_perfbench",
                    "-j", str(os.cpu_count() or 1)], BUILD_TIMEOUT_S)
    build_type = ""
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type not in OPTIMISED:
        log(f"WARNING: build type '{build_type}' is not optimised; timings are not comparable")
    return build_type


def git_commit():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def source_digest():
    """SHA-256 over the sources the driver is built from."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_type = build()

    # Hermetic environment: no RSD_* knob from the shell reaches the driver.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RSD_")}
    stripped = sorted(k for k in os.environ if k.startswith("RSD_"))
    if stripped:
        log(f"removed from the environment: {', '.join(stripped)}")

    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = BUILD_ROOT / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"[perfbench] driver exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"[perfbench] driver exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit("[perfbench] driver printed a malformed result line")

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_digest": source_digest(),
        "build_type": build_type,
        "rsd_env_removed": stripped,
    }
    for line in lines[:-1]:
        print(line)
    print("[perfbench] meta " + json.dumps(meta, sort_keys=True))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
