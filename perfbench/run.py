#!/usr/bin/env python3
"""Builds and runs the designer's end-to-end benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run it from the root of a source tree. The first run configures and
builds the benchmark (perfbench/CMakeLists.txt, which compiles the
designer from ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is always the result of the last workload. A "# host" line
records the host fingerprint with the numbers. Each workload runs in a
process of its own; `all` runs every workload of BENCHMARK.json in turn.

--selftest builds and runs the checker's self-test instead.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# One workload's run may take this long once built (checks included).
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / base / "perfbench").resolve()


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        jobs = str(len(os.sched_getaffinity(0)))
        subprocess.run(["cmake", "--build", str(out), "--target", target,
                        "-j", jobs], stdout=sys.stderr, check=True)
    binary = out / target
    if not binary.exists():
        raise RuntimeError(f"{binary} was not built")
    return binary


def cmake_cache(key):
    try:
        text = (build_dir() / "CMakeCache.txt").read_text()
    except OSError:
        return "unknown"
    m = re.search(rf"^{re.escape(key)}:[A-Z]+=(.*)$", text, re.M)
    return m.group(1) if m else "unknown"


def host_fingerprint():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or "unknown"
    compiler = "unknown"
    cxx = cmake_cache("CMAKE_CXX_COMPILER")
    if cxx != "unknown":
        try:
            compiler = subprocess.run([cxx, "--version"], capture_output=True,
                                      text=True).stdout.splitlines()[0]
        except (OSError, IndexError):
            compiler = cxx
    revision = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            revision = r.stdout.strip()
    # The revision of the sources actually built, git or not.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_revision": revision,
        "source_sha256": digest.hexdigest()[:16],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "core" / "session.h").exists():
        log(f"designer sources not found under {ROOT / 'src'}")
        return 2
    try:
        if args.selftest:
            return subprocess.run([str(build("perfbench_checker_test"))]).returncode
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        binary = build("perfbench")
    except (RuntimeError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    print("# host " + json.dumps(host_fingerprint(), sort_keys=True), flush=True)
    scratch = build_dir() / "run-tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    workloads = [args.workload]
    if args.workload == "all":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in spec["workloads"]]
    status = 0
    for workload in workloads:
        cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--scratch", str(scratch)]
        proc = subprocess.Popen(cmd)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log(f"{workload} exceeded {RUN_TIMEOUT_S} s and was stopped")
            code = 3
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
