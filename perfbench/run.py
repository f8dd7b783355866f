#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and compiles the library and the driver (CMake,
Release) into the directory named by CARGO_TARGET_DIR, or .bench_build when
it is unset; later calls only re-check the build. Build output goes to
standard error. Standard output carries the driver's host line and, last,
its one-line JSON result. The exit code is the driver's: 0 only when every
output passed its check.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd):
            # A half-configured tree would be reused by the next call.
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", out, "--target", "sjoin_perfbench", "-j", jobs]):
        return None
    return os.path.join(out, "sjoin_perfbench")


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    trace = "--trace" in argv and argv[argv.index("--trace") + 1 :][:1] == ["1"]
    binary = build(build_dir())
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([binary] + argv, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        print("perfbench: driver did not finish", file=sys.stderr)
        return 1
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        reported = {(name, m["unit"]) for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        print("perfbench: driver printed no result", file=sys.stderr)
        return 1
    if reported != declared_metrics(trace):
        print("perfbench: driver metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    sys.exit(main(sys.argv[1:]))
