#!/usr/bin/env python3
"""Build the corona benchmark harness from source and run one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --self-test

Run from the repository root. The harness (benchmark/CMakeLists.txt)
builds the simulator library from the repository's own sources into
.bench_build/ (or $CARGO_TARGET_DIR when set) in Release mode, then runs
the workload; the last stdout line is the JSON result. Scratch files
(the synthesized trace, observability output) live in a per-process
directory under the build directory and are removed afterwards; traced
runs (--trace 1) leave their spans under <build>/spans/ as Chrome trace
JSON for the Perfetto UI.

--self-test runs every workload once on a tiny budget, with and without
a forced mismatch in its exactness check, and fails unless the clean
run reports no failed cells and the forced mismatch reports some.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["paper-sweep", "xbar256-sharded", "coherent-sharing", "trace-observed"]


def fail(message):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no simulator sources next to {BENCH_DIR.name}/ (expected "
             f"CMakeLists.txt and src/ in {ROOT})")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out), "--target",
                       "corona-benchmark", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "corona-benchmark"


def git_sha():
    """HEAD of the checkout, or "none" outside a git work tree (the
    search never leaves the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, env=env)
    except OSError:
        return "none"
    return result.stdout.strip() if result.returncode == 0 else "none"


def source_digest():
    """sha256 over the simulator sources (path and bytes), so results
    from a checkout without git history still name the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_harness(binary, args, capture=False):
    """Run the harness in a private scratch directory; never leave it
    running."""
    work = build_dir() / "work" / f"run-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    # Relative to the checkout, so the scenario text never carries the
    # checkout's own path (which may contain spaces).
    command = [str(binary), *args, "--work-dir", os.path.relpath(work, ROOT),
               "--span-dir", os.path.relpath(build_dir() / "spans", ROOT),
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    child = subprocess.Popen(command, cwd=ROOT,
                             stdout=subprocess.PIPE if capture else None,
                             text=capture)
    try:
        stdout, _ = child.communicate()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(work, ignore_errors=True)
    return child.returncode, stdout


def self_test(binary):
    ok = True
    for workload in WORKLOADS:
        results = {}
        for inject in (False, True):
            args = ["--workload", workload, "--seed", "1", "--seconds", "0",
                    "--trace", "0", "--budget", "tiny"]
            if inject:
                args.append("--inject-mismatch")
            code, stdout = run_harness(binary, args, capture=True)
            if code != 0:
                print(f"self-test {workload}: harness exited {code}")
                ok = False
                break
            results[inject] = json.loads(stdout.strip().splitlines()[-1])
        if len(results) != 2:
            continue
        clean, forced = results[False], results[True]
        passed = (clean["failed"] == 0 and clean["correct"]
                  and forced["failed"] > 0 and not forced["correct"]
                  and forced["metrics"]["cells_ok_frac"]["value"] < 1.0)
        ok = ok and passed
        print(f"self-test {workload}: clean {clean['failed']}/"
              f"{clean['attempted']} failed, forced mismatch "
              f"{forced['failed']}/{forced['attempted']} failed: "
              f"{'ok' if passed else 'FAILED'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test(build()))
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    binary = build()
    code, _ = run_harness(binary, ["--workload", args.workload,
                                   "--seed", str(args.seed),
                                   "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)])
    sys.exit(code)


if __name__ == "__main__":
    main()
