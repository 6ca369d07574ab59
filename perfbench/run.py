#!/usr/bin/env python3
"""Build the ldx benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload fig6|campaign|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The harness and the `ldx` CLI are
built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the first run builds, later runs reuse the
build. Build output goes to stderr; the harness's stdout is passed
through, and its last line is the JSON result. See perfbench/README.md.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up, warm-up, the last round and the output checks take at most
# this long beyond the measured --seconds.
HARNESS_MARGIN_S = 120


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "ldx_perfbench", "ldx"],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fig6", "campaign", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "tools", "ldx_cli.cc"))):
        print("perfbench: the ldx sources (src/, tools/) are not next to "
              "perfbench/", file=sys.stderr)
        return 2

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(base, "perfbench")
    work_dir = os.path.join(base, "work")
    os.makedirs(work_dir, exist_ok=True)
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    # A relative work directory keeps the daemon's socket path short.
    cmd = [os.path.join(build_dir, "ldx_perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--ldx", os.path.join(build_dir, "ldx_tools", "ldx"),
           "--golden-dir", os.path.join(ROOT, "src", "workloads", "corpus"),
           "--work-dir", os.path.relpath(work_dir)]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=a.seconds + HARNESS_MARGIN_S)
    except subprocess.TimeoutExpired:
        print("perfbench: harness timed out", file=sys.stderr)
        return 3
    finally:
        # The harness's process group includes any `ldx serve` child.
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
