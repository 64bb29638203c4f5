#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline|screen|watchdog \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench-<hash of this directory's path>
(default .bench_build/...) under the current directory, so checkouts sharing
one build root never build each other's sources; traced runs write their
Chrome trace and self-time table to .bench_out/. The driver's stdout is
passed through: its last line is the result object. A missing source tree or
a failed build exits non-zero without printing a result.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_id():
    """Git sha when the tree is a checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    files = []
    for top in ("src", "perfbench"):
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            if os.path.basename(dirpath) != "__pycache__":
                files += [os.path.join(dirpath, n) for n in names]
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at " + os.path.join(ROOT, "src"))
    tree = hashlib.sha256(HERE.encode()).hexdigest()[:12]
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench-" + tree)
    build_dir = os.path.abspath(build_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    binary = build()
    args = [binary] + sys.argv[1:] + ["--source-id", source_id()]
    sys.exit(subprocess.run(args).returncode)


if __name__ == "__main__":
    main()
