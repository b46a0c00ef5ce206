#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

The first call configures and builds the repository's library, the
fidelity_service daemon and the perfbench binary (Release) under
.bench_build/; later calls only rebuild what changed.  Build output
goes to stderr, so the last line of stdout is the JSON result.
The run is tagged with the git SHA (``none`` outside a git checkout)
and a SHA-256 digest of the sources it measured.  Any further options
(``--smoke``, ``--reference-seed-offset K``) are passed to perfbench.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
SOURCES = ("CMakeLists.txt", "src", "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr) != 0:
        fail("build failed")


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def source_digest():
    h = hashlib.sha256()
    files = []
    for top in SOURCES:
        if os.path.isfile(top):
            files.append(top)
            continue
        for d, dirs, names in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            files.extend(os.path.join(d, n) for n in names)
    for f in sorted(files):
        h.update(f.encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    os.chdir(ROOT)
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(need):
            fail("no %s: run from the root of a full checkout" % need)
    build()
    binary = os.path.join(BUILD, "perfbench")
    args = [binary] + sys.argv[1:] + ["--git-sha", git_sha(),
                                      "--source-digest", source_digest()]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    main()
