#!/usr/bin/env python3
"""Build and run the BitSpec benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold-suite|run-grid|misspec-storm \
        --seed N --seconds S --trace 0|1

`--workload all` runs every workload BENCHMARK.json lists, one after
the other, and exits non-zero if any of them failed.

The first run configures and builds perfbench/ (the repository's
libraries plus bitspec_bench) into .bench_build/; later runs rebuild
incrementally. Build output goes to stderr, so the last line of stdout
is bitspec_bench's JSON result. Every inherited BITSPEC_* variable is
removed from its environment and named in its stamp line.
"""

import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def build():
    """Configure once, then build bitspec_bench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: BitSpec sources not found at %s" % (ROOT / "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "bitspec_bench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return BUILD / "bitspec_bench"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("run.py: build failed: %s" % e)
    cleared = sorted(k for k in os.environ if k.startswith("BITSPEC_"))
    env = {k: v for k, v in os.environ.items() if k not in cleared}
    argv = sys.argv[1:]
    pairs = dict(zip(argv, argv[1:]))
    common = ["--work-dir", str(BUILD), "--git-sha", git_sha(),
              "--env-cleared", ",".join(cleared) or "-"]

    def bench_args(workload):
        args = [str(exe)] + argv + common
        if "--workload" in pairs:
            args[argv.index("--workload") + 2] = workload
        if pairs.get("--trace") == "1":
            args += ["--trace-out", str(BUILD / ("trace-%s.json" % workload))]
        return args

    sys.stdout.flush()
    os.chdir(ROOT)
    workload = pairs.get("--workload", "")
    if workload == "all":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        rc = 0
        for wl in spec["workloads"]:
            rc |= subprocess.run(bench_args(wl["name"]), env=env).returncode
        sys.exit(rc)
    # Replace this process: bitspec_bench is then the only process left
    # to stop, and its exit code is the benchmark's.
    os.execve(str(exe), bench_args(workload), env)


if __name__ == "__main__":
    main()
