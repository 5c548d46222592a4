#!/usr/bin/env python3
"""Smoke test of bitspec_bench.

    python3 perfbench/smoke_test.py [path/to/bitspec_bench]

Runs every workload in --smoke mode (two programs, one pass) with
tracing off and on, and checks that each metric BENCHMARK.json names
is printed with its unit, that no cell failed, and that the JSON
result is the last line. Without an argument it builds bitspec_bench
through run.py first. Exits non-zero on the first problem.
"""

import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    if len(sys.argv) > 1:
        exe = sys.argv[1]
    else:
        sys.path.insert(0, str(HERE))
        import run
        exe = str(run.build())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BITSPEC_")}
    work = ROOT / ".bench_build"
    work.mkdir(exist_ok=True)
    for wl in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            cmd = [exe, "--workload", wl["name"], "--seed", "0",
                   "--seconds", "1", "--trace", trace, "--smoke",
                   "--work-dir", str(work)]
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 env=env, cwd=ROOT)
            where = "%s --trace %s" % (wl["name"], trace)
            if out.returncode != 0:
                sys.exit("FAIL %s: exit %d\n%s" % (where, out.returncode,
                                                   out.stderr))
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                sys.exit("FAIL %s: %d of %d cells failed\n%s" % (
                    where, result["failed"], result["attempted"],
                    out.stderr))
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    sys.exit("FAIL %s: metric %s missing or not in %s" % (
                        where, m["name"], m["unit"]))
                if ("metric %s " % m["name"]) not in out.stdout:
                    sys.exit("FAIL %s: metric %s not printed" % (
                        where, m["name"]))
            if trace == "0" and "# fail_share 0 " not in out.stdout:
                sys.exit("FAIL %s: fail_share is not 0" % where)
            print("ok %s (%d cells)" % (where, result["attempted"]))


if __name__ == "__main__":
    main()
