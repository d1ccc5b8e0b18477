#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seconds S]

Run from the root of a source checkout. It checks that

  * every workload runs briefly with --trace 0 and --trace 1, exits 0,
    and prints a last line with exactly the keys correct / attempted /
    failed / metrics, where metrics holds every end-to-end (resp.
    per-layer) metric of BENCHMARK.json, each with its unit and a
    finite value;
  * a deliberately corrupted hull (--corrupt) is caught: in-process on
    bulk-disk and over the wire on serve-mixed, the run reports
    correct=false and exits 1;
  * without the program's sources (only BENCHMARK.json and perfbench/
    copied into an empty directory) run.py exits non-zero and prints no
    result line.

Exits 0 when every check passes.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(args, cwd=ROOT):
    p = subprocess.run([sys.executable, RUN] + args, cwd=cwd, text=True,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p.returncode, result, p.stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", default="2")
    secs = ap.parse_args().seconds
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{w['name']} --trace {trace}"
            rc, res, err = run(["--workload", w["name"], "--seed", "7", "--seconds", secs,
                                "--trace", str(trace)])
            if rc != 0 or res is None:
                check(False, f"{what}: exit {rc}\n{err[-2000:]}")
                continue
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  f"{what}: result keys")
            check(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{what}: correct, nothing failed")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = res["metrics"]
            check(sorted(got) == sorted(want), f"{what}: every {key} metric printed")
            bad = [n for n in want if n in got and not (
                got[n].get("unit") == want[n] and isinstance(got[n].get("value"), (int, float))
                and math.isfinite(got[n]["value"]))]
            check(not bad, f"{what}: units and values {bad or ''}")
            if trace == 0:
                zero = [n for n in want if n in got and got[n]["value"] == 0]
                check(not zero, f"{what}: no end-to-end metric is 0 {zero or ''}")

    for name in ("bulk-disk", "serve-mixed"):
        rc, res, _ = run(["--workload", name, "--seed", "7", "--seconds", "1",
                          "--trace", "0", "--corrupt"])
        check(rc == 1 and res is not None and res["correct"] is False and res["failed"] >= 1,
              f"{name}: corrupted hull caught (exit {rc})")

    bare = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bulk-disk",
                        "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare, text=True,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=180,
                       env={k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"})
    check(p.returncode != 0 and '"metrics"' not in p.stdout,
          f"no sources: exit {p.returncode}, no result line")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
