#!/usr/bin/env python3
"""Compare two sets of saved benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the files run.py saves under
<build>/perfbench-results/ (one JSON per run: provenance + result).
For every workload and end-to-end metric present in both sets it prints
the median of each side, the change, and whether the change exceeds the
metric's bound in BENCHMARK.json ("worse" is judged by the metric's
"better" direction). Runs whose result is not correct (a wrong hull, a
failed request or counters that did not reconcile) are left out and
counted. Comparing results whose provenance differs in
anything but the commit, the source digest and the seed is refused: two
outputs from different machines, compilers, build types, thread counts
or offered rates do not measure the same thing.

Exit codes: 0 no metric worse than its bound, 1 some metric worse, 2
usage error or provenance mismatch.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MAY_DIFFER = {"git_commit", "source_digest", "seed"}


def load(d):
    runs = {}
    skipped = 0
    for path in sorted(glob.glob(os.path.join(d, "*-trace0.json"))):
        with open(path) as f:
            doc = json.load(f)
        if doc["result"]["correct"] is not True:
            skipped += 1
            continue
        prov = doc["provenance"]
        runs.setdefault(prov["workload"], []).append(doc)
    if skipped:
        print(f"{d}: left out {skipped} run(s) whose result is not correct", file=sys.stderr)
    return runs


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, new = load(argv[1]), load(argv[2])
    worse = 0
    for w in sorted(set(base) & set(new)):
        for a in base[w]:
            for b in new[w]:
                diff = {k for k in set(a["provenance"]) | set(b["provenance"])
                        if k not in MAY_DIFFER and a["provenance"].get(k) != b["provenance"].get(k)}
                if diff:
                    print(f"refusing to compare {w}: provenance differs in {sorted(diff)}",
                          file=sys.stderr)
                    return 2
        print(f"{w}: {len(base[w])} base run(s), {len(new[w])} new run(s)")
        for name, spec in bench.items():
            va = [r["result"]["metrics"][name]["value"] for r in base[w]]
            vb = [r["result"]["metrics"][name]["value"] for r in new[w]]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else 0.0
            bad = change > spec["bound"] if spec["better"] == "lower" else -change > spec["bound"]
            worse += bad
            print(f"  {name:20s} {ma:12.5g} -> {mb:12.5g} {spec['unit']:8s} {change:+8.1%}"
                  f"{'  WORSE than bound ' + format(spec['bound'], '.0%') if bad else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
