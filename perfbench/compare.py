#!/usr/bin/env python3
"""Compare two sets of perfbench runs, one workload per row.

    python3 perfbench/compare.py BASE.log NEW.log [--cross-host]

Each log holds the standard output of one or more perfbench runs (the
`{"perfbench": ...}` report lines are read; anything else is skipped).
Reports whose host fingerprints differ (nproc, CPU model, rustc, kernel
path, shard count) are not compared: the script exits 2, unless
--cross-host is given, in which case every row is labelled CROSS-HOST.

For each end-to-end metric it prints both medians over the runs, the
change, the base side's spread (quartile distance over median) and a
verdict: "no change" when the change is within the bound from
BENCHMARK.json or within the base spread, "unresolved" when the base
spread is wider than the bound, else "better"/"worse". Counters that must
repeat exactly (the per-layer `exact` metrics) are compared per seed.
"""

import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "cpu_model", "rustc", "kernel", "shards")


def reports(path):
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line.startswith('{"perfbench":'):
                out.append(json.loads(line)["perfbench"])
    if not out:
        sys.exit(f"{path}: no perfbench report lines")
    return out


def host_of(report):
    return tuple(report["host"][k] for k in HOST_KEYS)


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main(argv):
    args = [a for a in argv if not a.startswith("--")]
    cross_host_ok = "--cross-host" in argv
    if len(args) != 2:
        sys.exit(__doc__)
    base, new = reports(args[0]), reports(args[1])
    hosts = {host_of(r) for r in base + new}
    label = ""
    if len(hosts) > 1:
        detail = "\n".join(f"  {dict(zip(HOST_KEYS, h))}" for h in sorted(hosts, key=str))
        if not cross_host_ok:
            print(f"refusing to compare reports from different hosts:\n{detail}", file=sys.stderr)
            return 2
        label = "CROSS-HOST "
        print(f"CROSS-HOST comparison; ratios mix host and code effects:\n{detail}")
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        b = [r for r in base if r["workload"] == workload and not r["trace"]]
        n = [r for r in new if r["workload"] == workload and not r["trace"]]
        if not b or not n:
            continue
        print(f"\n{label}{workload}: {len(b)} base runs, {len(n)} new runs")
        for m in spec["end_to_end"]:
            bv = [r["metrics"][m["name"]]["value"] for r in b]
            nv = [r["metrics"][m["name"]]["value"] for r in n]
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / bm if bm else 0.0
            worse = change > 0 if m["better"] == "lower" else change < 0
            s = spread(bv)
            if abs(change) <= s:
                verdict = "no change"
            elif s > m["bound"]:
                verdict = "unresolved"
            elif not worse:
                verdict = "better"
            else:
                verdict = "worse" if abs(change) > m["bound"] else "no change (within bound)"
            print(f"  {m['name']:<14} {bm:>12.5g} -> {nm:>12.5g} {m['unit']:<5} "
                  f"{change:+8.2%}  base spread {s:6.2%}  {verdict}")
        seeds_b = {r["seed"]: r for r in base if r["workload"] == workload and r["trace"]}
        seeds_n = {r["seed"]: r for r in new if r["workload"] == workload and r["trace"]}
        for seed in sorted(set(seeds_b) & set(seeds_n)):
            diffs = [k for k, v in seeds_b[seed]["metrics"].items()
                     if v.get("exact") and v["value"] != seeds_n[seed]["metrics"][k]["value"]]
            print(f"  seed {seed} counters: {'identical' if not diffs else 'changed: ' + ', '.join(diffs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
