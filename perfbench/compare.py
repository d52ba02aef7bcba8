#!/usr/bin/env python3
"""Compares two sets of benchmark runs: parent and change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the saved standard output of runs of
perfbench/run.py, one file per run (any name ending in .out or .txt).
A file may hold several workloads (--workload all). For every workload
and metric the report gives each side's median and quartiles, the
share of pairs the change wins (runs paired by seed, ties counting for
neither side), and a verdict against the metric's bound and better
direction in BENCHMARK.json:

  unresolved      either side's quartile spread exceeds the bound and
                  not every change run is better (or worse) than every
                  parent run
  regression      the change's median is worse than the parent's by
                  more than the bound
  better / worse  the change wins (loses) at least nine pairs in ten and
                  the medians differ by more than the parent's own
                  quartile spread, or every change run is better (worse)
                  than every parent run; a "worse" stays within the bound
  same            none of the above

Per-layer metrics (traced runs) have no bound; they are reported with
medians only. The exit code is 1 when any metric regresses.
"""

import json
import re
import statistics
import sys
from pathlib import Path

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
HEADER = re.compile(r"^# workload (\S+) seed (\d+)")


def load_runs(directory):
    """{workload: {seed: {metric: value}}} from every run file."""
    runs = {}
    files = sorted(p for p in Path(directory).iterdir()
                   if p.suffix in (".out", ".txt"))
    if not files:
        raise SystemExit(f"compare: no .out or .txt run files in {directory}")
    for path in files:
        workload = seed = None
        for line in path.read_text().splitlines():
            m = HEADER.match(line)
            if m:
                workload, seed = m.group(1), int(m.group(2))
                continue
            if line.startswith("{") and workload is not None:
                result = json.loads(line)
                if not result.get("correct", False):
                    print(f"warning: {path.name} {workload}: correct=false",
                          file=sys.stderr)
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                runs.setdefault(workload, {})[seed] = metrics
                workload = None
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, spec):
    """Returns (share of pairs the change won, verdict) for paired runs."""
    sign = 1.0 if spec.get("better", "lower") == "lower" else -1.0
    gains = [sign * (p - c) for p, c in zip(parent, change)]  # > 0: change better
    won = sum(g > 0 for g in gains) / len(gains) if gains else 0.0
    lost = sum(g < 0 for g in gains) / len(gains) if gains else 0.0
    if "bound" not in spec:
        return won, ""
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    p_spread = (pq3 - pq1) / abs(pmed) if pmed else 0.0
    c_spread = (cq3 - cq1) / abs(cmed) if cmed else 0.0
    gain = sign * (pmed - cmed) / abs(pmed) if pmed else 0.0
    better_all = all(sign * (p - c) > 0 for p in parent for c in change)
    worse_all = all(sign * (p - c) < 0 for p in parent for c in change)
    if max(p_spread, c_spread) > spec["bound"] and not (better_all or worse_all):
        return won, "unresolved"
    if -gain > spec["bound"]:
        return won, "regression"
    if won >= 0.9 and (gain > p_spread or better_all):
        return won, "better"
    if lost >= 0.9 and (-gain > p_spread or worse_all):
        return won, "worse"
    return won, "same"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCH_JSON.read_text())
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_runs(argv[1]), load_runs(argv[2])
    regressed = False
    print(f"{'workload':15s} {'metric':34s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'won':>5s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        seeds = sorted(set(p_runs) & set(c_runs))
        if seeds:
            p_list = [p_runs[s] for s in seeds]
            c_list = [c_runs[s] for s in seeds]
        else:  # different seeds: pair in file order
            p_list, c_list = list(p_runs.values()), list(c_runs.values())
        names = [n for n in specs if n in p_list[0] and n in c_list[0]]
        for name in names:
            pv = [r[name] for r in p_list if name in r]
            cv = [r[name] for r in c_list if name in r]
            won, v = verdict(pv, cv, specs[name])
            regressed |= v == "regression"
            fmt = lambda q: "%9.4g/%9.4g/%9.4g" % q
            print(f"{workload:15s} {name:34s} {fmt(quartiles(pv)):>30s} "
                  f"{fmt(quartiles(cv)):>30s} {won:5.2f}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
