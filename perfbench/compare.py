"""Summarise or compare benchmark result records written by run.py.

    python3 perfbench/compare.py DIR           # one set: median, quartiles, spread
    python3 perfbench/compare.py BASE CHANGE   # two sets: verdict per metric

A set is a directory of `<workload>-seed<n>-trace<t>.json` records, one per
run. For each workload and end-to-end metric it prints the median and the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, the
interquartile distance as a share of the median. Comparing two sets, each
row gets a verdict using the bounds in BENCHMARK.json:

- `worse`: the change's median is worse than the base's by more than the
  bound, with both spreads within the bound;
- `better`: the change's median is better by more than the base's
  interquartile distance and the change wins at least 9 in 10 pairs (runs
  paired by seed when both sets have the seed, else all pairs);
- `unresolved`: a spread exceeds the bound and neither set's runs all beat
  the other's;
- `within bound` otherwise.

Traced records (`trace1`) give per-layer medians; two sets print their deltas.
"""
from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict[tuple[str, int], list[dict]]:
    """Records grouped by (workload, trace)."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace[01].json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def series(recs: list[dict], metric: str) -> dict[int, float]:
    return {r["seed"]: r["metrics"][metric]["value"] for r in recs if metric in r["metrics"]}


def verdict(base: dict[int, float], change: dict[int, float], better: str,
            bound: float) -> str:
    a, b = list(base.values()), list(change.values())
    sign = 1 if better == "lower" else -1

    def beats(x: float, y: float) -> bool:  # x is better than y
        return sign * (x - y) < 0

    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    if max(spread(a), spread(b)) > bound:
        if all(beats(y, x) for x in a for y in b):
            return "better"
        if all(beats(x, y) for x in a for y in b):
            return "worse"
        return "unresolved"
    worse_by = sign * (b_med - a_med) / a_med if a_med else 0.0
    if worse_by > bound:
        return "worse"
    common = sorted(set(base) & set(change))
    pairs = [(base[s], change[s]) for s in common] or [(x, y) for x in a for y in b]
    wins = sum(beats(y, x) for x, y in pairs)
    if beats(b_med, a_med) and abs(b_med - a_med) > a_q3 - a_q1 and wins >= 0.9 * len(pairs):
        return "better"
    return "within bound"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sets = [load(d) for d in argv]
    workloads = [w["name"] for w in spec["workloads"]]
    env = next((r["env"] for g in sets[-1].values() for r in g), None)
    if env:
        print("environment:", json.dumps({k: v for k, v in env.items() if k != "seed"}))
    print("end-to-end (untraced runs)")
    for wl in workloads:
        recs = [s.get((wl, 0), []) for s in sets]
        if not all(recs):
            continue
        for m in spec["end_to_end"]:
            cols = []
            for rs in recs:
                vals = list(series(rs, m["name"]).values())
                q1, med, q3 = quartiles(vals)
                cols.append(f"{med:12.5g} [{q1:.5g}, {q3:.5g}] spread {spread(vals):6.3f} n={len(vals)}")
            row = f"{wl:19s} {m['name']:17s} {m['unit']:6s} " + " | ".join(cols)
            if len(recs) == 2:
                row += "  " + verdict(series(recs[0], m["name"]), series(recs[1], m["name"]),
                                      m["better"], m["bound"])
            elif len(recs[0]) >= 2 and m["name"] != "setup_s":
                s = spread(list(series(recs[0], m["name"]).values()))
                row += f"  bound {m['bound']}: " + (
                    "ok" if s < m["bound"] / 3 else "within" if s <= m["bound"] else "TOO WIDE")
            print(row)
        failed = [sum(r["failed"] for r in rs) for rs in recs]
        print(f"{wl:19s} failed ops: {failed}; refused rungs: {recs[-1][0].get('refused')}")
    print("per-layer (traced runs, medians)")
    for wl in workloads:
        recs = [s.get((wl, 1), []) for s in sets]
        if not all(recs):
            continue
        for m in spec["per_layer"]:
            meds = [statistics.median(series(rs, m["name"]).values()) for rs in recs]
            if not any(meds):
                continue
            row = f"{wl:19s} {m['name']:48s} {m['unit']:6s} " + " ".join(f"{v:12.5g}" for v in meds)
            if len(meds) == 2 and meds[0]:
                row += f"  {100 * (meds[1] - meds[0]) / meds[0]:+7.1f}%"
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
