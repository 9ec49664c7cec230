"""Summarise one set of benchmark results, or compare two.

    python3 perfbench/compare.py BASE [CHANGE]

Each argument is a directory of results written by ``run.py --save``.  For
each workload and metric it prints the median and quartiles of each set.
With one set the last column is the spread, (q3 - q1) / median, against
the metric's bound from BENCHMARK.json.  With two sets it adds the share of
seed-matched pairs that CHANGE won (ties count for neither) and a verdict:

- ``worse``: CHANGE's median is worse than BASE's by more than the bound
- ``better``: CHANGE won at least 9/10 of the pairs and the medians differ
  by more than BASE's quartile spread
- ``unresolved``: BASE's spread exceeds the bound and not every CHANGE run
  beat every BASE run
- ``same``: none of these

Per-layer metrics have no bound; they get the medians and the pair share.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load(directory):
    """{(workload, metric): {seed: value}} and {workload: [failed shares]}."""
    values = defaultdict(dict)
    failed = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as fh:
            doc = json.load(fh)
        res = doc["result"]
        failed[doc["workload"]].append(res["failed"] / res["attempted"])
        if not res["correct"]:
            print(f"warning: {path} is marked incorrect", file=sys.stderr)
        for name, m in res["metrics"].items():
            values[(doc["workload"], name)][doc["seed"]] = m["value"]
    return values, failed


def quartiles(vals):
    vals = sorted(vals)
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(vals):
    q1, q2, q3 = quartiles(vals)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(base, change, bound, lower_better):
    """Share of seed-matched pairs CHANGE won, and the verdict."""
    sign = 1.0 if lower_better else -1.0
    seeds = sorted(set(base) & set(change))
    wins = sum(sign * (change[s] - base[s]) < 0 for s in seeds)
    share = wins / len(seeds) if seeds else float("nan")
    if bound is None:
        return share, "-"
    b1, bm, b3 = quartiles(base.values())
    cm = quartiles(change.values())[1]
    worse_by = sign * (cm - bm) / abs(bm) if bm else sign * (cm - bm)
    if worse_by > bound:
        return share, "worse"
    if share >= WIN_SHARE and abs(cm - bm) > b3 - b1:
        return share, "better"
    beats_all = (max(sign * v for v in change.values())
                 < min(sign * v for v in base.values()))
    if spread(base.values()) > bound and not beats_all:
        return share, "unresolved"
    return share, "same"


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, base_failed = load(argv[0])
    change, change_failed = (load(argv[1]) if len(argv) == 2 else ({}, {}))
    for w in sorted(base_failed):
        line = f"{w}: failed share {sorted(set(base_failed[w]))}"
        if w in change_failed:
            line += f" -> {sorted(set(change_failed[w]))}"
        print(line)
    for (w, name), vals in sorted(base.items()):
        spec = specs.get(name, {})
        bound = spec.get("bound")
        q1, q2, q3 = quartiles(vals.values())
        line = (f"{w:9s} {name:28s} n={len(vals):2d} "
                f"median {q2:11.5g} [{q1:.5g}, {q3:.5g}]")
        if (w, name) in change:
            other = change[(w, name)]
            c1, c2, c3 = quartiles(other.values())
            share, word = verdict(vals, other, bound,
                                  spec.get("better", "lower") == "lower")
            line += (f" -> {c2:11.5g} [{c1:.5g}, {c3:.5g}] "
                     f"won {share:4.0%} {word}")
        elif bound is not None:
            s = spread(vals.values())
            line += (f" spread {s:6.2%} of bound {bound:.0%}"
                     f"{'' if s <= bound / 3 else '  (above a third)'}")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
