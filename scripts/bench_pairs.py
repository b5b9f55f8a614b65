#!/usr/bin/env python3
"""Run the benchmark in pairs: this checkout against a second one.

    python3 scripts/bench_pairs.py --parent PATH --workload W
        [--seeds 1 2 ... 10]

For each seed, runs `perfbench/run.py --trace 0` for the workload, at
perfbench's default length, once in the parent checkout at PATH and once
in this one (the change), one run at a time.  The parent runs first at odd
seeds and second at even ones, so a drift in the host's speed falls on
both sides.  Prints each pair's end-to-end metrics and whether the two
runs' outcome digests agree.  Then, for each end-to-end metric of this
checkout's BENCHMARK.json (which also says whether higher is better), it
prints each side's median and quartiles, the number of pairs the change
won (ties count for neither side) and whether a gain may be claimed: the
change must win at least nine tenths of the pairs, and the medians must
differ by more than the parent's interquartile range.

Pointed at a second copy of the same tree, it measures the A/A spread:
how far two runs of identical code drift apart on this host.  The script
exits 1 when any run failed.
"""

import argparse
import json
import math
import runpy
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# bench_record.py knows how a perfbench run is started and read
_RECORD = runpy.run_path(str(ROOT / "scripts" / "bench_record.py"))
run_one, quartiles = _RECORD["run_one"], _RECORD["quartiles"]


def verdict(parent, change, higher_better):
    """The pairs the change won, and whether a gain may be claimed."""
    sign = 1 if higher_better else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - median)
    return wins, wins >= math.ceil(0.9 * len(parent)) and gap > q3 - q1


def end_to_end():
    """{name: whether higher is better} of BENCHMARK.json's end-to-end
    metrics."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] == "higher" for m in bench["end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", nargs="+", type=int,
                    default=list(range(1, 11)))
    args = ap.parse_args(argv)
    metrics = end_to_end()
    sides = {"parent": args.parent.resolve(), "change": ROOT}

    # side -> metric -> one value per pair
    runs = {side: {m: [] for m in metrics} for side in sides}
    failed = False
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        digests = {}
        for side in order:
            code, result, record = run_one(args.workload, seed,
                                           checkout=sides[side])
            failed |= code != 0
            digests[side] = record["digest"]
            for m, vs in runs[side].items():
                vs.append(result["metrics"][m]["value"])
        pairs = ", ".join(f"{m} {runs['parent'][m][-1]:.6g}/"
                          f"{runs['change'][m][-1]:.6g}" for m in metrics)
        print(f"seed {seed} ({order[0]} first), parent/change: {pairs}; "
              "digests " + ("equal" if digests["parent"] == digests["change"]
                            else "differ"))
    for m, higher in metrics.items():
        parent, change = runs["parent"][m], runs["change"][m]
        sides_text = "; ".join(
            f"{side} median {q2:.6g}, quartiles {q1:.6g} .. {q3:.6g}"
            for side, (q1, q2, q3) in (("parent", quartiles(parent)),
                                       ("change", quartiles(change))))
        wins, holds = verdict(parent, change, higher)
        print(f"{m} ({'higher' if higher else 'lower'} is better): "
              f"{sides_text}; the change won {wins} of {len(args.seeds)} "
              "pairs; a gain " + ("may" if holds else "may not")
              + " be claimed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
