#!/usr/bin/env python3
"""Alternating pairs of perfbench runs on two checkouts, summarised as in a BENCH_*.json.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds S [S ...]

For each seed, `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
runs from the root of each checkout, with the workloads W and the run length T
that BENCHMARK.json declares, one side after the other: the parent first
in even pairs, the change first in odd ones, so a drift in the machine's speed
falls on both sides alike. Standard output gets one JSON object, keyed by the
seed range, with per end-to-end metric each side's median, quartiles (linear,
as numpy.percentile), IQR and n, the pairs in which the change was lower, the
median's relative change and whether the two IQRs overlap; then the runs that
were not correct, the failed commands per side and every pair's values.
Progress goes to standard error. The checkouts are not changed, apart from the
`perfbench/out/` each run writes.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]


def run_perfbench(root, workload, seed):
    """(metrics {name: value}, correct, failed commands) of one perfbench run in `root`."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
                           "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_pairs: perfbench in {root} exited {proc.returncode} "
                         f"(seed {seed})")
    report = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in report["metrics"].items()}
    return metrics, report["correct"], report["failed"]


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3),
            "iqr": round(q3 - q1, 3), "n": len(values)}


def summarise(pairs, incorrect, failed):
    """The per-metric statistics block of a BENCH_*.json workload entry."""
    block = {}
    for name in END_TO_END:
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        parent, change = (quartiles(values[side]) for side in SIDES)
        lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
        block[name] = {
            "parent": parent, "change": change,
            "pairs_change_lower": f"{lower}/{len(pairs)}",
            "median_change_vs_parent": round(change["median"] / parent["median"] - 1, 4),
            "overlap_of_iqrs": not (change["q3"] < parent["q1"] or parent["q3"] < change["q1"]),
        }
    block["incorrect_runs"] = incorrect
    block["failed_commands"] = failed
    block["pairs"] = pairs
    return block


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent commit's checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent, "change": args.change}
    for side, root in roots.items():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {root} has no perfbench/run.py")
    pairs, incorrect, failed = [], {s: [] for s in SIDES}, {s: 0 for s in SIDES}
    for i, seed in enumerate(args.seeds):
        pair = {"pair": i, "seed": seed, "first": SIDES[i % 2]}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            metrics, correct, n_failed = run_perfbench(roots[side], args.workload, seed)
            pair[side] = {name: round(metrics[name], 3) for name in END_TO_END}
            failed[side] += n_failed
            if not correct:
                incorrect[side].append(seed)
            print(f"bench_pairs: {args.workload} seed {seed} {side}: {pair[side]}",
                  file=sys.stderr)
        pairs.append(pair)
    label = f"seeds {args.seeds[0]}-{args.seeds[-1]}"
    print(json.dumps({label: summarise(pairs, incorrect, failed)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
