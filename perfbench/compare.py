#!/usr/bin/env python3
"""Compare two sets of benchmark runs, parent against change.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of result files written by perfbench/run.py
(<build dir>/results/), typically ten seeds per workload on each side, run
with the same benchmark code on the same host. Traced runs are ignored.
For every workload and end-to-end metric of BENCHMARK.json it prints both
medians and quartiles, the share of pairs the change won (runs pair by
seed), and a verdict:

  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's quartile spread, or every
              change run beats every parent run
  worse       every parent run beats every change run and the change's median
              is worse by more than the metric's bound; or, with both
              spreads within the bound, the median alone is that much worse
  unresolved  either side's quartile spread exceeds the bound
  no worse    otherwise

Exits 1 when any row is worse, else 0.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory):
    """{workload: {seed: {metric: value}}} from the end-to-end result files."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace"):
            continue
        values = {name: m["value"] for name, m in result["metrics"].items()}
        runs.setdefault(result["workload"], {})[result["seed"]] = values
    return runs


def spread(values):
    """Quartiles as statistics.quantiles gives them, and IQR over the median."""
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def verdict(parent, change, pairs, better, bound):
    sign = 1 if better == "higher" else -1
    p_q1, p_med, p_q3, p_spread = spread(parent)
    _, c_med, _, c_spread = spread(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    won = wins / len(pairs) if pairs else 0.0
    gain = sign * (c_med - p_med)
    loss = -gain / p_med if p_med else 0.0
    if better == "higher":
        dominates, dominated = min(change) > max(parent), max(change) < min(parent)
    else:
        dominates, dominated = max(change) < min(parent), min(change) > max(parent)
    if (won >= 0.9 and gain > p_q3 - p_q1) or dominates:
        return "improved", won
    if dominated and loss > bound:
        return "worse", won
    if p_spread > bound or c_spread > bound:
        return "unresolved", won
    if loss > bound:
        return "worse", won
    return "no worse", won


def compare(parent_runs, change_runs, benchmark):
    rows = []
    for workload in sorted(set(parent_runs) | set(change_runs)):
        p_runs = parent_runs.get(workload, {})
        c_runs = change_runs.get(workload, {})
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            parent = [v[name] for v in p_runs.values() if name in v]
            change = [v[name] for v in c_runs.values() if name in v]
            if not parent or not change:
                rows.append((workload, name, None, None, 0.0, "missing"))
                continue
            pairs = [(p_runs[s][name], c_runs[s][name]) for s in sorted(set(p_runs) & set(c_runs))]
            if not pairs:
                pairs = list(zip(parent, change))
            result, won = verdict(parent, change, pairs, metric["better"], metric["bound"])
            rows.append((workload, name, spread(parent), spread(change), won, result))
    return rows


def fmt(quartiles):
    if quartiles is None:
        return "-"
    q1, med, q3, _ = quartiles
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()
    benchmark = json.loads(Path(args.benchmark).read_text())
    rows = compare(load_runs(args.parent), load_runs(args.change), benchmark)
    header = ("workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won",
              "verdict")
    table = [header] + [(w, m, fmt(p), fmt(c), f"{won:.2f}", v) for w, m, p, c, won, v in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(r, widths)).rstrip())
    return 1 if any(r[5] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
