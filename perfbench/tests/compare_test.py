#!/usr/bin/env python3
"""Verdicts of perfbench/compare.py on synthetic parent and change runs."""
import json
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import compare  # noqa: E402

BENCHMARK = {"end_to_end": [
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "job_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
]}


def write_runs(directory, workload, values):
    for seed, (jps, p50) in enumerate(values, start=1):
        result = {"workload": workload, "seed": seed, "trace": False, "metrics": {
            "jobs_per_s": {"value": jps, "unit": "1/s"},
            "job_p50_ms": {"value": p50, "unit": "ms"}}}
        (Path(directory) / f"{workload}_seed{seed}_trace0.json").write_text(json.dumps(result))
    traced = {"workload": workload, "seed": 1, "trace": True, "metrics": {}}
    (Path(directory) / f"{workload}_seed1_trace1.json").write_text(json.dumps(traced))


def main():
    steady = [(1000 + i, 1.0 + i / 1000) for i in range(10)]
    with tempfile.TemporaryDirectory() as parent, tempfile.TemporaryDirectory() as change:
        write_runs(parent, "a", steady)
        write_runs(change, "a", [(j * 1.2, p * 0.8) for j, p in steady])  # clearly better
        write_runs(parent, "b", steady)
        write_runs(change, "b", [(j * 0.7, p * 1.3) for j, p in steady])  # clearly worse
        write_runs(parent, "c", steady)
        write_runs(change, "c", steady)  # identical
        write_runs(parent, "d", [(1000 * (1 + (i % 2)), 1.0 + (i % 2)) for i in range(10)])
        write_runs(change, "d", [(1000 * (1 + (i % 2)), 1.0 + (i % 2)) for i in range(10)])
        # Noisy parent (spread 0.14 > bound), but every change run is worse
        # than every parent run, by 30 % at the median: worse, not unresolved.
        noisy = [(1000 + 150 * (i % 2), 1.0 + 0.15 * (i % 2)) for i in range(10)]
        write_runs(parent, "e", noisy)
        write_runs(change, "e", [(700 + 100 * (i % 2), 1.4 + 0.2 * (i % 2)) for i in range(10)])
        rows = compare.compare(compare.load_runs(parent), compare.load_runs(change), BENCHMARK)
    got = {(w, m): (v, won) for w, m, _, _, won, v in rows}
    expected = {
        ("a", "jobs_per_s"): "improved", ("a", "job_p50_ms"): "improved",
        ("b", "jobs_per_s"): "worse", ("b", "job_p50_ms"): "worse",
        ("c", "jobs_per_s"): "no worse", ("c", "job_p50_ms"): "no worse",
        ("d", "jobs_per_s"): "unresolved", ("d", "job_p50_ms"): "unresolved",
        ("e", "jobs_per_s"): "worse", ("e", "job_p50_ms"): "worse",
    }
    failures = 0
    for key, verdict in expected.items():
        if got[key][0] != verdict:
            print(f"{key}: expected {verdict}, got {got[key][0]}")
            failures += 1
    if got[("a", "jobs_per_s")][1] != 1.0 or got[("b", "jobs_per_s")][1] != 0.0:
        print("share of pairs won is wrong")
        failures += 1
    if len(rows) != len(expected):
        print(f"expected one row per workload and metric, got {len(rows)}")
        failures += 1
    print("compare verdicts:", "ok" if not failures else f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
