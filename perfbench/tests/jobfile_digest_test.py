#!/usr/bin/env python3
"""Each workload's emitted jobfile, fed to mpch-serve --jobs, reproduces the
digest the benchmark computes for the same seed.

    python3 jobfile_digest_test.py PERFBENCH_BINARY MPCH_SERVE_BINARY

mpch-serve --format json prints each job's status, rounds_used, output_hex
and oracle_queries; the benchmark's cli digest folds exactly those fields,
one line per job, so both sides must produce the same 32 hex digits.
"""
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 2
WORKERS = 4
WORKLOADS = ("oracle-sweep", "chatty-auth", "chaos-restart")


def cli_line(job):
    line = f"{job['job_id']} {job['status']}"
    if job["status"] == "rejected":
        return line + " - - -"
    return f"{line} {job['rounds_used']} {job['output_hex']} {job.get('oracle_queries', '-')}"


def serve_digest(serve, jobfile, workers):
    proc = subprocess.run([serve, "--jobs", str(jobfile), "--workers", str(workers),
                           "--format", "json"], capture_output=True, text=True, check=True)
    sha = hashlib.sha256()
    for job in json.loads(proc.stdout)["jobs"]:
        sha.update((cli_line(job) + "\n").encode())
    return sha.hexdigest()[:32]


def main():
    perfbench, serve = sys.argv[1], sys.argv[2]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            jobfile = Path(tmp) / f"{workload}.jobs"
            jobfile.write_text(subprocess.run(
                [perfbench, f"--emit-jobfile={workload}", f"--seed={SEED}"],
                capture_output=True, text=True, check=True).stdout)
            expected = subprocess.run([perfbench, f"--digest={workload}", f"--seed={SEED}"],
                                      capture_output=True, text=True,
                                      check=True).stdout.split()[1]
            got = serve_digest(serve, jobfile, WORKERS)
            status = "ok" if got == expected else "MISMATCH"
            print(f"{workload}: benchmark {expected} mpch-serve {got} {status}")
            failures += got != expected
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
