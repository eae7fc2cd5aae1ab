#!/usr/bin/env python3
"""Check the benchmark itself: every workload, small, traced and untraced.

    python3 bench/e2e/smoke.py

Run from the repository root.  For each workload in BENCHMARK.json, runs
`run.py --scale smoke` once with --trace 0 and once with --trace 1 and
checks that the run exits 0 with no failed operation, that it prints
exactly the end-to-end (or per-layer) metrics BENCHMARK.json names, with
their units, and that the traced run's ledger adds up to its wall time
within 5%.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "1", "--seconds", "0.5",
                   "--trace", trace, "--scale", "smoke"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            where = "%s --trace %s" % (workload, trace)
            before = len(problems)
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                problems.append("%s: no JSON result (exit %d)" % (where, proc.returncode))
                print("%-40s FAILED" % where)
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append("%s: exit %d, %d of %d operations failed" % (
                    where, proc.returncode, result["failed"], result["attempted"]))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                problems.append("%s: metrics differ from BENCHMARK.json "
                                "(missing %s, extra %s)" % (where, missing, extra))
            ledger_error = result["metrics"].get("ledger.error_pct", {}).get("value", 0)
            if ledger_error > 5:
                problems.append("%s: ledger misses wall time by %.2f%%" % (
                    where, ledger_error))
            print("%-40s %s" % (where, "ok" if len(problems) == before else "FAILED"))
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
