#!/usr/bin/env bash
# Run-to-run spread of the end-to-end metrics.
#
#   bench/e2e/stability.sh [-n RUNS] [-s SECONDS] [-o SUMMARY.json] [WORKLOAD...]
#
# Runs every workload RUNS times (default 10), each run with another seed
# (1..RUNS), alternating the workload order from pass to pass so slow drift
# of the host does not land on one workload.  Prints, per workload and
# metric, the median and the inter-quartile range as a share of the median
# (quartiles as Python's statistics.quantiles(values, n=4) gives them), and
# writes the same summary with a host block to SUMMARY.json when -o is given.
# BENCHMARK.json's bounds rest on these spreads.  Run from the repository
# root.
set -euo pipefail

runs=10
seconds=15
summary=""
while getopts "n:s:o:" opt; do
  case "$opt" in
    n) runs="$OPTARG" ;;
    s) seconds="$OPTARG" ;;
    o) summary="$OPTARG" ;;
    *) echo "usage: $0 [-n RUNS] [-s SECONDS] [-o SUMMARY.json] [WORKLOAD...]" >&2
       exit 2 ;;
  esac
done
shift $((OPTIND - 1))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(build-prosite build-compressed scan-bulk serve-steady serve-churn)
fi

here="$(cd "$(dirname "$0")" && pwd)"
out_dir=".bench_build/sfa_e2e/stability"
mkdir -p "$out_dir"
tag="$$"

for ((pass = 1; pass <= runs; pass++)); do
  order=("${workloads[@]}")
  if ((pass % 2 == 0)); then
    order=()
    for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do order+=("${workloads[i]}"); done
  fi
  for w in "${order[@]}"; do
    out="$out_dir/run-$tag-$w-$pass.out"
    status=0
    python3 "$here/run.py" --workload "$w" --seed "$pass" --seconds "$seconds" \
      --trace 0 > "$out" 2>>"$out_dir/stderr.log" || status=$?
    echo "pass $pass $w: exit $status" >&2
  done
done

python3 - "$out_dir" "$tag" "$summary" "$runs" "$seconds" "${workloads[@]}" <<'EOF'
import json, os, platform, statistics, sys

out_dir, tag, summary, runs, seconds = sys.argv[1:6]
by = {}
ok = True
for w in sys.argv[6:]:
    for seed in range(1, int(runs) + 1):
        path = os.path.join(out_dir, "run-%s-%s-%d.out" % (tag, w, seed))
        lines = open(path).read().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            res = {"correct": False, "failed": 1, "metrics": {}}
        if not res["correct"] or res["failed"]:
            ok = False
            print("FAILED: %s seed %d (see %s)" % (w, seed, path))
        for name, m in res["metrics"].items():
            by.setdefault(w, {}).setdefault(name, {"unit": m["unit"], "values": []})
            by[w][name]["values"].append(m["value"])

table = {}
for w, metrics in by.items():
    table[w] = {}
    print("== %s" % w)
    for name, m in metrics.items():
        v = m["values"]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        iqr = (q3 - q1) / med * 100 if med else 0.0
        table[w][name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                          "iqr_pct": iqr, "runs": len(v)}
        print("  %-40s %14.6g %-10s IQR %6.2f%%" % (name, med, m["unit"], iqr))

def cpu_model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()

def mem_total_kib():
    try:
        for line in open("/proc/meminfo"):
            if line.startswith("MemTotal"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0

if summary:
    doc = {
        "schema": "sfa-e2e-stability/1",
        "host": {"cpu": cpu_model(), "logical_cpus": os.cpu_count(),
                 "mem_total_kib": mem_total_kib(), "kernel": platform.release(),
                 "machine": platform.machine()},
        "runs": int(runs), "seconds": float(seconds),
        "workloads": table,
    }
    with open(summary, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
sys.exit(0 if ok else 1)
EOF
