#!/usr/bin/env bash
# A/A check: runs the whole benchmark twice on the same code (second pass
# in reverse workload order) and prints, per workload x end-to-end
# metric, both values, the relative gap, and PASS/FAIL against the
# metric's own bound in BENCHMARK.json.  Simulated-time metrics (`sim_*`,
# `ok_frac`, `gold_ok_frac`) must match exactly.
#
#   bench/aa.sh [--seed S] [--seconds T] [--smoke]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
mkdir -p bench/out

workloads=(serve_steady serve_chaos fleet_failover plan_churn sched_offline)
pass() { # $1 = pass name, rest = workload order
    local name="$1"; shift
    for w in "$@"; do
        echo "aa: pass $name: $w" >&2
        # A failed check still prints its result line; the table reports it.
        bench/run.sh --workload "$w" --trace 0 ${extra[@]+"${extra[@]}"} > "bench/out/aa.$name.$w.txt" || true
        tail -n 1 "bench/out/aa.$name.$w.txt" > "bench/out/aa.$name.$w.json"
    done
}
extra=("$@")
pass a "${workloads[@]}"
reversed=()
for (( i=${#workloads[@]}-1; i>=0; i-- )); do reversed+=("${workloads[i]}"); done
pass b "${reversed[@]}"

python3 - "${workloads[@]}" <<'PY'
import json, sys
spec = json.load(open("BENCHMARK.json"))
exact = lambda name: name.startswith("sim_") or name.endswith("ok_frac")
failed = False
print(f"{'workload':<16}{'metric':<22}{'run a':>16}{'run b':>16}{'gap':>10}{'bound':>8}  verdict")
for w in sys.argv[1:]:
    a, b = (json.load(open(f"bench/out/aa.{p}.{w}.json")) for p in "ab")
    if not (a["correct"] and b["correct"]):
        failed = True
        print(f"{w:<16}output checks failed")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        gap = abs(va - vb) / max(abs(va), abs(vb), 1e-300)
        ok = va == vb if exact(name) else gap <= bound
        failed |= not ok
        shown = "exact" if exact(name) else f"{bound:.0%}"
        print(f"{w:<16}{name:<22}{va:>16.6g}{vb:>16.6g}{gap:>10.2%}{shown:>8}  {'PASS' if ok else 'FAIL'}")
sys.exit(1 if failed else 0)
PY
