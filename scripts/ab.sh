#!/usr/bin/env bash
# A/B check: the benchmark on a parent commit against the working tree,
# the way a wall-clock claim has to be made here (bench/README.md "Why
# the bounds are wide"): N alternating parent/change pairs on seeds 1..N,
# the starting side alternating too.
#
#   scripts/ab.sh <parent-ref> [--pairs N] [--seconds T] [workload...]
#
# The parent is exported (`git archive`) into a temporary directory and
# built there into its own target directory; both sides run their own
# `bench/run.sh --workload W --seed S --trace 0`.  Per workload x
# end-to-end metric the table gives both medians with their quartiles,
# the pairs the change won (ties count for neither), and
#   EXACT / DIFF  simulated-time metrics (`sim_*`, `*ok_frac`): bit-equal
#                 in every pair, or not;
#   SPREAD        either side's inter-quartile range exceeds the metric's
#                 bound in BENCHMARK.json *taken of the parent's median*
#                 (both sides against the one absolute width: that is the
#                 pipeline's rule, so a change that is s times faster must
#                 be s times steadier): the pair is unresolved, not
#                 unchanged.  CLEAR marks every run of one side beating
#                 every run of the other; the pipeline does not exempt it.
# Exits non-zero on a DIFF, a failed output check or a failed operation.
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,23p' "$0" >&2; exit 2; }
parent_ref="$1"; shift
pairs=10
seconds=10
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        -*) echo "ab: unknown option $1" >&2; exit 2 ;;
        *) workloads+=("$1"); shift ;;
    esac
done
[ ${#workloads[@]} -gt 0 ] ||
    workloads=(serve_steady serve_chaos fleet_failover plan_churn sched_offline)

change="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
parent="$tmp/parent"
mkdir -p "$parent" "$tmp/runs"
git -C "$change" archive "$parent_ref" | tar -x -C "$parent"

run() { # $1 = side, $2 = workload, $3 = seed
    local dir="$change"
    [ "$1" = parent ] && dir="$parent"
    echo "ab: $2 seed $3: $1" >&2
    # A failed check still prints its result line; the table reports it.
    CARGO_TARGET_DIR="$dir/bench/target" bash "$dir/bench/run.sh" \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 |
        tail -n 1 > "$tmp/runs/$1.$2.$3.json" || true
}

for w in "${workloads[@]}"; do
    for (( seed = 1; seed <= pairs; seed++ )); do
        if (( seed % 2 )); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do run "$side" "$w" "$seed"; done
    done
done

python3 - "$change/BENCHMARK.json" "$tmp/runs" "$pairs" "${workloads[@]}" <<'PY'
import json, sys
spec_path, runs, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
spec = json.load(open(spec_path))
exact = lambda name: name.startswith("sim_") or name.endswith("ok_frac")

def quartiles(xs):
    xs = sorted(xs)
    def at(q):  # linear interpolation between closest ranks
        i = q * (len(xs) - 1)
        lo = int(i)
        return xs[lo] + (i - lo) * (xs[min(lo + 1, len(xs) - 1)] - xs[lo])
    return at(0.25), at(0.5), at(0.75)

bad = False
head = f"{'workload':<16}{'metric':<20}{'parent median [q1, q3]':>40}{'change median [q1, q3]':>40}{'change/parent':>15}{'wins':>7}  flags"
print(head)
for w in workloads:
    sides = {s: [json.load(open(f"{runs}/{s}.{w}.{seed}.json")) for seed in range(1, pairs + 1)]
             for s in ("parent", "change")}
    for s, rs in sides.items():
        if not all(r["correct"] and r["failed"] == 0 for r in rs):
            bad = True
            print(f"{w:<16}{s}: output checks or operations failed")
    for m in spec["end_to_end"]:
        name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
        p, c = ([r["metrics"][name]["value"] for r in sides[s]] for s in ("parent", "change"))
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        flags = []
        if exact(name):
            same = p == c
            bad |= not same
            flags.append("EXACT" if same else "DIFF")
        elif max(p3 - p1, c3 - c1) > bound * abs(pm):
            apart = max(p) < min(c) or max(c) < min(p)
            wide = " ".join(f"{s}={(q3 - q1) / abs(pm):.0%}" for s, q1, q3 in
                            (("parent", p1, p3), ("change", c1, c3)) if q3 - q1 > bound * abs(pm))
            flags.append(f"SPREAD({wide} of parent median, bound {bound:.0%})" + (" CLEAR" if apart else ""))
        cell = lambda med, q1, q3: f"{med:.6g} [{q1:.6g}, {q3:.6g}]"
        print(f"{w:<16}{name:<20}{cell(pm, p1, p3):>40}{cell(cm, c1, c3):>40}{cm / pm:>15.3f}{wins:>4}/{pairs:<2}  {' '.join(flags)}")
sys.exit(1 if bad else 0)
PY
