#!/usr/bin/env bash
# Alternating parent/change pairs of `labbench`, the way every perf PR's
# acceptance is measured (docs/PERFORMANCE.md, "Measuring a change").
#
#   scripts/labbench-pairs.sh <parent-bin> <change-bin>
#       [--workload W|all] [--pairs N] [--seconds S] [--seed K]
#
# Both arguments are built `labbench` executables (build each commit once,
# into its own target directory, and copy the binary out). Pair i runs the
# parent first when i is odd and the change first when i is even. Per
# workload and end-to-end metric it prints both medians and quartiles, the
# ratio change / parent, the pairs the change won, the parent's IQR /
# median and every run made; `ops_failed` per side.
#
# Exit status 1 when a run is not `correct`, fails operations, or a
# `result_digest` differs between the sides or — at the seeds
# labbench/BASELINE.json records — from the baseline. Timings never fail it.
set -euo pipefail

usage() {
    sed -n '2,8p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[ $# -ge 2 ] || usage
parent=$1
change=$2
shift 2
workload=all
pairs=10
seconds=12
seed=12
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --workload) workload=$2 ;;
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        --seed) seed=$2 ;;
        *) usage ;;
    esac
    shift 2
done
for bin in "$parent" "$change"; do
    [ -x "$bin" ] || { echo "labbench-pairs: $bin is not an executable" >&2; exit 2; }
done

root=$(cd "$(dirname "$0")/.." && pwd)
if [ "$workload" = all ]; then
    workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")
else
    workloads=$workload
fi

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# One run of one side: its `outcome` line, tagged, appended to $runs.
run_side() { # side bin workload pair
    local out
    out=$("$2" --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0) || {
        echo "labbench-pairs: $1 side failed on $3 (pair $4)" >&2
        printf '%s\n' "$out" >&2
        exit 1
    }
    printf '%s %s %s %s\n' "$1" "$3" "$4" "$(printf '%s\n' "$out" | grep '^outcome ' | cut -d' ' -f2-)" >> "$runs"
}

for w in $workloads; do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then
            run_side parent "$parent" "$w" "$i"
            run_side change "$change" "$w" "$i"
        else
            run_side change "$change" "$w" "$i"
            run_side parent "$parent" "$w" "$i"
        fi
        echo "labbench-pairs: $w pair $i/$pairs done" >&2
    done
done

python3 - "$runs" "$root/BENCHMARK.json" "$root/labbench/BASELINE.json" "$seed" "$seconds" <<'PY'
import json, sys

runs_path, bench_path, baseline_path, seed, seconds = sys.argv[1:]
bench = json.load(open(bench_path))
baseline = json.load(open(baseline_path)).get("seed_" + seed)
runs = {}  # workload -> side -> [outcome], in pair order
for line in open(runs_path):
    side, workload, _pair, outcome = line.split(" ", 3)
    runs.setdefault(workload, {"parent": [], "change": []})[side].append(json.loads(outcome))

def quartiles(xs):
    xs = sorted(xs)
    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return at(0.25), at(0.5), at(0.75)

def fmt(x):
    return f"{x:.4g}" if abs(x) < 1000 else f"{x:,.0f}"

bad = []
print(f"seed {seed}, {seconds} s a run, parent first in odd pairs")
if baseline is None:
    print(f"labbench/BASELINE.json records no seed {seed}: digests are compared between the sides only")
for workload, sides in runs.items():
    digests = {side: sorted({o["result_digest"] for o in outs}) for side, outs in sides.items()}
    want = baseline[workload]["result_digest"] if baseline else None
    same = digests["parent"] == digests["change"] and len(digests["parent"]) == 1
    if not same:
        bad.append(f"{workload}: result_digest differs between the sides: {digests}")
    elif want is not None and digests["change"] != [want]:
        bad.append(f"{workload}: result_digest {digests['change'][0]} is not the baseline's {want}")
    for side, outs in sides.items():
        failed = sum(o["ops_failed"] for o in outs)
        wrong = sum(not o["correct"] for o in outs)
        if failed or wrong:
            bad.append(f"{workload}: {side} side: ops_failed {failed}, runs not correct {wrong}")
    print(f"\n{workload}: {len(sides['parent'])} pairs, digest {' / '.join(digests['change'])}"
          f"{' = baseline' if same and want == digests['change'][0] else ''}, ops_failed "
          f"{sum(o['ops_failed'] for o in sides['parent'])} / {sum(o['ops_failed'] for o in sides['change'])}"
          f"{', NOISY runs ' + str(sum(o['noisy'] for s in sides.values() for o in s)) if any(o['noisy'] for s in sides.values() for o in s) else ''}")
    for metric in bench["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        p = [o["metrics"][name]["value"] for o in sides["parent"]]
        c = [o["metrics"][name]["value"] for o in sides["change"]]
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        wins = sum((y > x) if higher else (y < x) for x, y in zip(p, c))
        ties = sum(x == y for x, y in zip(p, c))
        print(f"  {name:<12} parent {fmt(pm)} [{fmt(p1)}, {fmt(p3)}]  change {fmt(cm)} [{fmt(c1)}, {fmt(c3)}]"
              f"  ratio {cm / pm:.3f}  wins {wins}/{len(p)}{f' ties {ties}' if ties else ''}"
              f"  parent IQR/median {100 * (p3 - p1) / pm:.1f} %  ({metric['better']} is better)")
        print(f"    parent runs: {' '.join(fmt(x) for x in p)}")
        print(f"    change runs: {' '.join(fmt(x) for x in c)}")
for line in bad:
    print("FAIL " + line, file=sys.stderr)
sys.exit(1 if bad else 0)
PY
