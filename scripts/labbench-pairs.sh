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
# Calibration: before each side of each pair the *parent* binary runs
# `event_storm` at seed 12 three times for 2/3 s (2 s in all), a fixed
# kernel no change under test makes faster or slower, and the fastest of
# the three `work_per_s` is how fast the host is at that moment (one
# run alone reads a descheduled second as a slow host). Per workload the
# script prints how far it drifted over the round, the range of the
# pairs' calibration ratios and, per pair, the ratio of the calibration
# before the change's side to the one before the parent's with the three
# runs each took; a pair whose two calibrations differ by more than the
# parent's work_per_s IQR / median is flagged (HOST MOVED), which never
# fails the run.
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

# The calibration kernel: the parent binary's event_storm, pinned; the
# fastest of `calibration_runs` runs sharing `calibration_seconds`.
calibration_seed=12
calibration_seconds=2
calibration_runs=3
calibration_run_seconds=$(python3 -c "print($calibration_seconds / $calibration_runs)")

# One run: its `outcome` line, tagged `kind side workload pair`, appended
# to $runs.
run_one() { # kind side bin workload pair run-workload run-seed run-seconds
    local out
    out=$("$3" --workload "$6" --seed "$7" --seconds "$8" --trace 0) || {
        echo "labbench-pairs: $1 before/of the $2 side failed on $4 (pair $5)" >&2
        printf '%s\n' "$out" >&2
        exit 1
    }
    printf '%s %s %s %s %s\n' "$1" "$2" "$4" "$5" "$(printf '%s\n' "$out" | grep '^outcome ' | cut -d' ' -f2-)" >> "$runs"
}

# One side of a pair, after its calibration runs.
run_side() { # side bin workload pair
    for _ in $(seq 1 "$calibration_runs"); do
        run_one cal "$1" "$parent" "$3" "$4" event_storm "$calibration_seed" "$calibration_run_seconds"
    done
    run_one run "$1" "$2" "$3" "$4" "$3" "$seed" "$seconds"
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

python3 - "$runs" "$root/BENCHMARK.json" "$root/labbench/BASELINE.json" "$seed" "$seconds" \
    "$calibration_seed" "$calibration_seconds" "$calibration_runs" <<'PY'
import json, sys

runs_path, bench_path, baseline_path, seed, seconds, cal_seed, cal_seconds, cal_runs = sys.argv[1:]
bench = json.load(open(bench_path))
baseline = json.load(open(baseline_path)).get("seed_" + seed)
runs = {}  # workload -> side -> [outcome], in pair order
cals = {}  # workload -> pair -> side -> [calibration work_per_s of each run]
for line in open(runs_path):
    kind, side, workload, pair, outcome = line.split(" ", 4)
    outcome = json.loads(outcome)
    if kind == "cal":
        value = outcome["metrics"]["work_per_s"]["value"]
        cals.setdefault(workload, {}).setdefault(int(pair), {}).setdefault(side, []).append(value)
    else:
        runs.setdefault(workload, {"parent": [], "change": []})[side].append(outcome)

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
print(f"seed {seed}, {seconds} s a run, parent first in odd pairs; a calibration is the fastest of"
      f" {cal_runs} runs sharing {cal_seconds} s")
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
        if name == "work_per_s":
            spread = (p3 - p1) / pm
    best = {pair: {side: max(values) for side, values in by_side.items()}
            for pair, by_side in sorted(cals[workload].items())}
    # In the order they ran: odd pairs calibrate the parent's side first.
    order = [by_side[side] for pair, by_side in best.items()
             for side in (("parent", "change") if pair % 2 else ("change", "parent"))]
    ratios = [by_side["change"] / by_side["parent"] for by_side in best.values()]
    print(f"  calibration (parent event_storm/work_per_s, seed {cal_seed}, {cal_seconds} s before each side):"
          f" drift over the round {order[-1] / order[0]:.3f} (first {fmt(order[0])}, last {fmt(order[-1])},"
          f" range {fmt(min(order))} .. {fmt(max(order))}), pair ratios {min(ratios):.3f} .. {max(ratios):.3f}")
    for pair, by_side in best.items():
        ratio = by_side["change"] / by_side["parent"]
        moved = abs(ratio - 1) > spread
        tries = {side: " ".join(fmt(x) for x in cals[workload][pair][side]) for side in by_side}
        print(f"    pair {pair}: before parent {fmt(by_side['parent'])}, before change {fmt(by_side['change'])},"
              f" ratio {ratio:.3f}  (runs: parent {tries['parent']}; change {tries['change']})"
              f"{f'  HOST MOVED: more than the parent IQR/median {100 * spread:.1f} %' if moved else ''}")
for line in bad:
    print("FAIL " + line, file=sys.stderr)
sys.exit(1 if bad else 0)
PY
