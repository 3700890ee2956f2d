#!/bin/sh
# Alternating parent/change pairs of the benchmark BENCHMARK.json declares:
# the measurement every performance claim in CHANGES.md rests on (ROADMAP's
# house rule, ≥10 pairs). The parent is <parent-ref> unpacked with
# `git archive` under a temp dir; the change is this checkout as it stands.
# Each side's `benchmark/` is built once into its own target dir; pair i runs
# every workload with seed first-seed+i on both sides, the side that goes
# first alternating from pair to pair. Printed per workload and end-to-end
# metric: both medians, the parent's quartiles, the pairs the change won and
# the pairs that tied (a count that must not move ties in every pair), and
# each side's correct / failed totals.
# Exit status is non-zero when any run was wrong or failed an operation.
#
# usage: scripts/bench-pairs.sh <parent-ref> [--pairs N] [--workload W]
#                               [--first-seed S] [--smoke]
#
# Run nothing else meanwhile. Temp files go under $TMPDIR (default /tmp) and
# are removed on exit; the change side's result files land in benchmark/out/
# (git-ignored). Nothing under benchmark/ is edited.
set -eu
usage() {
    sed -n 's/^# \(usage:.*\)/\1/p' "$0" >&2
    exit 2
}
[ $# -ge 1 ] || usage
parent=$1
shift
pairs=10 workload= seed0=1 smoke=
while [ $# -gt 0 ]; do
    case $1 in
    --pairs) pairs=$2 && shift 2 ;;
    --workload) workload=$2 && shift 2 ;;
    --first-seed) seed0=$2 && shift 2 ;;
    --smoke) smoke=--smoke && shift ;;
    *) usage ;;
    esac
done

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/parent" "$tmp/runs"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent"

build() { # side, checkout
    CARGO_TARGET_DIR="$tmp/target-$1" cargo build --release --offline --quiet \
        --manifest-path "$2/benchmark/Cargo.toml"
}
build parent "$tmp/parent"
build change "$root"

# The run length and, unless one was named, the workloads BENCHMARK.json lists.
spec=$(python3 -c '
import json, sys
spec = json.load(open(sys.argv[1]))
print(spec["run_seconds"], *(w["name"] for w in spec["workloads"]))
' "$root/BENCHMARK.json")
seconds=${spec%% *}
[ -n "$workload" ] || workload=${spec#* }

run() { # side, checkout, workload, pair
    # Keep the one-line JSON object a run ends with (a smoke run prints two:
    # untraced, then traced). A wrong result makes `bench` exit non-zero
    # after printing it; the report below counts it, so carry on.
    (cd "$2" && "$tmp/target-$1/release/bench" run --workload "$3" \
        --seed $((seed0 + $4)) --seconds "$seconds" --trace 0 $smoke) |
        grep '^{"correct"' >"$tmp/runs/$3.$4.$1.json" || true
}
i=0
while [ "$i" -lt "$pairs" ]; do
    for w in $workload; do
        echo "pair $((i + 1))/$pairs $w" >&2
        if [ $((i % 2)) -eq 0 ]; then
            run parent "$tmp/parent" "$w" "$i" && run change "$root" "$w" "$i"
        else
            run change "$root" "$w" "$i" && run parent "$tmp/parent" "$w" "$i"
        fi
    done
    i=$((i + 1))
done

python3 - "$root/BENCHMARK.json" "$tmp/runs" "$pairs" $workload <<'EOF'
import json, statistics, sys
from pathlib import Path

spec, runs, pairs, workloads = json.load(open(sys.argv[1])), Path(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]
bad = False
for w in workloads:
    side = {"parent": [], "change": []}
    for name, results in side.items():
        for i in range(pairs):
            lines = [json.loads(l) for l in (runs / f"{w}.{i}.{name}.json").read_text().splitlines()]
            results.append({
                "correct": bool(lines) and all(l["correct"] for l in lines),
                "failed": sum(l["failed"] for l in lines),
                "metrics": {k: v for l in reversed(lines) for k, v in l["metrics"].items()},
            })
    totals = {n: (sum(r["correct"] for r in rs), sum(r["failed"] for r in rs)) for n, rs in side.items()}
    bad |= any(correct != pairs or failed for correct, failed in totals.values())
    print(f"# {w}: " + ", ".join(f"{n} correct {c}/{pairs} failed {int(f)}" for n, (c, f) in totals.items()))
    print(f"{'metric':<16} {'parent':>10} {'q1':>10} {'q3':>10} {'change':>10} {'delta':>8}  wins ties")
    for m in spec["end_to_end"]:
        values = {n: [r["metrics"].get(m["name"], {}).get("value") for r in rs] for n, rs in side.items()}
        both = [(p, c) for p, c in zip(values["parent"], values["change"]) if p is not None and c is not None]
        if not both:
            continue
        parent, change = [p for p, _ in both], [c for _, c in both]
        better = (lambda p, c: c > p) if m["better"] == "higher" else (lambda p, c: c < p)
        wins, ties = sum(better(p, c) for p, c in both), sum(p == c for p, c in both)
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (parent[0],) * 3
        pm, cm = statistics.median(parent), statistics.median(change)
        delta = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
        print(f"{m['name']:<16} {pm:>10.4g} {q1:>10.4g} {q3:>10.4g} {cm:>10.4g} {delta:>8}  {wins}/{len(both)} {ties}")
sys.exit(1 if bad else 0)
EOF
