#!/usr/bin/env bash
# Alternating seabench pairs of a parent revision and the working tree.
#
#   scripts/ab-pairs.sh <parent-rev> <workload> <pairs> [seed]
#
# Builds `benchmark/` twice, offline and --locked, each in its own target
# directory: the parent from a `git archive` of
# <parent-rev> (a clean export, so no worktree is registered in .git), the
# change from the working tree as it stands, uncommitted edits included.
# Nothing is compiled while measuring. Then runs <pairs> pairs of
# `seabench --workload <workload> --seed <seed> --seconds <s> --trace 0`,
# the parent first in odd pairs and the change first in even ones, and one
# traced pass (`--trace 1`) per side after them. `ingest_load` runs wait for
# the TIME-WAIT sockets of the one before to drain.
#
# Writes runs/<name>.tsv (one run a line, end-to-end metrics, with a header
# naming the revisions, the command and the host) and runs/<name>.trace.tsv
# (per-layer metrics of the traced passes), then prints for each end-to-end
# metric both sides' median and quartiles, the change's wins out of the
# pairs (ties count for neither) and a verdict by the rule of the
# choosing-metrics guide: a gain needs >= 9/10 of the pairs won and a median
# difference larger than the parent's interquartile range; a median worse
# than the parent's by more than the metric's bound in BENCHMARK.json is a
# regression; a parent spread wider than that bound is unresolved unless
# every change run is better than every parent run.
#
# Environment: AB_NAME (default ab-<parent>-<workload>-s<seed>),
# AB_SECONDS (default: BENCHMARK.json's run_seconds), AB_BUILD_DIR (a
# directory for the parent's export and both target directories, kept
# between calls so that a second workload rebuilds nothing; default: the
# temporary directory, removed on exit).
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    sed -n '2,4p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent_rev=$1
workload=$2
pairs=$3
seed=${4:-1}
root=$(git rev-parse --show-toplevel)
cd "$root"
parent_sha=$(git rev-parse --short "$parent_rev^{commit}")
seconds=${AB_SECONDS:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
name=${AB_NAME:-ab-$parent_sha-$workload-s$seed}
out=runs/$name.tsv
trace_out=runs/$name.trace.tsv

work=$(mktemp -d "${TMPDIR:-/tmp}/ab-pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
builds=${AB_BUILD_DIR:-$work}
mkdir -p "$builds"
builds=$(cd "$builds" && pwd)

build() { # <source root> <side>
    CARGO_TARGET_DIR="$builds/target-$2" cargo build --release --offline --locked --quiet \
        --manifest-path "$1/benchmark/Cargo.toml"
    cp "$builds/target-$2/release/seabench" "$work/seabench-$2"
}
# tar keeps the commit's file times, so a kept export is not rebuilt.
rm -rf "$builds/parent-$parent_sha"
mkdir "$builds/parent-$parent_sha"
git archive "$parent_sha" | tar -x -C "$builds/parent-$parent_sha"
echo "building the parent ($parent_sha) and the working tree ..." >&2
build "$builds/parent-$parent_sha" parent
build "$root" change

drain_time_wait() {
    [ "$workload" = ingest_load ] || return 0
    local waited=0
    while [ "$(ss -tan state time-wait 2>/dev/null | wc -l)" -gt 50 ] && [ $waited -lt 120 ]; do
        sleep 5
        waited=$((waited + 5))
    done
}

run() { # <side> <trace> -> the result's JSON line
    drain_time_wait
    (cd "$work" && "./seabench-$1" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace "$2" 2>/dev/null | tail -n 1)
}

metrics=(setup_s qps lat_p50_ms lat_p95_ms cpu_ms_per_op wire_bytes_per_op peak_rss_mb stored_bytes_per_plain_byte)
row() { # <side> <pair> <json>
    python3 - "$1" "$2" "$3" "$workload" "${metrics[@]}" <<'EOF'
import json, sys
side, pair, line, workload, names = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5:]
result = json.loads(line)
if not result.get("correct", False):
    sys.exit(f"{side} pair {pair}: wrong answers or failed operations")
values = [str(result["metrics"][name]["value"]) for name in names]
print("\t".join([workload, side, pair, str(result["attempted"]), str(result["failed"])] + values))
EOF
}

{
    echo "# seabench end-to-end metrics, one run a line: \`seabench --workload $workload --seed $seed --seconds $seconds --trace 0\`,"
    echo "# parent ($parent_sha) against the working tree on $(git rev-parse --short HEAD)$(git diff --quiet HEAD -- . ':!runs' || echo ' with edits'),"
    echo "# by scripts/ab-pairs.sh; odd pairs ran the parent first, even pairs the change first;"
    echo "# $(nproc) CPUs, $(uname -m). Columns: workload side pair attempted failed ${metrics[*]}"
} >"$out"

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        row "$side" "$pair" "$(run "$side" 0)" | tee -a "$out"
    done
done

echo "# per-layer metrics of one traced pass (--trace 1) a side. Columns: workload metric parent change" >"$trace_out"
parent_trace=$(run parent 1)
change_trace=$(run change 1)
python3 - "$workload" "$parent_trace" "$change_trace" >>"$trace_out" <<'EOF'
import json, sys
workload, parent, change = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
for name, value in parent["metrics"].items():
    print(f"{workload}\t{name}\t{value['value']}\t{change['metrics'][name]['value']}")
EOF

python3 - "$out" "$trace_out" <<'EOF'
import json, statistics, sys
runs_path, trace_path = sys.argv[1], sys.argv[2]
bench = json.load(open("BENCHMARK.json"))
rows = [line.rstrip("\n").split("\t") for line in open(runs_path) if not line.startswith("#")]
header = "workload side pair attempted failed".split() + [m["name"] for m in bench["end_to_end"]]
runs = [dict(zip(header, row)) for row in rows]

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3

failed = {side: sum(int(r["failed"]) for r in runs if r["side"] == side) for side in ("parent", "change")}
attempted = {side: sum(int(r["attempted"]) for r in runs if r["side"] == side) for side in ("parent", "change")}
print(f"{runs[0]['workload']}: failed {failed['parent']}/{attempted['parent']} parent, "
      f"{failed['change']}/{attempted['change']} change; pairs {len(runs) // 2}")
print(f"{'metric':28} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'wins':>6}  verdict")
for metric in bench["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = float(r[name])
    pairs = [p for p in by_pair.values() if len(p) == 2]
    wins = sum((p["change"] < p["parent"]) if lower else (p["change"] > p["parent"]) for p in pairs)
    parent = [p["parent"] for p in pairs]
    change = [p["change"] for p in pairs]
    pq1, pm, pq3 = quartiles(parent)
    cq1, cm, cq3 = quartiles(change)
    better = (pm - cm) if lower else (cm - pm)
    bound = metric["bound"] * abs(pm)
    all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if wins >= 0.9 * len(pairs) and better > (pq3 - pq1):
        verdict = "gain"
    elif -better > bound:
        verdict = "WORSE beyond bound"
    elif (pq3 - pq1) > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    print(f"{name:28} {pm:14.6g} [{pq1:.6g}, {pq3:.6g}] {cm:14.6g} [{cq1:.6g}, {cq3:.6g}] "
          f"{wins:3}/{len(pairs):<3} {verdict} ({100 * (cm - pm) / pm if pm else 0:+.2f}%)")
print(f"per-layer metrics of the traced passes: {trace_path}")
EOF
