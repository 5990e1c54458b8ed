#!/bin/sh
# shard_smoke.sh — end-to-end smoke check of the sharded admission service:
# compile the bursty builtin workload into a canonical trace over the
# seed-5 paper network, replay it through stagesvc twice — once
# single-world, once partitioned into 4 shards — and require that both
# runs report a validator-clean final schedule and that the sharded run
# (a) partitions into 4 shards, (b) writes the merged-schedule JSON
# artifact, and (c) lands its weighted objective within the documented
# tolerance of the single world's.
#
# The tolerance here is looser than the 0.85 differential-test bound: that
# bound holds on a well-provisioned mesh, while this smoke deliberately
# partitions the oversubscribed 10-machine paper network into 2–3-machine
# shards. At that grain most submissions cross a shard boundary, cut routes
# are single-hop by design, and the windowed low-bandwidth cut links lose
# genuinely feasible single-world routes (late cut arrivals, leg-B
# contention inside tiny shards). Measured ratio is ~0.67; the floor below
# catches regressions without asserting an objective the partition cannot
# reach. See DESIGN.md "Sharded service" for the gap analysis.
#
# Usage: scripts/shard_smoke.sh
set -eu

bindir=.shard-smoke-bin
trace=$bindir/burst.trace.json
merged=$bindir/merged_schedule.json
single_log=$bindir/single.log
sharded_log=$bindir/sharded.log
tolerance=0.6
seed=5

mkdir -p "$bindir"
trap 'rm -rf "$bindir"' EXIT

go build -o "$bindir/stagesvc" ./cmd/stagesvc
go run ./cmd/stagesim -seed $seed -emit-trace "$trace" -sat-spec burst

"$bindir/stagesvc" -addr 127.0.0.1:0 -seed $seed -virtual-clock \
    -replay-trace "$trace" > "$single_log" 2>&1 || {
    echo "shard-smoke: single-world replay failed:" >&2
    cat "$single_log" >&2
    exit 1
}
"$bindir/stagesvc" -addr 127.0.0.1:0 -seed $seed -virtual-clock \
    -replay-trace "$trace" -shards 4 -schedule-out "$merged" \
    > "$sharded_log" 2>&1 || {
    echo "shard-smoke: sharded replay failed:" >&2
    cat "$sharded_log" >&2
    exit 1
}

if ! grep -q "partitioned into 4 shards" "$sharded_log"; then
    echo "shard-smoke: sharded run did not partition into 4 shards:" >&2
    cat "$sharded_log" >&2
    exit 1
fi
for log in "$single_log" "$sharded_log"; do
    if ! grep -q "validator: final schedule clean" "$log"; then
        echo "shard-smoke: run did not report a validator-clean final schedule:" >&2
        cat "$log" >&2
        exit 1
    fi
done
if [ ! -s "$merged" ]; then
    echo "shard-smoke: merged-schedule artifact $merged is missing or empty" >&2
    exit 1
fi

single=$(sed -n 's/.*weighted value \([0-9.]*\).*/\1/p' "$single_log")
sharded=$(sed -n 's/.*weighted value \([0-9.]*\).*/\1/p' "$sharded_log")
if [ -z "$single" ] || [ -z "$sharded" ]; then
    echo "shard-smoke: missing weighted-value report (single='$single' sharded='$sharded')" >&2
    exit 1
fi
if ! awk -v s="$single" -v x="$sharded" -v tol="$tolerance" \
    'BEGIN { exit !(s > 0 && x >= tol * s) }'; then
    echo "shard-smoke: sharded objective $sharded below $tolerance x single-world $single" >&2
    exit 1
fi
echo "shard-smoke: OK (single $single, 4-shard $sharded, tolerance $tolerance)" >&2
