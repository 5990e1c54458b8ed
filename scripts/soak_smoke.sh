#!/bin/sh
# soak_smoke.sh — an admission-latency soak of the online service: compile
# the soak builtin workload (about 6,000 small arrivals over one day, nearly
# all admitted) into a canonical trace, replay it through a virtual-clock
# stagesvc, and gate on the latency slope — the ratio of the last
# trace-order window's mean latency to the first's. On the virtual clock
# every arrival is its own admission epoch and its latency is the wall time
# of the advance that decided it, so the slope is how per-epoch cost moves
# as the committed history grows from nothing to about 12,000 transfers. A
# flat slope is the incremental epoch engine's success criterion.
#
# Usage: scripts/soak_smoke.sh [MAX_SLOPE]
#   MAX_SLOPE  failure threshold for last/first window mean (default 8)
#
# The incremental engine reads about 1–1.7 on a 2-vCPU box; an engine forced
# onto full replay (every epoch re-commits the whole history and rebuilds
# the planner) reads about 15 on the same trace. The threshold sits between
# them with room for noisy shared runners. The trace and the stageload
# report (window means and slope) are left at .soak-smoke.trace.json and
# .soak-smoke.txt for CI to upload.
set -eu

max_slope=${1:-8}

bindir=.soak-bin
logfile=$bindir/stagesvc.log
trace=.soak-smoke.trace.json
report=.soak-smoke.txt
svcpid=""
mkdir -p "$bindir"
trap '[ -n "$svcpid" ] && kill "$svcpid" 2>/dev/null || true; rm -rf "$bindir"' EXIT

go build -o "$bindir/stagesvc" ./cmd/stagesvc
go build -o "$bindir/stageload" ./cmd/stageload
go run ./cmd/stagesim -seed 3 -emit-trace "$trace" -sat-spec soak >&2

"$bindir/stagesvc" -addr 127.0.0.1:0 -seed 3 -virtual-clock \
    > "$logfile" 2>&1 &
svcpid=$!

addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's#.*listening on http://\([^/]*\)/.*#\1#p' "$logfile")
    [ -n "$addr" ] && break
    if ! kill -0 "$svcpid" 2>/dev/null; then
        echo "soak-smoke: stagesvc died during startup:" >&2
        cat "$logfile" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "soak-smoke: stagesvc never reported its address" >&2
    cat "$logfile" >&2
    exit 1
fi
echo "soak-smoke: stagesvc up at $addr, replaying $trace" >&2

rc=0
"$bindir/stageload" -url "http://$addr" -trace "$trace" -timeout 10m \
    -min-admitted 1 -windows 10 -max-slope "$max_slope" > "$report" 2>&1 || rc=$?
cat "$report"
if [ "$rc" -ne 0 ]; then
    echo "soak-smoke: stageload failed (exit $rc)" >&2
    exit "$rc"
fi

kill -TERM "$svcpid"
if ! wait "$svcpid"; then
    echo "soak-smoke: stagesvc exited non-zero after SIGTERM:" >&2
    cat "$logfile" >&2
    exit 1
fi
svcpid=""
echo "soak-smoke: OK (artifacts: $trace $report)" >&2
