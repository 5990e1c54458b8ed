#!/bin/sh
# soak_smoke.sh — a short admission-latency soak of the online service:
# boot stagesvc on a loopback port, drive a few thousand submissions
# through the closed-loop load generator in soak mode, and gate on the
# latency slope — the ratio of the last completion-order window's mean
# latency to the first's. A flat slope is the incremental epoch engine's
# success criterion: per-epoch admission cost must not grow with the
# committed history. Diagnosis is disabled so the gate measures the
# replanning path, not the explain walk over reject-heavy tails.
#
# Usage: scripts/soak_smoke.sh [N [MAX_SLOPE]]
#   N          submissions to drive (default 3000)
#   MAX_SLOPE  failure threshold for last/first window mean (default 8)
#
# The threshold is deliberately loose for CI: the full-replay engine blows
# through it within a few thousand requests (epoch cost grows linearly
# with history), while the incremental engine reads 1.6–2.2 with headroom
# for noisy shared runners. The service flushes an epoch whenever it is
# idle, so nothing pads the windows (2–3 ms) and the slope is the real
# per-epoch growth, not that growth hidden under a fixed batching delay.
set -eu

n=${1:-3000}
max_slope=${2:-8}

bindir=.soak-bin
logfile=$bindir/stagesvc.log
svcpid=""
mkdir -p "$bindir"
trap '[ -n "$svcpid" ] && kill "$svcpid" 2>/dev/null || true; rm -rf "$bindir"' EXIT

go build -o "$bindir/stagesvc" ./cmd/stagesvc
go build -o "$bindir/stageload" ./cmd/stageload

# An hour of simulated time per wall second keeps the generated deadlines
# ahead of the service clock for the whole soak.
"$bindir/stagesvc" -addr 127.0.0.1:0 -seed 3 -time-scale 3600 \
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
echo "soak-smoke: stagesvc up at $addr, driving $n submissions" >&2

"$bindir/stageload" -url "http://$addr" -n "$n" -workers 8 -seed 1 \
    -slack-min 4h -slack-max 12h -timeout 10m -min-admitted 1 \
    -windows 10 -max-slope "$max_slope"

kill -TERM "$svcpid"
if ! wait "$svcpid"; then
    echo "soak-smoke: stagesvc exited non-zero after SIGTERM:" >&2
    cat "$logfile" >&2
    exit 1
fi
svcpid=""
echo "soak-smoke: OK" >&2
