#!/bin/sh
# serve_smoke.sh — end-to-end smoke check of the online admission service:
# build stagesvc and stageload, boot the daemon on a loopback port, drive
# 200 submissions through the closed-loop load generator, require at least
# one admit, then SIGTERM the daemon and require a clean graceful drain
# (exit 0 plus a final-schedule report).
#
# Usage: scripts/serve_smoke.sh
set -eu

bindir=.smoke-bin
logfile=$bindir/stagesvc.log
svcpid=""
mkdir -p "$bindir"
trap '[ -n "$svcpid" ] && kill "$svcpid" 2>/dev/null || true; rm -rf "$bindir"' EXIT

go build -o "$bindir/stagesvc" ./cmd/stagesvc
go build -o "$bindir/stageload" ./cmd/stageload

# An hour of simulated time per wall second, so the generated deadlines
# stay ahead of the service clock for the duration of the run.
"$bindir/stagesvc" -addr 127.0.0.1:0 -seed 3 -time-scale 3600 \
    > "$logfile" 2>&1 &
svcpid=$!

addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's#.*listening on http://\([^/]*\)/.*#\1#p' "$logfile")
    [ -n "$addr" ] && break
    if ! kill -0 "$svcpid" 2>/dev/null; then
        echo "serve-smoke: stagesvc died during startup:" >&2
        cat "$logfile" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "serve-smoke: stagesvc never reported its address" >&2
    cat "$logfile" >&2
    exit 1
fi
echo "serve-smoke: stagesvc up at $addr" >&2

"$bindir/stageload" -url "http://$addr" -n 200 -workers 8 -seed 1 \
    -slack-min 4h -slack-max 12h -min-admitted 1

kill -TERM "$svcpid"
if ! wait "$svcpid"; then
    echo "serve-smoke: stagesvc exited non-zero after SIGTERM:" >&2
    cat "$logfile" >&2
    exit 1
fi
svcpid=""
if ! grep -q "final schedule" "$logfile"; then
    echo "serve-smoke: no final-schedule report in the drain output:" >&2
    cat "$logfile" >&2
    exit 1
fi
echo "serve-smoke: OK" >&2
