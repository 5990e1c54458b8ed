#!/bin/sh
# audit_smoke.sh — CI smoke for the request-lifecycle audit pipeline: emit
# a small canonical trace, replay it through stagesvc with -audit-out, and
# validate the resulting JSONL with auditcheck (schema version, required
# fields, monotone timeline stamps, gap-free seq, at least one decision).
# A second replay of the same trace must reproduce the audit stream byte
# for byte — the determinism contract that makes the log a forensic
# record rather than an approximation. The whole check runs twice: single
# world, and at -shards 2 so the records of cross-shard offer legs (epochs
# left open by Propose and closed by Commit) meet the same schema. The
# artifacts are left at .audit-smoke.jsonl and .audit-smoke-shards2.jsonl
# for CI to upload.
#
# Usage: scripts/audit_smoke.sh
set -eu

trace=.audit-smoke.trace.json
rerun=.audit-smoke-rerun.jsonl
trap 'rm -f "$trace" "$rerun"' EXIT

go run ./cmd/stagesim -emit-trace "$trace" -sat-spec steady -seed 3 >&2

# check ARTIFACT [stagesvc flags...]
check() {
    artifact=$1
    shift
    go run ./cmd/stagesvc -addr 127.0.0.1:0 -seed 3 -virtual-clock "$@" \
        -replay-trace "$trace" -audit-out "$artifact" >&2

    if [ ! -s "$artifact" ]; then
        echo "audit-smoke: artifact $artifact is missing or empty" >&2
        exit 1
    fi

    go run ./scripts/auditcheck "$artifact"

    go run ./cmd/stagesvc -addr 127.0.0.1:0 -seed 3 -virtual-clock "$@" \
        -replay-trace "$trace" -audit-out "$rerun" > /dev/null

    if ! cmp -s "$artifact" "$rerun"; then
        echo "audit-smoke: audit stream $artifact is not byte-stable across replays" >&2
        exit 1
    fi
}

check .audit-smoke.jsonl
check .audit-smoke-shards2.jsonl -shards 2
echo "audit-smoke: OK (artifacts: .audit-smoke.jsonl .audit-smoke-shards2.jsonl)" >&2
