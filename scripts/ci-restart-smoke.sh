#!/usr/bin/env bash
# Durable restart smoke test (CI job restart-smoke; also runs standalone).
# Phase 1: rwload supervises its own rwlockd on a durable data dir and
# kill -9s it repeatedly mid-load; the run must exit 0 with a clean
# passage ledger (zero duplicated, zero lost write passages) and strictly
# increasing server epochs across every restart.
# Phase 2: explicit kill -9 / restart on one data dir through the real
# binary, under -fsync always (group commit: every response waits for a
# covering fsync): the restarted server must come back on the same
# directory with a strictly larger epoch and serve another clean ledger
# run.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/rwlockd" ./cmd/rwlockd
go build -o "$work/rwload" ./cmd/rwload

# --- Phase 1: supervised kill -9 chaos ---------------------------------
addr="127.0.0.1:7913"
"$work/rwload" -addr "$addr" -clients 32 -keys 8 -mix write-heavy \
    -dur 12s -ttl 500ms -wait 1s \
    -server-bin "$work/rwlockd" \
    -server-flags "-addr $addr -ttl 500ms -quiet -data-dir $work/data1 -fsync never" \
    -server-crash-rate 0.5 >"$work/load1.out" || {
    echo "FAIL: supervised chaos run failed:" >&2
    cat "$work/load1.out" >&2
    exit 1
}
grep -q "dup=0" "$work/load1.out" && grep -q "lost=0" "$work/load1.out" || {
    echo "FAIL: chaos run ledger not clean:" >&2
    cat "$work/load1.out" >&2
    exit 1
}
grep -q "monotonic=true" "$work/load1.out" || {
    echo "FAIL: server epochs not strictly increasing:" >&2
    cat "$work/load1.out" >&2
    exit 1
}
crashes="$(grep -o 'server: crashes=[0-9]*' "$work/load1.out" | grep -o '[0-9]*')"
if [ -z "$crashes" ] || [ "$crashes" -lt 1 ]; then
    echo "FAIL: supervisor recorded ${crashes:-no} server crashes; the chaos phase tested nothing:" >&2
    cat "$work/load1.out" >&2
    exit 1
fi

# --- Phase 2: explicit kill -9 + restart on one data dir ----------------
addr2="127.0.0.1:7914"
data="$work/data2"

start_server() {
    local log="$1"
    "$work/rwlockd" -addr "$addr2" -ttl 500ms -quiet \
        -data-dir "$data" -fsync always >"$log" 2>&1 &
    server_pid=$!
    for i in $(seq 1 50); do
        if grep -q "serving epoch" "$log" 2>/dev/null; then return 0; fi
        if ! kill -0 "$server_pid" 2>/dev/null; then
            echo "FAIL: rwlockd died on startup:" >&2
            cat "$log" >&2
            exit 1
        fi
        sleep 0.1
    done
    echo "FAIL: rwlockd never reported a serving epoch:" >&2
    cat "$log" >&2
    exit 1
}
scrape_epoch() {
    grep -o 'serving epoch [0-9]*' "$1" | tail -1 | grep -o '[0-9]*'
}

start_server "$work/server1.out"
epoch1="$(scrape_epoch "$work/server1.out")"

"$work/rwload" -addr "$addr2" -clients 16 -keys 8 -mix write-heavy \
    -dur 2s -ttl 500ms >"$work/load2.out" || {
    echo "FAIL: pre-restart rwload run failed:" >&2
    cat "$work/load2.out" >&2
    exit 1
}
grep -q "dup=0" "$work/load2.out" && grep -q "lost=0" "$work/load2.out" || {
    echo "FAIL: pre-restart ledger not clean:" >&2
    cat "$work/load2.out" >&2
    exit 1
}

kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

start_server "$work/server2.out"
epoch2="$(scrape_epoch "$work/server2.out")"
if [ "$epoch2" -le "$epoch1" ]; then
    echo "FAIL: restart epoch $epoch2 did not increase past $epoch1:" >&2
    cat "$work/server2.out" >&2
    exit 1
fi

"$work/rwload" -addr "$addr2" -clients 16 -keys 8 -mix write-heavy \
    -dur 2s -ttl 500ms >"$work/load3.out" || {
    echo "FAIL: post-restart rwload run failed:" >&2
    cat "$work/load3.out" >&2
    exit 1
}
grep -q "dup=0" "$work/load3.out" && grep -q "lost=0" "$work/load3.out" || {
    echo "FAIL: post-restart ledger not clean:" >&2
    cat "$work/load3.out" >&2
    exit 1
}

kill -TERM "$server_pid"
wait "$server_pid" || true
server_pid=""

echo "restart smoke: $crashes supervised kill -9s with clean ledger and monotonic epochs; explicit restart bumped epoch $epoch1 -> $epoch2 with clean ledgers"
