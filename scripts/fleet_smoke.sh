#!/usr/bin/env bash
# Multi-process fleet smoke: two `serve -role shard` processes and a
# router, so the router's frame connections are upgraded through the
# real http.Server with the ReadTimeout / IdleTimeout cmd/serve sets
# (the in-process httptest harness sets neither). The stream is fed in
# three parts:
#
#   1. plain;
#   2. after the fleet sat idle past every deadline that could cut a
#      kept connection (cmd/serve's ReadTimeout 30 s and IdleTimeout
#      2 min, the shard's own idle deadline 2 min);
#   3. after one shard was SIGKILLed and restarted from its data dir.
#
# Every request must answer 200 — a dead kept connection is redialed,
# not reported — and the finished stream's /entities and /candidates
# must equal a single process's byte for byte. Exits non-zero otherwise.
#
# Usage: scripts/fleet_smoke.sh [workdir]
#   IDLE_S overrides the idle wait (default 125 s).
set -euo pipefail

cd "$(dirname "$0")/.."
WORK="${1:-$(mktemp -d)}"
IDLE_S="${IDLE_S:-125}"
REF_PORT=18190
ROUTER_PORT=18191
SHARD_PORT=(18192 18193)
PIDS=()

cleanup() {
  local pid
  for pid in "${PIDS[@]}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

say() { echo "fleet_smoke: $*"; }

go build -o "$WORK/serve" ./cmd/serve

NAMES=(Obama Italy Paris Milan Google)
BODIES=()
for (( i=0; i<18; i++ )); do
  a="${NAMES[$(( i % 5 ))]}"; b="${NAMES[$(( (i * 3 + 1) % 5 ))]}"
  BODIES+=("{\"tweets\":[\"$a makes news again on day $i\",\"Crowds gather for $b tonight\"]}")
done
THIRD=6

wait_healthy() { # port timeout_sec
  local port="$1" deadline=$(( $(date +%s) + $2 ))
  while :; do
    if [ "$(curl -s -o /dev/null -w '%{http_code}' "http://localhost:$port/healthz" || true)" = "200" ]; then
      return 0
    fi
    if [ "$(date +%s)" -ge "$deadline" ]; then
      say "server on :$port not healthy within $2 s"
      return 1
    fi
    sleep 1
  done
}

feed() { # port from to — curl -f turns a 503 into a failure
  local port="$1" i
  for (( i=$2; i<$3; i++ )); do
    curl -sf -X POST "http://localhost:$port/annotate" -d "${BODIES[$i]}" > /dev/null \
      || { say "FAIL: request $i to :$port was not answered 200"; exit 1; }
  done
}

stop_gracefully() { # pid — SIGTERM, wait, and require exit status 0
  local status=0
  kill "$1"
  wait "$1" || status=$?
  if [ "$status" != "0" ]; then
    say "FAIL: serve (pid $1) exited $status on SIGTERM, want 0"
    exit 1
  fi
}

start_shard() { # index
  "$WORK/serve" -role shard -shard-index "$1" -shard-count 2 \
    -model "$WORK/model.ckpt" -data-dir "$WORK/shard$1" -fsync group -snapshot-every 2 \
    -addr ":${SHARD_PORT[$1]}" >> "$WORK/shard$1.log" 2>&1 &
  SHARD_PID[$1]=$!
  PIDS+=("$!")
}

counter() { # name — from the router's /statusz
  curl -sf "http://localhost:$ROUTER_PORT/statusz" | python3 -c '
import json, sys
print(json.load(sys.stdin)["metrics"]["counters"].get(sys.argv[1], 0))' "$1"
}

say "training the single-process reference (saves the shared checkpoint)"
"$WORK/serve" -scale small -save "$WORK/model.ckpt" -addr ":$REF_PORT" > "$WORK/ref.log" 2>&1 &
REF_PID=$!
PIDS+=("$REF_PID")
wait_healthy "$REF_PORT" 900
feed "$REF_PORT" 0 "${#BODIES[@]}"
curl -sf "http://localhost:$REF_PORT/entities" > "$WORK/ref_entities.json"
curl -sf "http://localhost:$REF_PORT/candidates" > "$WORK/ref_candidates.json"
stop_gracefully "$REF_PID"

say "starting two shards and a router"
SHARD_PID=(0 0)
start_shard 0
start_shard 1
wait_healthy "${SHARD_PORT[0]}" 300
wait_healthy "${SHARD_PORT[1]}" 300
"$WORK/serve" -role router \
  -shards "http://localhost:${SHARD_PORT[0]},http://localhost:${SHARD_PORT[1]}" \
  -addr ":$ROUTER_PORT" > "$WORK/router.log" 2>&1 &
PIDS+=("$!")
wait_healthy "$ROUTER_PORT" 60

feed "$ROUTER_PORT" 0 "$THIRD"
DIALED=$(counter ner_fleet_connections_dialed_total)
say "part 1 done over $DIALED connections; idling $IDLE_S s"
sleep "$IDLE_S"

feed "$ROUTER_PORT" "$THIRD" $(( 2 * THIRD ))
say "part 2 done after the idle wait ($(counter ner_fleet_rpc_redials_total) redials so far)"
if [ "$IDLE_S" -ge 121 ] && [ "$(counter ner_fleet_rpc_redials_total)" -lt 1 ]; then
  say "FAIL: the fleet idled past the shard's idle deadline and no call redialed"
  exit 1
fi

say "SIGKILL shard 1, restart it from its data dir"
REDIALS=$(counter ner_fleet_rpc_redials_total)
kill -9 "${SHARD_PID[1]}"
wait "${SHARD_PID[1]}" 2>/dev/null || true
start_shard 1
wait_healthy "${SHARD_PORT[1]}" 300

feed "$ROUTER_PORT" $(( 2 * THIRD )) "${#BODIES[@]}"
if [ "$(counter ner_fleet_rpc_redials_total)" -le "$REDIALS" ]; then
  say "FAIL: shard 1 was restarted and no call redialed"
  exit 1
fi
for name in ner_fleet_degraded_cycles_total ner_http_rejected_total; do
  if [ "$(counter "$name")" != "0" ]; then
    say "FAIL: $name = $(counter "$name"), want 0"
    exit 1
  fi
done

curl -sf "http://localhost:$ROUTER_PORT/entities" > "$WORK/fleet_entities.json"
curl -sf "http://localhost:$ROUTER_PORT/candidates" > "$WORK/fleet_candidates.json"
say "byte-diffing the fleet against the single process"
if ! diff -u "$WORK/ref_entities.json" "$WORK/fleet_entities.json"; then
  say "FAIL: fleet /entities diverges from the single process"
  exit 1
fi
if ! diff -u "$WORK/ref_candidates.json" "$WORK/fleet_candidates.json"; then
  say "FAIL: fleet /candidates diverges from the single process"
  exit 1
fi
say "PASS: every request answered 200 across the idle wait and the shard restart; output is byte-identical"
