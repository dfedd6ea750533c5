#!/usr/bin/env bash
# Crash-recovery smoke: serve a golden stream, SIGKILL the process
# mid-stream, restart it from the same -data-dir, and hard-gate that
# the finished stream's annotations are byte-identical to an
# uninterrupted run. Also pipes a live inclusion proof through the
# offline verifier. Exits non-zero on any divergence.
#
# Usage: scripts/crash_recovery_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
WORK="${1:-$(mktemp -d)}"
REF_PORT=18080
DUR_PORT=18081
SERVE_PID=""

cleanup() {
  [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
}
trap cleanup EXIT

say() { echo "crash_recovery_smoke: $*"; }

go build -o "$WORK/serve" ./cmd/serve
go build -o "$WORK/nerprove" ./cmd/nerprove

# The removed inline-fsync policy is a usage error that names its
# replacement, before anything is trained or opened.
status=0
"$WORK/serve" -data-dir "$WORK/never" -fsync always > "$WORK/always.log" 2>&1 || status=$?
if [ "$status" != "2" ] || ! grep -q 'group' "$WORK/always.log" || [ -e "$WORK/never" ]; then
  say "FAIL: serve -fsync always exited $status (want 2, naming group, touching no data dir)"
  exit 1
fi

# The removed serving flags are usage errors too: a script still passing
# one fails at once instead of serving under a setting it did not get.
for removed in -snapshot-async "-batch-window 0" "-simd generic" -metrics=false "-infer-batch 256"; do
  status=0
  # shellcheck disable=SC2086 # split "-flag value" into two arguments
  "$WORK/serve" -data-dir "$WORK/never" $removed > "$WORK/removed.log" 2>&1 || status=$?
  if [ "$status" != "2" ] || [ -e "$WORK/never" ]; then
    say "FAIL: serve $removed exited $status (want 2, touching no data dir)"
    exit 1
  fi
done

# The golden stream: fixed request bodies, fed in the same order to
# every run. Entity-bearing text so the byte-diff gates real
# annotations, not empty tables.
BODIES=(
  '{"tweets":["Cases rise in Italy again","Obama visits Paris this week"]}'
  '{"tweets":["Google opens office in Milan","Fans cheer for Milan tonight"]}'
  '{"tweets":["Quarantine extended in Italy","Paris streets are quiet"]}'
  '{"tweets":["Obama speech trends worldwide","New cafe opens in Paris"]}'
  '{"tweets":["Milan derby postponed","Google stock climbs again"]}'
  '{"tweets":["Italy announces new measures","Obama lands in Milan"]}'
)
HALF=3

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

stop_gracefully() { # pid — SIGTERM, wait, and require exit status 0
  local status=0
  kill "$1"
  wait "$1" || status=$?
  if [ "$status" != "0" ]; then
    say "FAIL: serve (pid $1) exited $status on SIGTERM, want 0"
    exit 1
  fi
}

feed() { # port from to
  local port="$1" i
  for (( i=$2; i<$3; i++ )); do
    curl -sf -X POST "http://localhost:$port/annotate" -d "${BODIES[$i]}" > /dev/null
  done
}

# Train once, save the checkpoint, and use the same process as the
# uninterrupted reference run.
say "training reference server (saves the shared checkpoint)"
"$WORK/serve" -scale small -save "$WORK/model.ckpt" -addr ":$REF_PORT" \
  > "$WORK/ref.log" 2>&1 &
SERVE_PID=$!
wait_healthy "$REF_PORT" 900
feed "$REF_PORT" 0 "${#BODIES[@]}"
curl -sf "http://localhost:$REF_PORT/entities" > "$WORK/ref_entities.json"
stop_gracefully "$SERVE_PID"
SERVE_PID=""

# Durable run: same checkpoint, half the stream, then SIGKILL — no
# shutdown hook gets to run, recovery starts from fsynced state only.
# Acks block until the covering fsync, so a kill in the append-to-fsync
# gap must never lose a request the client saw acknowledged.
say "durable run, SIGKILL after $HALF of ${#BODIES[@]} requests"
"$WORK/serve" -model "$WORK/model.ckpt" -data-dir "$WORK/state" \
  -snapshot-every 2 -fsync group -addr ":$DUR_PORT" \
  > "$WORK/durable1.log" 2>&1 &
SERVE_PID=$!
wait_healthy "$DUR_PORT" 300
feed "$DUR_PORT" 0 "$HALF"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

# Restart from the data dir: /healthz answers 503 "replaying" until the
# snapshot restore + WAL replay finish, then the stream continues.
say "restarting from $WORK/state"
"$WORK/serve" -model "$WORK/model.ckpt" -data-dir "$WORK/state" \
  -snapshot-every 2 -fsync group -addr ":$DUR_PORT" \
  > "$WORK/durable2.log" 2>&1 &
SERVE_PID=$!
wait_healthy "$DUR_PORT" 300
feed "$DUR_PORT" "$HALF" "${#BODIES[@]}"
curl -sf "http://localhost:$DUR_PORT/entities" > "$WORK/resumed_entities.json"

say "byte-diffing resumed stream against uninterrupted reference"
if ! diff -u "$WORK/ref_entities.json" "$WORK/resumed_entities.json"; then
  say "FAIL: resumed annotations diverge from the uninterrupted run"
  exit 1
fi

say "verifying a live inclusion proof offline"
curl -sf "http://localhost:$DUR_PORT/proof?tweet=0" > "$WORK/proof.json"
"$WORK/nerprove" -in "$WORK/proof.json"

stop_gracefully "$SERVE_PID"
SERVE_PID=""
say "PASS: crash recovery is byte-identical and the proof verifies"

# Delta-chain leg: a longer stream at -snapshot-every 2, so that most
# snapshots are deltas linked to a base. The SIGKILL is held back until
# /statusz shows the server at least two deltas past its newest base —
# recovery has to merge a chain, not load one file — and after the
# finished stream the data dir must hold exactly the newest chain: one
# base plus its deltas, no stale snap-* file and no orphan .tmp.
CHAIN_PORT=18083
NAMES=(Obama Italy Paris Milan Google)
LONG=()
for (( i=0; i<60; i++ )); do
  a="${NAMES[$(( i % 5 ))]}"; b="${NAMES[$(( (i * 3 + 1) % 5 ))]}"
  LONG+=("{\"tweets\":[\"$a makes news again on day $i\",\"Crowds gather for $b tonight\"]}")
done

feed_long() { # port from to
  local port="$1" i
  for (( i=$2; i<$3; i++ )); do
    curl -sf -X POST "http://localhost:$port/annotate" -d "${LONG[$i]}" > /dev/null
  done
}

chain_state() { # port -> "pending chain_length base_seq"
  curl -sf "http://localhost:$1/statusz" | python3 -c '
import json, sys
d = json.load(sys.stdin)["durability"]
print(d["snapshot_pending"], d["chain_length"], d["base_seq"])'
}

say "delta-chain reference run (no data dir)"
"$WORK/serve" -model "$WORK/model.ckpt" -addr ":$CHAIN_PORT" > "$WORK/chainref.log" 2>&1 &
SERVE_PID=$!
wait_healthy "$CHAIN_PORT" 300
feed_long "$CHAIN_PORT" 0 "${#LONG[@]}"
curl -sf "http://localhost:$CHAIN_PORT/entities" > "$WORK/chainref_entities.json"
stop_gracefully "$SERVE_PID"
SERVE_PID=""

say "delta-chain run, SIGKILL once two deltas past a base"
"$WORK/serve" -model "$WORK/model.ckpt" -data-dir "$WORK/cstate" \
  -snapshot-every 2 -fsync group -addr ":$CHAIN_PORT" \
  > "$WORK/chain1.log" 2>&1 &
SERVE_PID=$!
wait_healthy "$CHAIN_PORT" 300
KILL_AT=0
for (( k=0; k<40; k++ )); do
  feed_long "$CHAIN_PORT" "$k" "$(( k + 1 ))"
  read -r pending chain base < <(chain_state "$CHAIN_PORT")
  if [ "$k" -ge 20 ] && [ "$pending" = "0" ] && [ "$chain" -ge 3 ]; then
    KILL_AT=$(( k + 1 ))
    say "killing after request $KILL_AT: chain of $chain files on base $base"
    break
  fi
done
if [ "$KILL_AT" = "0" ]; then
  say "FAIL: server never stood two deltas past a base (last chain: $chain on base $base)"
  exit 1
fi
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

say "restarting from $WORK/cstate"
"$WORK/serve" -model "$WORK/model.ckpt" -data-dir "$WORK/cstate" \
  -snapshot-every 2 -fsync group -addr ":$CHAIN_PORT" \
  > "$WORK/chain2.log" 2>&1 &
SERVE_PID=$!
wait_healthy "$CHAIN_PORT" 300
feed_long "$CHAIN_PORT" "$KILL_AT" "${#LONG[@]}"
curl -sf "http://localhost:$CHAIN_PORT/entities" > "$WORK/chain_entities.json"

say "byte-diffing delta-chain resumed stream against uninterrupted reference"
if ! diff -u "$WORK/chainref_entities.json" "$WORK/chain_entities.json"; then
  say "FAIL: delta-chain resumed annotations diverge from the uninterrupted run"
  exit 1
fi

say "checking the data dir holds exactly the newest chain"
for (( k=0; k<100; k++ )); do
  read -r pending chain base < <(chain_state "$CHAIN_PORT")
  [ "$pending" = "0" ] && break
  sleep 0.1
done
files=$(ls "$WORK/cstate" | grep '^snap-' || true)
count=$(echo "$files" | grep -c . || true)
oldest=$(echo "$files" | head -n 1)
want=$(printf 'snap-%020d.snap' "$base")
if [ "$pending" != "0" ] || [ "$count" != "$chain" ] || [ "$oldest" != "$want" ] || echo "$files" | grep -q '\.tmp$'; then
  say "FAIL: statusz reports a chain of $chain on base $base (pending $pending), data dir holds:"
  echo "$files"
  exit 1
fi

stop_gracefully "$SERVE_PID"
SERVE_PID=""
say "PASS: recovery from a chain of deltas is byte-identical and the data dir holds one base plus $(( chain - 1 )) deltas"
