#!/bin/sh
# auto_smoke.sh: end-to-end smoke of scheme=auto plan selection.
# Builds sparsedistd, starts it, drives it with the load generator
# rotating AUTO in with the explicit schemes, and asserts that auto
# jobs resolved plans and /metrics counts them. Also checks the CLI's
# -scheme auto path prints its chosen plan and passes the differential
# oracle. `make auto-smoke` and CI run this.
set -eu

ADDR="${ADDR:-127.0.0.1:8487}"
BIN="${TMPDIR:-/tmp}/sparsedistd-auto-smoke"
CLI="${TMPDIR:-/tmp}/sparsedist-auto-smoke"

cd "$(dirname "$0")/.."
go build -o "$BIN" ./cmd/sparsedistd
go build -o "$CLI" ./cmd/sparsedist

# CLI path: auto must pick a plan, report it, and survive both oracles.
"$CLI" -n 200 -ratio 0.1 -scheme auto -procs 4 -check | grep -q "auto-selected:" || {
  echo "auto-smoke: sparsedist -scheme auto printed no auto-selected line" >&2
  exit 1
}

"$BIN" -addr "$ADDR" -queue 32 -workers 4 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

# Readiness: a one-job probe doubles as the health check.
i=0
until "$BIN" -loadgen -target "http://$ADDR" -jobs 1 -clients 1 -n 32 >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "auto-smoke: daemon never became healthy on $ADDR" >&2
    exit 1
  fi
  sleep 0.1
done

# -assert-auto checks from /metrics that the auto jobs resolved plans.
"$BIN" -loadgen -target "http://$ADDR" \
  -jobs 30 -clients 3 -schemes SFC,CFS,ED,AUTO -n 96 -procs 4 \
  -assert-metrics -assert-auto

# The counter itself, straight off the wire.
curl -sf "http://$ADDR/metrics" | grep -q "sparsedistd_auto_jobs_total" || {
  echo "auto-smoke: /metrics exposes no auto jobs counter" >&2
  exit 1
}

# Graceful drain: SIGTERM must finish accepted jobs and exit zero.
kill -TERM "$PID"
wait "$PID"
trap - EXIT
echo "auto-smoke: OK"
