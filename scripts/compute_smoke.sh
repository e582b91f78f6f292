#!/bin/sh
# compute_smoke.sh: end-to-end smoke of the distributed compute layer.
# Runs every op through the CLI with its sequential oracle, then boots
# the daemon, drives op-carrying jobs through the load generator (ops
# executed, comm-plan cache hit, traffic counters moved), SIGTERMs it
# and requires a clean drain. `make compute-smoke` and CI run this.
set -eu

ADDR="${ADDR:-127.0.0.1:8478}"
BIN="${TMPDIR:-/tmp}/sparsedistd-compute-smoke"
CLI="${TMPDIR:-/tmp}/sparsedist-compute-smoke"

cd "$(dirname "$0")/.."
go build -o "$BIN" ./cmd/sparsedistd
go build -o "$CLI" ./cmd/sparsedist

# CLI: every op against its sequential oracle (verify is on by default).
"$CLI" -n 96 -scheme ED -partition row -procs 4 -op spmv >/dev/null
"$CLI" -n 96 -scheme CFS -partition row -procs 4 -op jacobi >/dev/null
"$CLI" -n 64 -scheme SFC -partition mesh -mesh 2x2 -op spgemm >/dev/null
echo "compute-smoke: CLI ops OK"

"$BIN" -addr "$ADDR" -queue 32 -workers 4 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

# Readiness: a one-job probe doubles as the health check.
i=0
until "$BIN" -loadgen -target "http://$ADDR" -jobs 1 -clients 1 -n 32 >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "compute-smoke: daemon never became healthy on $ADDR" >&2
    exit 1
  fi
  sleep 0.1
done

for op in spmv jacobi spgemm; do
  "$BIN" -loadgen -target "http://$ADDR" \
    -jobs 6 -clients 2 -schemes SFC,CFS,ED -n 64 -procs 4 \
    -op "$op" -assert-ops
done

# Graceful drain: SIGTERM must finish accepted jobs and exit zero.
kill -TERM "$PID"
wait "$PID"
trap - EXIT
echo "compute-smoke: OK"
