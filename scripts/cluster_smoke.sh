#!/bin/sh
# cluster_smoke.sh: kill-a-node survival test for the sparsedistd
# cluster. Boots three daemons gossiping over fast heartbeats, starts
# the cluster load generator (consistent-hash routing, idempotent
# client job IDs, circuit-breaker failover), SIGKILLs one node while
# the load is in flight, and requires the run to finish with zero lost
# and zero duplicated jobs, at least one observed failover or
# resubmission, and a survivor whose failure detector reports the dead
# peer. Finally SIGTERMs the survivors and requires clean drains.
# `make cluster-smoke` and CI run this.
set -eu

P1="${P1:-127.0.0.1:8561}"
P2="${P2:-127.0.0.1:8562}"
P3="${P3:-127.0.0.1:8563}"
U1="http://$P1"; U2="http://$P2"; U3="http://$P3"
BIN="${TMPDIR:-/tmp}/sparsedistd-cluster-smoke"

cd "$(dirname "$0")/.."
go build -o "$BIN" ./cmd/sparsedistd

# Fast failure detection so the kill is noticed well inside the load
# window: suspect after 400ms of silence, dead (ranges remap) at 1s.
HB="-hb-interval 100ms -suspect-after 400ms -dead-after 1s"

start_node() { # addr node-id peers...
  addr="$1"; id="$2"; peers="$3"
  # shellcheck disable=SC2086
  "$BIN" -addr "$addr" -node-id "$id" -peers "$peers" $HB \
    -queue 64 -workers 4 &
}

start_node "$P1" n1 "$U2,$U3"; PID1=$!
start_node "$P2" n2 "$U1,$U3"; PID2=$!
start_node "$P3" n3 "$U1,$U2"; PID3=$!
trap 'kill "$PID1" "$PID2" "$PID3" 2>/dev/null || true' EXIT

# Readiness: every node must answer a one-job probe.
for u in "$U1" "$U2" "$U3"; do
  i=0
  until "$BIN" -loadgen -target "$u" -jobs 1 -clients 1 -n 32 >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
      echo "cluster-smoke: daemon never became healthy on $u" >&2
      exit 1
    fi
    sleep 0.1
  done
done

# Membership: the loadgen learns the cluster from its first endpoint,
# so n1 must have heard from both peers before the load starts — a
# cluster of one routes nothing to the doomed node and the kill goes
# unnoticed.
i=0
until nodes=$(curl -sf "$U1/cluster/nodes") &&
  echo "$nodes" | grep -q '"id":"n2"' && echo "$nodes" | grep -q '"id":"n3"'; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "cluster-smoke: n1 never learned its peers" >&2
    exit 1
  fi
  sleep 0.1
done

# Load in the background: 90 jobs over 8 clients, 12 distinct plan
# keys per scheme (-spread) so the doomed node owns some hash ranges.
# n=2048 sizes each job at a few hundred milliseconds, keeping the run
# in flight for several seconds so the kill lands mid-load. The
# assertions make a silent non-failover run a failure: at least one
# failover/resubmission must happen and a survivor must report >=1
# dead peer.
"$BIN" -loadgen -targets "$U1,$U2,$U3" \
  -jobs 90 -clients 8 -schemes SFC,CFS,ED -n 2048 -spread 12 -procs 4 \
  -assert-metrics -assert-failover -assert-dead-nodes 1 &
LG=$!

# Kill n3 mid-load with SIGKILL — no drain, no goodbye: connections
# die, its hash ranges must remap to n1/n2 via the failure detector.
sleep 1
kill -9 "$PID3"
wait "$PID3" 2>/dev/null || true
echo "cluster-smoke: SIGKILLed n3 ($PID3) mid-load"

if ! wait "$LG"; then
  echo "cluster-smoke: loadgen failed after node kill" >&2
  exit 1
fi

# Graceful drain of the survivors: SIGTERM must exit zero.
kill -TERM "$PID1" "$PID2"
wait "$PID1"
wait "$PID2"
trap - EXIT
echo "cluster-smoke: OK (node killed, zero lost, zero duplicated)"
