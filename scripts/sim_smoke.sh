#!/bin/sh
# sim_smoke.sh: end-to-end smoke of the network timing engine through
# the sparsedist CLI. For every scheme it runs the same distribution
# twice on a mesh and on a bandwidth-starved star and requires (a) the
# deterministic network-model section of the report to be byte-identical
# across runs, and (b) the congested star to show non-zero link
# utilization. A -trace run must print the same network section and
# chart twice. A streamed run with a topology must be refused: its
# frames, credits and finalizes are not the paper's messages, so a
# replay of them would not be the distribution. `make sim-smoke` and CI
# run this.
set -eu

BIN="${TMPDIR:-/tmp}/sparsedist-smoke"
OUT="${TMPDIR:-/tmp}/sim-smoke.$$"
mkdir -p "$OUT"
trap 'rm -rf "$OUT"' EXIT

cd "$(dirname "$0")/.."
go build -o "$BIN" ./cmd/sparsedist

# netsection extracts the deterministic tail of the report: everything
# from the network model header on (virtual times, link table). Wall
# timings above it legitimately vary run to run.
netsection() {
  sed -n '/^network model:/,$p' "$1"
}

for scheme in SFC CFS ED; do
  for topo in "mesh" "star -link-bw 1000000"; do
    # shellcheck disable=SC2086 — $topo intentionally splits into flags.
    "$BIN" -scheme "$scheme" -n 200 -procs 4 -topology $topo >"$OUT/a.txt"
    "$BIN" -scheme "$scheme" -n 200 -procs 4 -topology $topo >"$OUT/b.txt"
    netsection "$OUT/a.txt" >"$OUT/a.net"
    netsection "$OUT/b.txt" >"$OUT/b.net"
    if [ ! -s "$OUT/a.net" ]; then
      echo "sim-smoke: $scheme/$topo: report has no network model section" >&2
      exit 1
    fi
    if ! cmp -s "$OUT/a.net" "$OUT/b.net"; then
      echo "sim-smoke: $scheme/$topo: network section differs across identical runs" >&2
      diff "$OUT/a.net" "$OUT/b.net" >&2 || true
      exit 1
    fi
  done
  # The starved star must show busy links: some utilization figure in
  # the link table above zero.
  if ! grep -Eq ' (100|[1-9][0-9]?)\.[0-9]+%' "$OUT/a.net"; then
    echo "sim-smoke: $scheme: congested star shows no link utilization" >&2
    cat "$OUT/a.net" >&2
    exit 1
  fi
done
# -trace records on the uniform topology and draws the network model's
# chart after the report, on the virtual clock: from the network section
# through the chart's last rank, two runs print the same bytes.
"$BIN" -n 200 -procs 4 -trace >"$OUT/a.txt"
"$BIN" -n 200 -procs 4 -trace >"$OUT/b.txt"
sed -n '/^network model:/,/^P3 /p' "$OUT/a.txt" >"$OUT/a.net"
sed -n '/^network model:/,/^P3 /p' "$OUT/b.txt" >"$OUT/b.net"
if ! grep -q '^time -> ' "$OUT/a.net" || ! grep -q '^P3 ' "$OUT/a.net"; then
  echo "sim-smoke: -trace: no network section followed by a 4-rank chart" >&2
  cat "$OUT/a.txt" >&2
  exit 1
fi
if ! cmp -s "$OUT/a.net" "$OUT/b.net"; then
  echo "sim-smoke: -trace: network section and chart differ across identical runs" >&2
  diff "$OUT/a.net" "$OUT/b.net" >&2 || true
  exit 1
fi
# -stream with a topology exits non-zero, naming both settings.
if "$BIN" -stream -n 200 -procs 4 -topology mesh >"$OUT/s.txt" 2>"$OUT/s.err"; then
  echo "sim-smoke: -stream -topology mesh exited 0; want a refusal" >&2
  exit 1
fi
if ! grep -q stream "$OUT/s.err" || ! grep -q topology "$OUT/s.err"; then
  echo "sim-smoke: -stream -topology mesh: stderr does not name stream and topology:" >&2
  cat "$OUT/s.err" >&2
  exit 1
fi
echo "sim-smoke: OK"
