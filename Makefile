# Convenience targets for the sparsedist reproduction.

GO ?= go

.PHONY: all build test test-race lint fuzz-smoke check-diff bench bench-json bench-compare bench-stream bench-sim bench-ops bench-kernels bench-all tables examples serve-smoke cluster-smoke compute-smoke sim-smoke auto-smoke sim-remarks ci clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Lint gate: formatting, vet, and staticcheck when installed (CI
# installs it; locally it is optional and skipped if absent).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else echo "staticcheck not installed; skipping"; fi

# Short fuzz pass over the wire decoders (go-native fuzzing runs one
# target per invocation, so each gets its own line).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodePartCFS -fuzztime 10s ./internal/compress/
	$(GO) test -run '^$$' -fuzz FuzzDecodePartED -fuzztime 10s ./internal/compress/
	$(GO) test -run '^$$' -fuzz FuzzDiffDistribute -fuzztime 10s ./internal/core/

# The differential correctness harness at full size: >= 200 adversarial
# arrays through every scheme x partition x method combination, direct,
# degraded and killed-rank engine paths, invariant checks on the hot
# path and the element-wise reassembly oracle on every result; then an
# extended run of the end-to-end differential fuzz target.
check-diff:
	$(GO) test -run 'TestDiffSweep' -count=1 -v ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDiffDistribute -fuzztime 2m ./internal/core/

# What CI runs: lint, build, the full test suite, a race-detector pass
# over the whole tree, and the nested bench module (its own go.mod, so
# the root ./... never sees it).
ci: lint
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Trajectory benchmarks: the BenchmarkRootEncode family plus the
# streaming-vs-materializing pair (with its peak-MB memory metric),
# snapshotted (ns/op, allocs/op, virtual-clock and peak-heap metrics)
# into a dated JSON file for cross-commit comparison.
BENCH_PATTERN = BenchmarkRootEncode|BenchmarkStreamDistribute|BenchmarkSimnetEvents|BenchmarkSpMV$$|BenchmarkDistSpGEMM
bench: bench-json

bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem . \
		| $(GO) run ./cmd/benchjson -out BENCH_$$(date +%F).json

# Diff a fresh snapshot against the committed baseline; exits non-zero
# when anything regressed more than THRESHOLD (fractional). CI runs
# this as an enforcing gate.
BASELINE ?= BENCH_2026-08-08.json
THRESHOLD ?= 0.15
bench-compare:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem . \
		| $(GO) run ./cmd/benchjson -out /tmp/bench_new.json
	$(GO) run ./cmd/benchjson -compare -threshold $(THRESHOLD) $(BASELINE) /tmp/bench_new.json

# Out-of-core memory gate: run the streaming-vs-materializing pair on
# the >=10M-nonzero input, snapshot it with the peak-MB metric, and
# assert the streaming path's peak heap is at most half the
# materializing path's while staying within 10% of its ns/op.
bench-stream:
	$(GO) test -run '^$$' -bench 'BenchmarkStreamDistribute' -benchtime=1x -benchmem . \
		| $(GO) run ./cmd/benchjson -out /tmp/bench_stream.json
	$(GO) run ./cmd/benchjson -ratio -metric peak-MB -max 0.5 /tmp/bench_stream.json \
		BenchmarkStreamDistribute/streaming BenchmarkStreamDistribute/materializing
	$(GO) run ./cmd/benchjson -ratio -metric ns_per_op -max 1.10 /tmp/bench_stream.json \
		BenchmarkStreamDistribute/streaming BenchmarkStreamDistribute/materializing

# Network-model overhead gate: attaching the simnet recorder plus a
# full replay must stay within 10% of the counters-only path.
bench-sim:
	$(GO) test -run '^$$' -bench 'BenchmarkSimnetEvents' -benchtime=50x . \
		| $(GO) run ./cmd/benchjson -out /tmp/bench_sim.json
	$(GO) run ./cmd/benchjson -ratio -metric ns_per_op -max 1.10 /tmp/bench_sim.json \
		BenchmarkSimnetEvents/simnet-uniform BenchmarkSimnetEvents/counter

# Compute-layer gates. Traffic: on a banded array (s <= 0.1) the halo
# exchange must move strictly fewer wire words than broadcasting the
# operand, for both SpMV (x vector) and SpGEMM (the whole B array, in
# the same row-buffer encoding). Time: the distributed SpGEMM must beat
# the sequential ops.SpGEMM on the same operands, and a halo Jacobi
# sweep (internal/spops BenchmarkJacobiSweep, the compute_sweep shape)
# may cost at most 1.25x one sequential ops.SpMV on the same array: on
# one processor the four ranks do exactly that product once, so the
# excess is the message path (1.75x before the kernel went through the
# plan's sweep view, about 1.0 since). Allocations: the SpGEMM
# allocates per rank and per message (a 4-rank Machine.Run with 12
# decoded messages costs ~170 against the sequential kernel's ~45),
# never per nonzero, which sat at 93x. 100 iterations, because over 3
# the pool warm-up of the first products decides the time ratio. The
# sweep pair runs on one processor, like the repository benchmark: the
# ranks are goroutines, and a second processor adds the host's thread
# scheduling to every hand-off and its noise to the ratio.
bench-ops:
	{ $(GO) test -run '^$$' -bench 'BenchmarkSpMV$$|BenchmarkDistSpGEMM' -benchtime=100x -benchmem . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkJacobiSweep' -benchtime=100x -benchmem -cpu 1 ./internal/spops/ ; } \
		| $(GO) run ./cmd/benchjson -out /tmp/bench_ops.json
	$(GO) run ./cmd/benchjson -ratio -metric wire-words -max 0.95 /tmp/bench_ops.json \
		BenchmarkSpMV/halo BenchmarkSpMV/broadcast
	$(GO) run ./cmd/benchjson -ratio -metric wire-words -max 0.95 /tmp/bench_ops.json \
		BenchmarkDistSpGEMM/rowfetch BenchmarkDistSpGEMM/broadcast
	$(GO) run ./cmd/benchjson -ratio -metric ns_per_op -max 1.0 /tmp/bench_ops.json \
		BenchmarkDistSpGEMM/rowfetch BenchmarkDistSpGEMM/sequential
	$(GO) run ./cmd/benchjson -ratio -metric allocs_per_op -max 5.0 /tmp/bench_ops.json \
		BenchmarkDistSpGEMM/rowfetch BenchmarkDistSpGEMM/sequential
	$(GO) run ./cmd/benchjson -ratio -metric ns_per_op -max 1.25 /tmp/bench_ops.json \
		BenchmarkJacobiSweep/halo BenchmarkJacobiSweep/sequential

# Distribution-kernel benchmarks, in their own packages: the ED encode
# routes (block against accessor), the CFS block compress, the one-pass
# ED decode against its three-pass reference, index conversion, and one
# whole distribution per scheme x block partition over chan and over
# tcp (the host columns of EXPERIMENTS.md "Remarks on the wall clock").
# CI runs the same line
# with BENCHTIME=1x so they cannot rot; -cpu 1 because the ranks are
# goroutines, as in bench-ops.
BENCHTIME ?= 50x
bench-kernels:
	$(GO) test -run '^$$' -bench 'BenchmarkEncodeED|BenchmarkCompressPart|BenchmarkDecodeED|BenchmarkConvertCols|BenchmarkRun$$|BenchmarkDistributeTCP' \
		-benchtime=$(BENCHTIME) -benchmem -cpu 1 ./internal/compress/ ./internal/dist/ ./internal/core/

# Full benchmark harness (one bench per paper table + ablations).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the paper's Tables 3-5 at full size, plus predictions.
tables:
	$(GO) run ./cmd/tables -predicted

# Run every example program.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/spmv
	$(GO) run ./examples/advisor
	$(GO) run ./examples/cg
	$(GO) run ./examples/redistribute
	$(GO) run ./examples/ekmr3d
	$(GO) run ./examples/pagerank

# End-to-end daemon smoke: build sparsedistd, serve, load-generate
# across all three schemes with metrics assertions, SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

# Kill-a-node survival: boot a 3-daemon cluster, SIGKILL one node
# mid-load, require zero lost / zero duplicated jobs plus observed
# failover and dead-peer detection, then drain the survivors.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Auto-tuning smoke: sparsedist -scheme auto picks and reports a plan
# that survives the differential oracle, then a daemon under loadgen
# (AUTO rotated with the explicit schemes) must resolve plans, fold
# predicted-vs-actual observations into the refiner, and settle the
# /metrics prediction-error gauges below 1.
auto-smoke:
	./scripts/auto_smoke.sh

# Compute-layer smoke: every op through the CLI with its sequential
# oracle, then op-carrying jobs through the daemon under loadgen with
# ops metrics assertions, plus refiner-state persistence across the
# drain.
compute-smoke:
	./scripts/compute_smoke.sh

# Network timing engine smoke: every scheme twice on a mesh and a
# bandwidth-starved star; the network-model report section must be
# byte-identical across runs and the starved star must show busy links.
sim-smoke:
	./scripts/sim_smoke.sh

# The documented Remark-flip regime (EXPERIMENTS.md "Remarks under
# contention"): flat model picks SFC, a 1e6 words/s star picks ED.
sim-remarks:
	$(GO) run ./cmd/costmodel -n 400 -p 4 -s 0.1 -partition row
	$(GO) run ./cmd/costmodel -n 400 -p 4 -s 0.1 -partition row \
		-topology star -link-bw 1000000

clean:
	$(GO) clean ./...
