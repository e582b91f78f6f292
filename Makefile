# Convenience targets for the sparsedist reproduction.

GO ?= go

.PHONY: all build test test-race lint loc reach fuzz-smoke arq-stress check-diff bench bench-compare bench-kernels bench-gates tables examples serve-smoke compute-smoke sim-smoke auto-smoke sim-remarks ci clean

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

# The ROADMAP's size metric: non-test Go outside the nested bench module.
# CHANGES.md entries and re-anchors quote this number.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l

# DESIGN §8's reachability check with its ledger: the lines no door
# (cmd/*, bench/) reaches, per allowlist reason. Tier-1 already runs
# the test; this prints what it counted.
reach:
	$(GO) test -count=1 -run TestEveryDeclarationHasADoor -v .

# Short fuzz pass over the wire decoders, the root's part encode against
# its accessor-form reference, the end-to-end differential targets
# (materializing, streaming, and job sequences through one daemon with
# its caches and pooled machines), the daemon's request path, the file
# parsers and the stream planner above them, the partition builders,
# the TCP frame reader and the SpGEMM row buffers (go-native fuzzing
# runs one target per invocation, so each gets its own line). CI runs
# the same list with FUZZTIME=30s.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodePartCFS -fuzztime $(FUZZTIME) ./internal/compress/
	$(GO) test -run '^$$' -fuzz FuzzDecodePartED -fuzztime $(FUZZTIME) ./internal/compress/
	$(GO) test -run '^$$' -fuzz FuzzEncodePart -fuzztime $(FUZZTIME) ./internal/compress/
	$(GO) test -run '^$$' -fuzz FuzzDiffDistribute -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzStreamPlan -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDiffStream -fuzztime $(FUZZTIME) ./internal/dist/
	$(GO) test -run '^$$' -fuzz FuzzJobSpec -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzDiffJob -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzOpenStream -fuzztime $(FUZZTIME) ./internal/sparse/
	$(GO) test -run '^$$' -fuzz FuzzPartition -fuzztime $(FUZZTIME) ./internal/partition/
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime $(FUZZTIME) ./internal/machine/
	$(GO) test -run '^$$' -fuzz FuzzDecodeRows -fuzztime $(FUZZTIME) ./internal/spops/

# The ARQ stress pass: every reliability, lossy-transport and fault test
# of the layers that send over the ARQ, 50 times over; then the root
# loop's parity, overlap, cancel and send-failure tests under -race, 20
# times at 1, 2 and 4 CPUs (0, 1 and 3 helpers); then the stream tests
# the same way (1, 2 and 4 finalize tokens sharing their scratch),
# without TestStreamIngesterBoundedMemory: it drives the ingester alone,
# takes no finalize token, and runs in test and test-race; then one comm
# plan's ops on several machines at once, and after a failed op, the
# same way. CI runs it too.
arq-stress:
	$(GO) test -count=50 -run 'Reliable|Lossy|Fault|SpentRetry|Untouched' ./internal/machine ./internal/dist ./internal/spops
	$(GO) test -race -count=20 -cpu 1,2,4 -run 'RootPipeline|Overlap|Cancel|SendFailure|EngineParity' ./internal/dist
	$(GO) test -race -count=20 -cpu 1,2,4 -run 'Stream' -skip TestStreamIngesterBoundedMemory ./internal/dist
	$(GO) test -race -count=20 -cpu 1,2,4 -run 'TestOnePlanManyMachines' ./internal/spops

# The differential correctness harness at full size: >= 200 adversarial
# arrays through every scheme x partition x method combination, direct
# and over the ARQ reliability layer (reliable), invariant checks on the
# hot path and the element-wise reassembly oracle on every result; then
# an extended run of the end-to-end differential fuzz target.
check-diff:
	$(GO) test -run 'TestDiffSweep' -count=1 -v ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDiffDistribute -fuzztime 2m ./internal/core/

# What CI runs: lint, build, the full test suite, a whole-tree race
# pass, the nested bench module (its own go.mod, so the root ./... never
# sees it), every in-package benchmark once, and the gates.
ci: lint
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race ./...
	$(MAKE) arq-stress
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) bench-kernels BENCHTIME=1x
	$(MAKE) bench-gates

# The repository benchmark (BENCHMARK.json, bench/README.md): every
# workload, untraced (end-to-end metrics) then traced (per-layer).
# bench-compare applies the bounds of BENCHMARK.json to two of its
# result documents: make bench-compare A=parent.json B=change.json
bench:
	bash bench/run.sh all

bench-compare:
	bash bench/run.sh compare $(A) $(B)

# Every in-package benchmark: kernels (internal/compress), whole
# distributions (internal/dist, internal/core), the message path
# (internal/machine), the compute layer (internal/spops, internal/ops),
# redistribution (internal/redist). CI runs the same line with
# BENCHTIME=1x so they cannot rot. -cpu 1 because the ranks are
# goroutines: a second processor adds the host's thread scheduling to
# every hand-off. The gates are excluded by name: at 1x they are not
# cheap (the stream pair distributes 10M nonzeros twice).
BENCHTIME ?= 50x
bench-kernels:
	$(GO) test -run '^$$' -bench . -skip '/^gate$$' -benchtime=$(BENCHTIME) -benchmem -cpu 1 ./internal/...

# The gates: every sub-benchmark named "gate" measures both sides of a
# ratio itself and fails above its bound (internal/benchgate; bounds and
# recorded ratios in EXPERIMENTS.md "Where each number comes from"): a
# halo Jacobi sweep against one sequential ops.SpMV, the row-fetch
# SpGEMM against ops.SpGEMM, the streaming engine's heap high-water mark
# against the materializing engine's. 1x: a gate sets its own rounds.
bench-gates:
	$(GO) test -run '^$$' -bench '/^gate$$' -benchtime=1x -cpu 1 ./internal/...

# Regenerate the paper's Tables 3-5 at full size, plus predictions.
tables:
	$(GO) run ./cmd/tables -predicted

# The two commands that compare distributions of one array:
# cmd/redist's reference runs and sparsedist's -batch table.
examples:
	$(GO) run ./cmd/redist
	$(GO) run ./cmd/sparsedist -n 120 -batch SFC,CFS,ED -verify -check

# End-to-end daemon smoke: build sparsedistd, serve, load-generate
# across all three schemes with metrics assertions, SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

# Auto-tuning smoke: sparsedist -scheme auto picks and reports a plan
# that survives the differential oracle, then a daemon under loadgen
# (AUTO rotated with the explicit schemes) must resolve plans and count
# them in /metrics.
auto-smoke:
	./scripts/auto_smoke.sh

# Compute-layer smoke: every op through the CLI with its sequential
# oracle, then op-carrying jobs through the daemon under loadgen with
# ops metrics assertions, then a clean SIGTERM drain.
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
