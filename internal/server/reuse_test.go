package server

// An op job's distribution is the one its cached comm plan holds: these
// tests hold every job against core.Distribute plus the op on a fresh
// machine, whatever the server's caches and pooled machines hold.

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/ops"
	"repro/internal/spops"
)

// jobCounts is everything of a result that is a function of its spec:
// the plan as run, the paper's virtual phases, the root's wire totals
// and the op's traffic. Wall times and cache provenance are left out.
type jobCounts struct {
	Scheme, Partition, Method string
	NNZ                       int
	VDist, VComp              time.Duration
	Messages, Elements        int64

	Op                                                          string
	OpIterations                                                int
	OpConverged                                                 bool
	OpMessages, OpWireWords, OpHaloWords, OpBcastWords, OpFlops int64
}

func countsOf(r *JobResult) jobCounts {
	return jobCounts{
		Scheme: r.Scheme, Partition: r.Partition, Method: r.Method, NNZ: r.NNZ,
		VDist: r.Phases[0].Virtual, VComp: r.Phases[1].Virtual,
		Messages: r.Messages, Elements: r.Elements,
		Op: r.Op, OpIterations: r.OpIterations, OpConverged: r.OpConverged,
		OpMessages: r.OpMessages, OpWireWords: r.OpWireWords, OpHaloWords: r.OpHaloWords,
		OpBcastWords: r.OpBcastWords, OpFlops: r.OpFlops,
	}
}

// oracleCounts distributes the spec's array with core.Distribute on a
// fresh machine and runs the spec's op there. An auto job is replayed
// on the plan its result reports (got, when non-nil), because which
// plan auto picks depends on the serving node's refiner.
func oracleCounts(spec JobSpec, node Config, got *JobResult) (jobCounts, error) {
	g := specArrayKey(spec).generate()
	cfg := spec.config(node)
	if got != nil && got.Auto {
		cfg.Scheme, cfg.Partition, cfg.Method, cfg.Workers = got.ChosenScheme, got.ChosenPartition, got.ChosenMethod, got.ChosenWorkers
	}
	d, err := core.Distribute(g, cfg)
	if err != nil {
		return jobCounts{}, err
	}
	defer d.Close()
	bd := d.Result.Breakdown
	c := jobCounts{
		Scheme: d.Result.Scheme, Partition: d.Result.Partition, Method: d.Result.Method.String(),
		NNZ: d.Result.NNZ(), VDist: d.DistributionTime(), VComp: d.CompressionTime(),
		Messages: bd.RootDist.Messages, Elements: bd.RootDist.Elements,
	}
	var st spops.OpStats
	switch spec.Op {
	case "":
		return c, nil
	case "spmv":
		_, st, err = d.SpMV(spops.OpVector(g.Cols(), spec.Seed))
	case "jacobi":
		iters := spec.OpIters
		if iters == 0 {
			iters = defaultOpIters
		}
		_, st, err = d.Jacobi(spops.OpVector(g.Rows(), spec.Seed+1), 1e-9, iters)
	case "spgemm":
		_, st, err = d.SpGEMM(compress.CompressCRS(g, nil))
	}
	if err != nil {
		return jobCounts{}, err
	}
	c.Op, c.OpIterations, c.OpConverged = st.Op, st.Iterations, st.Converged
	c.OpMessages, c.OpWireWords, c.OpHaloWords = int64(st.Messages), int64(st.WireWords), int64(st.HaloWords)
	c.OpBcastWords, c.OpFlops = int64(st.BcastWords), int64(st.Ops)
	return c, nil
}

// cachedPlans snapshots the op-plan cache.
func cachedPlans(s *Server) map[planKey]*spops.CommPlan {
	s.opPlans.mu.Lock()
	defer s.opPlans.mu.Unlock()
	return maps.Clone(s.opPlans.entries)
}

// verifyCachedDistributions checks every distribution the op-plan cache
// holds against direct compression of its array. A part that aliased a
// pooled wire buffer would have been overwritten by a later job.
func verifyCachedDistributions(s *Server) error {
	for key, cpl := range cachedPlans(s) {
		g := key.array.generate()
		if g.Rows() != cpl.Rows || g.Cols() != cpl.Cols {
			return fmt.Errorf("cached distribution %+v is %dx%d, its key's array %dx%d",
				key, cpl.Rows, cpl.Cols, g.Rows(), g.Cols())
		}
		if err := dist.Verify(g, cpl.Part, cpl.Res); err != nil {
			return fmt.Errorf("cached distribution %+v: %w", key, err)
		}
	}
	return nil
}

// TestWarmOpJobReusesDistribution runs every scheme × partition ×
// method × op twice through one server. The repeat takes its
// distribution from the op-plan cache: it reports the hit and no wall
// time, and every count equals the first job's and a fresh
// core.Distribute's. After the sweep every cached distribution still
// verifies, and SpMV on each cached plan, on a fresh machine, equals
// the sequential oracle. A check job never reads the cache.
func TestWarmOpJobReusesDistribution(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	submit := func(spec JobSpec) *JobResult {
		t.Helper()
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		st := waitTerminal(t, s, decodeID(t, postJob(t, ts, string(body))), 30*time.Second)
		if st.State != StateDone {
			t.Fatalf("%+v: state %s, error %q", spec, st.State, st.Error)
		}
		return st.Result
	}

	ran := 0
	for _, scheme := range []string{"ED", "CFS", "SFC"} {
		for _, part := range []string{"row", "col", "mesh", "cyclic-row"} {
			for _, method := range []string{"CRS", "CCS", "JDS"} {
				for _, op := range []string{"spmv", "jacobi", "spgemm"} {
					spec := JobSpec{N: 40, Ratio: 0.15, Seed: 3, Scheme: scheme, Partition: part,
						Method: method, Procs: 4, Op: op}.withDefaults()
					if spec.validate(s.cfg.Limits) != nil {
						continue
					}
					name := fmt.Sprintf("%s/%s/%s/%s", scheme, part, method, op)
					first, second := submit(spec), submit(spec)
					if !second.OpPlanCacheHit {
						t.Errorf("%s: repeat missed the op-plan cache", name)
					}
					if second.Phases[0].Wall != 0 || second.Phases[1].Wall != 0 {
						t.Errorf("%s: repeat reports wall time %v / %v for a distribution it did not run",
							name, second.Phases[0].Wall, second.Phases[1].Wall)
					}
					want, err := oracleCounts(spec, s.cfg, nil)
					if err != nil {
						t.Fatalf("%s: oracle: %v", name, err)
					}
					if got := countsOf(first); got != want {
						t.Errorf("%s: first job\n got %+v\nwant %+v", name, got, want)
					}
					if got := countsOf(second); got != want {
						t.Errorf("%s: repeat\n got %+v\nwant %+v", name, got, want)
					}
					checked := spec
					checked.Check = true
					if r := submit(checked); r.OpPlanCacheHit {
						t.Errorf("%s: check job read the op-plan cache", name)
					} else if got := countsOf(r); got != want {
						t.Errorf("%s: check job\n got %+v\nwant %+v", name, got, want)
					}
					ran++
				}
			}
		}
	}
	if ran < 100 {
		t.Fatalf("only %d combinations ran", ran)
	}

	if err := verifyCachedDistributions(s); err != nil {
		t.Fatal(err)
	}
	for key, cpl := range cachedPlans(s) {
		g := key.array.generate()
		x := spops.OpVector(g.Cols(), 5)
		want, err := ops.SpMV(compress.CompressCRS(g, nil), x)
		if err != nil {
			t.Fatal(err)
		}
		cfg := JobSpec{}.config(s.cfg)
		cfg.Procs = cpl.P
		m, err := core.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		y, _, err := spops.SpMV(m, cpl, x)
		m.Close()
		if err != nil {
			t.Fatalf("cached plan %+v: SpMV: %v", key, err)
		}
		for i := range want {
			if math.Abs(y[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("cached plan %+v: y[%d] = %g, sequential SpMV %g", key, i, y[i], want[i])
			}
		}
	}
}

// runSpec runs one job to completion on the calling goroutine, through
// the worker's own path (panic containment included).
func runSpec(s *Server, spec JobSpec) JobStatus {
	j := newJob("direct", spec)
	s.runJob(j)
	return j.status()
}

// fuzzSchemes, fuzzPartitions, fuzzMethods and fuzzOps are what one
// byte of a FuzzDiffJob input picks from; "" takes the default.
var (
	fuzzSchemes    = []string{"ED", "CFS", "SFC", "auto"}
	fuzzPartitions = []string{"row", "col", "mesh", "cyclic-row", "cyclic-col", "brs", "cyclic-mesh", "balanced-row", ""}
	fuzzMethods    = []string{"CRS", "CCS", "JDS"}
	fuzzOps        = []string{"", "spmv", "jacobi", "spgemm"}
)

// fuzzJobBytes is the length of one job in a FuzzDiffJob input.
const fuzzJobBytes = 6

// decodeFuzzJob turns six bytes into a small job: scheme and check
// flag, partition, method and op, n ≤ 48, procs ≤ 4 and seed ≤ 3, and
// the ratio with Jacobi's sweep cap. Few seeds, so jobs repeat arrays.
func decodeFuzzJob(b []byte) JobSpec {
	spec := JobSpec{
		Scheme:    fuzzSchemes[int(b[0])%len(fuzzSchemes)],
		Check:     b[0]&0x80 != 0,
		Partition: fuzzPartitions[int(b[1])%len(fuzzPartitions)],
		Method:    fuzzMethods[int(b[2])%len(fuzzMethods)],
		Op:        fuzzOps[int(b[2])/len(fuzzMethods)%len(fuzzOps)],
		N:         1 + int(b[3])%48,
		Procs:     1 + int(b[4])%4,
		Seed:      1 + int64(b[4])/4%3,
		Ratio:     float64(1+b[5]%16) / 32,
	}
	if spec.Scheme == "auto" {
		spec.Method = ""
	}
	if spec.Op == "jacobi" {
		spec.OpIters = 3 * int(b[5]/16)
	}
	return spec
}

// encodeFuzzJob is decodeFuzzJob's inverse for the seed corpus.
func encodeFuzzJob(scheme, part, method, op string, check bool, n, procs, seed int) []byte {
	idx := func(list []string, v string) int {
		for i, s := range list {
			if s == v {
				return i
			}
		}
		panic("unknown fuzz choice " + v)
	}
	b0 := idx(fuzzSchemes, scheme)
	if check {
		b0 |= 0x80
	}
	return []byte{byte(b0), byte(idx(fuzzPartitions, part)),
		byte(idx(fuzzMethods, method) + len(fuzzMethods)*idx(fuzzOps, op)),
		byte(n - 1), byte(procs - 1 + 4*(seed-1)), 4}
}

// FuzzDiffJob runs short sequences of small jobs through one server, so
// its array, plan and op-plan caches and its pooled machines carry
// state from input to input, and holds every result against
// core.Distribute plus the op on a fresh machine: the plan as run,
// virtual phases, wire totals, nnz and the op's traffic. A job the
// server fails must fail the oracle too. After each input every
// distribution the op-plan cache holds must still verify.
func FuzzDiffJob(f *testing.F) {
	for _, scheme := range []string{"ED", "CFS", "SFC"} {
		for _, part := range []string{"row", "col", "mesh", "cyclic-row"} {
			for _, method := range fuzzMethods {
				for _, op := range []string{"spmv", "jacobi", "spgemm"} {
					one := encodeFuzzJob(scheme, part, method, op, false, 40, 4, 1)
					f.Add(append(one, one...))
				}
			}
		}
	}
	f.Add(append(encodeFuzzJob("auto", "", "CRS", "spmv", false, 48, 4, 2),
		encodeFuzzJob("ED", "balanced-row", "JDS", "jacobi", true, 33, 3, 2)...))

	s := newServer(Config{Workers: 1})
	f.Cleanup(s.pool.close)
	f.Fuzz(func(t *testing.T, data []byte) {
		for jobs := 0; len(data) >= fuzzJobBytes && jobs < 4; jobs++ {
			spec := decodeFuzzJob(data[:fuzzJobBytes]).withDefaults()
			data = data[fuzzJobBytes:]
			if spec.validate(s.cfg.Limits) != nil {
				continue
			}
			st := runSpec(s, spec)
			want, err := oracleCounts(spec, s.cfg, st.Result)
			switch {
			case st.State != StateDone && err == nil:
				t.Fatalf("%+v: server %s (%q), oracle ran", spec, st.State, st.Error)
			case st.State != StateDone:
				continue
			case err != nil:
				t.Fatalf("%+v: server done, oracle failed: %v", spec, err)
			}
			if got := countsOf(st.Result); got != want {
				t.Fatalf("%+v (op-plan hit %t):\n got %+v\nwant %+v", spec, st.Result.OpPlanCacheHit, got, want)
			}
		}
		if err := verifyCachedDistributions(s); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkExecuteOpJob times one op job through execute, in-process
// (no HTTP, no queue), on serve_warm's first slot: n = 400, ED, row,
// CRS, spmv over 4 ranks. cold empties the op-plan cache before every
// job, so the job distributes, builds its comm plan and runs the op;
// warm finds the comm plan cached and runs only the op. The array and
// plan caches are warm in both. One job per iteration, so ns/op and
// allocs/op are per job.
func BenchmarkExecuteOpJob(b *testing.B) {
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			s := newServer(Config{Workers: 1})
			defer s.pool.close()
			spec := JobSpec{N: 400, Ratio: 0.1, Seed: 1001, Scheme: "ED", Partition: "row",
				Method: "CRS", Procs: 4, Op: "spmv"}.withDefaults()
			run := func() {
				if _, err := s.execute(newJob("bench", spec)); err != nil {
					b.Fatal(err)
				}
			}
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !warm {
					b.StopTimer()
					s.opPlans = newCache[planKey](opPlanCacheBytes, commPlanBytes)
					b.StartTimer()
				}
				run()
			}
		})
	}
}
