package dist

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// streamPartitionsFor builds the partition table for the parity sweep:
// every kind the stream serves — the seven shape-only kinds of
// partitionsFor (strided maps included) plus the nnz-balanced variant,
// reachable from a stream via ScanStats + FromCounts.
func streamPartitionsFor(t *testing.T, g *sparse.Dense, p int) []partition.Partition {
	t.Helper()
	bal, err := partition.NewBalancedRow(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return append(partitionsFor(t, g.Rows(), g.Cols(), p), bal)
}

// TestStreamParity is the tentpole's acceptance test: for every scheme
// x partition x method, on both the direct and the degradable engine
// path, a streamed run must reassemble byte-identical local arrays AND
// charge byte-identical virtual counters to the materializing engine.
// Tiny flush/backpressure windows force many frames per part and a
// saturated credit window, so the bounded-memory machinery is fully
// exercised, not bypassed. Run under -race in CI.
func TestStreamParity(t *testing.T) {
	const n, p = 36, 4
	g := sparse.Uniform(n, n, 0.15, 5)
	coo := sparse.FromDense(g)
	for _, part := range streamPartitionsFor(t, g, p) {
		for _, method := range []Method{CRS, CCS, JDS} {
			for _, codec := range []Codec{SFC{}, CFS{}, ED{}} {
				for _, degrade := range []bool{false, true} {
					name := codec.Scheme() + "/" + part.Name() + "/" + method.String() + "/degrade=" + map[bool]string{false: "no", true: "yes"}[degrade]
					t.Run(name, func(t *testing.T) {
						opts := Options{Method: method, Degrade: degrade}
						var mw *machine.Machine
						if degrade {
							mw, _, _, _ = faultyMachine(t, p, "chan")
						} else {
							mw = newMachine(t, p)
						}
						want, err := Run(mw, Plan{Codec: codec, Global: g, Partition: part, Options: opts})
						if err != nil {
							t.Fatalf("materializing: %v", err)
						}

						var ms *machine.Machine
						if degrade {
							ms, _, _, _ = faultyMachine(t, p, "chan")
						} else {
							ms = newMachine(t, p)
						}
						got, err := RunStream(ms, StreamPlan{
							Codec:     codec,
							Source:    sparse.NewStreamCOO(coo, 50),
							Partition: part,
							Options:   opts,
							// Tiny windows: many frames per part, constant
							// credit-window pressure.
							Stream: StreamOptions{FlushEntries: 16, MemBudget: 24 * 48, MaxInflight: 2},
						})
						if err != nil {
							t.Fatalf("streaming: %v", err)
						}
						if err := Verify(g, part, got); err != nil {
							t.Fatalf("streamed result verify: %v", err)
						}
						sameLocals(t, codec.Scheme(), got, want)
						sameBreakdownCounters(t, want.Breakdown, got.Breakdown)
					})
				}
			}
		}
	}
}

// TestStreamDuplicateEntriesMatchMaterialized: a source with repeated
// coordinates must reassemble exactly like the materialized array,
// which keeps the last write — the dedup contract that also makes
// degrade-mode re-streaming idempotent.
func TestStreamDuplicateEntriesMatchMaterialized(t *testing.T) {
	const n, p = 20, 4
	coo := sparse.NewCOO(n, n)
	rng := uint64(1)
	for i := 0; i < 400; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		r := int(rng>>33) % n
		c := int(rng>>13) % n
		coo.Add(r, c, float64(i%17)+1)
	}
	g, err := sparse.Materialize(sparse.NewStreamCOO(coo, 64))
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.NewRow(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t, p)
	res, err := RunStream(m, StreamPlan{
		Codec: ED{}, Source: sparse.NewStreamCOO(coo, 64), Partition: part,
		Options: Options{Method: CRS},
		Stream:  StreamOptions{FlushEntries: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, part, res); err != nil {
		t.Errorf("duplicate-entry stream verify: %v", err)
	}
}

// TestStreamDegradeDeadRank: a permanently dead rank mid-stream. The
// root must re-home the dead rank's part, rescan the source for the
// frames that died with it, and the reassembled result must still cover
// every nonzero.
func TestStreamDegradeDeadRank(t *testing.T) {
	const n, p, dead = 24, 4, 2
	g := sparse.Uniform(n, n, 0.3, 7)
	coo := sparse.FromDense(g)
	part, err := partition.NewRow(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Codec{SFC{}, CFS{}, ED{}} {
		t.Run(scheme.Scheme(), func(t *testing.T) {
			m, ft, _, tracer := faultyMachine(t, p, "chan")
			ft.KillRank(dead)
			res, err := RunStream(m, StreamPlan{
				Codec: scheme, Source: sparse.NewStreamCOO(coo, 32), Partition: part,
				Options: Options{Method: CRS, Degrade: true},
				Stream:  StreamOptions{FlushEntries: 8, MaxInflight: 3},
			})
			if err != nil {
				t.Fatalf("%s with dead rank: %v", scheme.Scheme(), err)
			}
			if !res.Degraded {
				t.Fatal("result not flagged Degraded")
			}
			if !reflect.DeepEqual(res.DeadRanks, []int{dead}) {
				t.Errorf("DeadRanks = %v, want [%d]", res.DeadRanks, dead)
			}
			if _, ok := res.Reassigned[dead]; !ok {
				t.Fatalf("part %d not reassigned: %v", dead, res.Reassigned)
			}
			if err := Verify(g, part, res); err != nil {
				t.Errorf("degraded streamed result verify: %v", err)
			}
			if tracer.Counter("dist.dead_ranks") < 1 {
				t.Errorf("dist.dead_ranks = %d, want >= 1", tracer.Counter("dist.dead_ranks"))
			}
		})
	}
}

// TestStreamOverTCP reruns one streamed configuration across the real
// network stack.
func TestStreamOverTCP(t *testing.T) {
	const n, p = 24, 3
	g := sparse.Uniform(n, n, 0.2, 9)
	coo := sparse.FromDense(g)
	part, err := partition.NewRow(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := machine.NewTCPTransport(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(p, machine.WithTransport(tr), machine.WithRecvTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	res, err := RunStream(m, StreamPlan{
		Codec: CFS{}, Source: sparse.NewStreamCOO(coo, 40), Partition: part,
		Options: Options{Method: CCS},
		Stream:  StreamOptions{FlushEntries: 16, MaxInflight: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, part, res); err != nil {
		t.Error(err)
	}
}

// TestStreamSingleProcessor: p=1 means every part is root-hosted — no
// receivers, no wire, pure local finalize.
func TestStreamSingleProcessor(t *testing.T) {
	g := sparse.Uniform(12, 12, 0.3, 3)
	coo := sparse.FromDense(g)
	part, err := partition.NewRow(12, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t, 1)
	res, err := RunStream(m, StreamPlan{
		Codec: ED{}, Source: sparse.NewStreamCOO(coo, 16), Partition: part,
		Options: Options{Method: CRS},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, part, res); err != nil {
		t.Error(err)
	}
}

// TestStreamSetupErrors: plan validation fires before any goroutine
// spawns.
func TestStreamSetupErrors(t *testing.T) {
	m := newMachine(t, 2)
	part2, _ := partition.NewRow(10, 10, 2)
	part3, _ := partition.NewRow(10, 10, 3)
	src := sparse.NewUniformStream(10, 10, 20, 1, 8)
	srcBig := sparse.NewUniformStream(12, 10, 20, 1, 8)
	cases := []struct {
		name string
		plan StreamPlan
	}{
		{"nil codec", StreamPlan{Source: src, Partition: part2}},
		{"nil source", StreamPlan{Codec: ED{}, Partition: part2}},
		{"nil partition", StreamPlan{Codec: ED{}, Source: src}},
		{"part count", StreamPlan{Codec: ED{}, Source: src, Partition: part3}},
		{"shape mismatch", StreamPlan{Codec: ED{}, Source: srcBig, Partition: part2}},
	}
	for _, tc := range cases {
		if _, err := RunStream(m, tc.plan); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// heapHighWater runs fn while sampling HeapAlloc and reports the maximum
// seen. ReadMemStats is a stop-the-world probe, so the sample period is
// coarse; flushes happen continuously, so the high-water mark is still
// representative.
func heapHighWater(fn func() error) (uint64, error) {
	stop, done := make(chan struct{}), make(chan uint64)
	go func() {
		var ms runtime.MemStats
		var peak uint64
		for {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
			select {
			case <-stop:
				done <- peak
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	err := fn()
	close(stop)
	return <-done, err
}

// TestStreamIngesterBoundedMemory is the bounded-memory guard: route a
// ~10M-nonzero synthetic stream through the root's ingester with a
// small budget and assert the heap high-water mark stays within a
// constant factor of it. Materializing the same array would need ~537MB
// dense (8192² floats) or ~240MB of entries, so the 6x-of-8MiB ceiling
// proves out-of-core behaviour, not just slack.
func TestStreamIngesterBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("10M-entry stream is slow under -short")
	}
	const (
		n      = 8192
		nnz    = 10_000_000
		p      = 8
		budget = 8 << 20
	)
	part, err := partition.NewRow(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := partition.NewLocator(part)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc

	var delivered int64
	sink := func(k int, entries []sparse.Entry) error {
		delivered += int64(len(entries))
		return nil
	}
	opts := StreamOptions{FlushEntries: 8192, MemBudget: budget}.withDefaults(p)
	si := newStreamIngester(loc, p, opts.FlushEntries, opts.budgetEntries(p), sink)
	src := sparse.NewUniformStream(n, n, nnz, 42, sparse.DefaultChunkEntries)
	high, err := heapHighWater(func() error {
		if err := si.run(src, Options{}, nil); err != nil {
			return err
		}
		return si.drain()
	})
	if err != nil {
		t.Fatal(err)
	}

	if delivered != nnz {
		t.Fatalf("delivered %d entries, want %d", delivered, nnz)
	}
	if high < baseline {
		high = baseline
	}
	used := high - baseline
	const factor = 6
	if used > budget*factor {
		t.Errorf("heap high-water %d bytes over baseline exceeds budget %d x %d", used, budget, factor)
	}
	t.Logf("heap high-water over baseline: %.1f MiB (budget %d MiB)", float64(used)/(1<<20), budget>>20)
}

// TestStreamIngesterBudgetSweep (white box): the accumulator total must
// never exceed the entry budget between flushes, and an oversized
// accumulator's capacity must be released after a budget sweep.
func TestStreamIngesterBudgetSweep(t *testing.T) {
	const n, p = 64, 4
	part, err := partition.NewRow(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := partition.NewLocator(part)
	if err != nil {
		t.Fatal(err)
	}
	const budgetEntries = 40
	si := newStreamIngester(loc, p, 1<<30 /* never flush by size */, budgetEntries, func(int, []sparse.Entry) error { return nil })
	src := sparse.NewUniformStream(n, n, 800, 7, 16)
	for {
		ch, err := src.Next()
		if err != nil {
			break
		}
		for _, e := range ch.Entries {
			k, err := loc.Owner(e.Row, e.Col)
			if err != nil {
				t.Fatal(err)
			}
			si.acc[k] = append(si.acc[k], e)
			si.buffered++
			if si.buffered >= budgetEntries {
				if err := si.flushLargest(); err != nil {
					t.Fatal(err)
				}
			}
			if si.buffered > budgetEntries {
				t.Fatalf("buffered %d entries exceeds budget %d", si.buffered, budgetEntries)
			}
		}
	}
}
