package dist

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/sparse"
)

// streamPartitionsFor builds the partition table for the parity sweep:
// every kind the stream serves — the seven shape-only kinds of
// partitionsFor (strided maps included) plus the nnz-balanced variant,
// reachable from a stream via ScanStats + FromCounts.
func streamPartitionsFor(t *testing.T, g *sparse.Dense, p int) []partition.Partition {
	t.Helper()
	bal, err := partition.NewBalancedRowFromCounts(sparse.RowNNZ(g), g.Cols(), p)
	if err != nil {
		t.Fatal(err)
	}
	return append(partitionsFor(t, g.Rows(), g.Cols(), p), bal)
}

// TestStreamParity is the tentpole's acceptance test: for every scheme
// x partition x method, over the bare channel transport and over the
// ARQ stack (Reliable(Fault(chan)), healthy), a streamed run must
// reassemble byte-identical local arrays AND charge byte-identical
// virtual counters to the materializing engine on the bare transport.
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
				for _, reliable := range []bool{false, true} {
					// The reliable rows keep the "degrade=" label of the
					// rows they replace, so the subtest names stay stable.
					name := codec.Name() + "/" + part.Name() + "/" + method.String() + "/degrade=" + map[bool]string{false: "no", true: "yes"}[reliable]
					t.Run(name, func(t *testing.T) {
						opts := Options{Method: method}
						want, err := Run(newMachine(t, p), Plan{Codec: codec, Global: g, Partition: part, Options: opts})
						if err != nil {
							t.Fatalf("materializing: %v", err)
						}

						var ms *machine.Machine
						if reliable {
							ms, _, _ = faultyMachine(t, p, "chan")
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
						sameLocals(t, codec.Name(), got, want)
						sameBreakdownCounters(t, want.Breakdown, got.Breakdown)
					})
				}
			}
		}
	}
}

// TestStreamDuplicateEntriesMatchMaterialized: a source with repeated
// coordinates and explicit zeros must reassemble exactly like the
// materialized array, which keeps the last write and lets a zero erase
// a cell — and charge what the materializing engine charges. The
// entries go into COO.Entries directly (COO.Add drops zeros); with
// FlushEntries 4, one cell's writes, erasures and re-sets arrive in
// different frames.
func TestStreamDuplicateEntriesMatchMaterialized(t *testing.T) {
	const n, p = 20, 4
	coo := sparse.NewCOO(n, n)
	rng := uint64(1)
	for i := 0; i < 400; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		e := sparse.Entry{Row: int(rng>>33) % n, Col: int(rng>>13) % n, Val: float64(i%17) + 1}
		if i%7 == 0 {
			e.Val = 0
		}
		coo.Entries = append(coo.Entries, e)
		// Cell (2,3) is set, erased and set again; cell (17,15) is set
		// here and erased for good at the end.
		switch i {
		case 40:
			coo.Entries = append(coo.Entries, sparse.Entry{Row: 2, Col: 3, Val: 40}, sparse.Entry{Row: 17, Col: 15, Val: 4})
		case 170:
			coo.Entries = append(coo.Entries, sparse.Entry{Row: 2, Col: 3, Val: 0})
		case 300:
			coo.Entries = append(coo.Entries, sparse.Entry{Row: 2, Col: 3, Val: 300})
		}
	}
	coo.Entries = append(coo.Entries, sparse.Entry{Row: 17, Col: 15, Val: 0})
	g, err := sparse.Materialize(sparse.NewStreamCOO(coo, 64))
	if err != nil {
		t.Fatal(err)
	}
	if g.At(2, 3) != 300 || g.At(17, 15) != 0 {
		t.Fatalf("source does not set, erase and re-set: (2,3) = %g, (17,15) = %g", g.At(2, 3), g.At(17, 15))
	}
	for _, codec := range []Codec{SFC{}, CFS{}, ED{}} {
		for _, method := range []Method{CRS, CCS, JDS} {
			for _, part := range partitionsFor(t, n, n, p) {
				t.Run(codec.Name()+"/"+method.String()+"/"+part.Name(), func(t *testing.T) {
					opts := Options{Method: method}
					want, err := Run(newMachine(t, p), Plan{Codec: codec, Global: g, Partition: part, Options: opts})
					if err != nil {
						t.Fatal(err)
					}
					got, err := RunStream(newMachine(t, p), StreamPlan{
						Codec: codec, Source: sparse.NewStreamCOO(coo, 64), Partition: part,
						Options: opts, Stream: StreamOptions{FlushEntries: 4},
					})
					if err != nil {
						t.Fatal(err)
					}
					if err := Verify(g, part, got); err != nil {
						t.Errorf("duplicate-entry stream verify: %v", err)
					}
					sameLocals(t, codec.Name(), got, want)
					sameBreakdownCounters(t, want.Breakdown, got.Breakdown)
				})
			}
		}
	}
}

// TestStreamRejectsMisroutedEntry: a frame that carries, inside the
// array's bounds, an entry of another part's cross product fails the
// receiver's finalize with an error naming the entry — it is neither
// dropped nor kept. Row partition, receiver part 1 owns rows 4-7; the
// foreign entry's row is the major index under CRS and the minor one
// under CCS.
func TestStreamRejectsMisroutedEntry(t *testing.T) {
	const n, p = 8, 2
	part, err := partition.NewRow(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []Codec{SFC{}, CFS{}, ED{}} {
		for _, method := range []Method{CRS, CCS} {
			t.Run(codec.Name()+"/"+method.String(), func(t *testing.T) {
				m := newMachine(t, p)
				f, err := formatFor(method)
				if err != nil {
					t.Fatal(err)
				}
				run := &runState{codec: codec, part: part, opts: Options{Method: method}, format: f,
					finalizing: newFinalizeTokens(1)}
				res := &Result{Method: method, Breakdown: newBreakdown(p)}
				res.allocLocals(p)
				tags := planStreamTags(m, p)
				err = m.Run(func(pr *machine.Proc) error {
					if pr.Rank == 1 {
						return recvStream(pr, run, res, res.Breakdown, tags)
					}
					frame := []float64{5, 1, 2.5, 1, 3, 7.5} // (5,1) is part 1's, (1,3) part 0's
					if err := pr.Send(1, tags.base+1, [4]int64{streamFrame, 2}, frame, nil); err != nil {
						return err
					}
					return pr.Send(1, tags.base+1, [4]int64{streamFinalize, 1}, nil, nil)
				})
				if err == nil || !strings.Contains(err.Error(), "(1, 3)") {
					t.Fatalf("misrouted entry: err = %v, want an error naming (1, 3)", err)
				}
			})
		}
	}
}

// TestStreamRejectsInexactIndex: a frame's index words must hold
// integers exactly. A fractional, NaN or infinite row or column fails
// the receiver with an error naming the part and the word, instead of
// being truncated into some cell.
func TestStreamRejectsInexactIndex(t *testing.T) {
	const n, p = 8, 2
	part, err := partition.NewRow(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	f, err := formatFor(CRS)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		row, col float64
		want     string
	}{
		{"fraction", 5.5, 1.9, "(5.5, 1.9)"},
		{"nan", 5, math.NaN(), "(5, NaN)"},
		{"+inf", math.Inf(1), 1, "(+Inf, 1)"},
		{"-inf", 5, math.Inf(-1), "(5, -Inf)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine(t, p)
			run := &runState{codec: ED{}, part: part, opts: Options{Method: CRS}, format: f, finalizing: newFinalizeTokens(1)}
			res := &Result{Method: CRS, Breakdown: newBreakdown(p)}
			res.allocLocals(p)
			tags := planStreamTags(m, p)
			err := m.Run(func(pr *machine.Proc) error {
				if pr.Rank == 1 {
					return recvStream(pr, run, res, res.Breakdown, tags)
				}
				frame := []float64{4, 0, 1, tc.row, tc.col, 2.5} // (4,0) is part 1's
				if err := pr.Send(1, tags.base+1, [4]int64{streamFrame, 2}, frame, nil); err != nil {
					return err
				}
				return pr.Send(1, tags.base+1, [4]int64{streamFinalize, 1}, nil, nil)
			})
			if err == nil || !strings.Contains(err.Error(), "part 1") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("frame entry %s: err = %v, want an error naming part 1 and %s", tc.want, err, tc.want)
			}
		})
	}
}

// TestStreamAllocsDoNotScaleWithRows: a receiver's finalize costs a
// fixed number of allocations per part, whatever the array's line
// count — the same nonzeros in an 8x larger array may not allocate more
// than 1.5x. Per-line staging (a bucket per global line per part) fails
// this.
func TestStreamAllocsDoNotScaleWithRows(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	const p, nnz = 4, 20_000
	allocs := func(n int, mk func(rows, cols, p int) (*partition.Grid, error)) float64 {
		part, err := mk(n, n, p)
		if err != nil {
			t.Fatal(err)
		}
		m := newMachine(t, p)
		return testing.AllocsPerRun(3, func() {
			_, err := RunStream(m, StreamPlan{Codec: ED{}, Source: sparse.NewUniformStream(n, n, nnz, 5, 0),
				Partition: part, Options: Options{Method: CRS}})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	for name, mk := range map[string]func(rows, cols, p int) (*partition.Grid, error){
		"row": partition.NewRow, "col": partition.NewCol,
	} {
		small, large := allocs(500, mk), allocs(4000, mk)
		t.Logf("%s: %.0f allocations at n=500, %.0f at n=4000", name, small, large)
		if large > 1.5*small {
			t.Errorf("%s: %.0f allocations per run at n=4000 against %.0f at n=500, above 1.5x", name, large, small)
		}
	}
}

// TestStreamAllocatesItsAnswer pins the bytes one streamed run
// allocates (a runtime.MemStats.TotalAlloc delta, ED/row, p = 4, at
// GOMAXPROCS 1 so one finalize token) to what it must hold: the staging
// blocks of every part, the decoded result, one finalize scratch sized
// by the largest part, and a slack of the source's chunk, one credit
// window of frames and 1 MiB for the O(p + lines) rest. Sort scratch
// per part, accumulators copied into frames, or ED payloads taken from
// the wire pool each exceed it.
func TestStreamAllocatesItsAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are inflated under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, nnz, p = 2000, 400_000, 4
	part, err := partition.NewRow(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t, p)
	var res *Result
	run := func() {
		res, err = RunStream(m, StreamPlan{Codec: ED{}, Source: sparse.NewUniformStream(n, n, nnz, 5, 0),
			Partition: part, Options: Options{Method: CRS}})
		if err != nil {
			t.Fatal(err)
		}
	}
	run() // fills the wire pool with frames, as any earlier run would
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	got := int(after.TotalAlloc - before.TotalAlloc)

	const blockBytes = 4096 * (4 + 4 + 8) // compress.entryBlockLen entries
	staging, result, largest := 0, 0, 0
	for _, a := range res.LocalCRS {
		staging += (a.NNZ() + 4095) / 4096 * blockBytes
		result += 8 * (len(a.RowPtr) + 2*a.NNZ())
		largest = max(largest, a.NNZ())
	}
	lines := n / p
	scratch := (12*largest+8*(lines+2*largest))*17/16 + 4*n + 8*(2*lines+1+n) // compress.resize's 1/16 to spare
	opts := StreamOptions{}.withDefaults(p)
	slack := 24*sparse.DefaultChunkEntries + opts.MaxInflight*24*opts.FlushEntries + 1<<20
	bound := staging + result + scratch + slack
	t.Logf("%.2f MB allocated: staging %.2f + result %.2f + scratch %.2f + slack %.2f = %.2f MB bound",
		float64(got)/1e6, float64(staging)/1e6, float64(result)/1e6, float64(scratch)/1e6, float64(slack)/1e6, float64(bound)/1e6)
	if got > bound {
		t.Errorf("a streamed run allocated %d bytes, above the %d-byte bound", got, bound)
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

// TestStreamRefusesNetwork: a streamed run's wire is frames, credits
// and finalizes, and it mirrors no compute, so a network model's replay
// of it is not the paper's distribution (on uniform it read
// T_Compression 0). RunStream refuses a recording machine before any
// goroutine spawns, and the recorder stays empty.
func TestStreamRefusesNetwork(t *testing.T) {
	const p = 4
	top, err := simnet.Build("uniform", p, cost.DefaultParams, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.NewNetwork(top, cost.DefaultParams)
	m, err := machine.New(p, machine.WithNetwork(net), machine.WithRecvTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	part, err := partition.NewRow(24, 24, p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunStream(m, StreamPlan{Codec: ED{}, Source: sparse.NewUniformStream(24, 24, 60, 1, 8), Partition: part})
	if err == nil || !strings.Contains(err.Error(), "network model") {
		t.Fatalf("RunStream on a recording machine = %v, want an error naming the network model", err)
	}
	if tl := net.Finalize(); len(tl.Events) != 0 {
		t.Errorf("refused run recorded %d events", len(tl.Events))
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
	sink := func(k int, frame []float64) error {
		delivered += int64(len(frame) / 3)
		machine.PutBuf(frame) // as the receiver releases a consumed frame
		return nil
	}
	opts := StreamOptions{FlushEntries: 8192, MemBudget: budget}.withDefaults(p)
	si := newStreamIngester(loc, p, opts, compress.NewEntries(n, n), sink)
	src := sparse.NewUniformStream(n, n, nnz, 42, sparse.DefaultChunkEntries)
	high, err := heapHighWater(func() error {
		if err := si.run(src, Options{}); err != nil {
			return err
		}
		return si.drain()
	})
	if err != nil {
		t.Fatal(err)
	}
	delivered += int64(si.self.Len()) // part 0's entries, staged at the root

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

// TestStreamIngesterBudgetSweep (white box): the entries in open
// frames must never exceed the entry budget between flushes, and the
// open frames' reserved capacity must never exceed MemBudget.
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
	opts := StreamOptions{FlushEntries: 1 << 30 /* never flush by size */, MemBudget: 24 * budgetEntries}
	si := newStreamIngester(loc, p, opts, compress.NewEntries(n, n), func(_ int, f []float64) error { machine.PutBuf(f); return nil })
	src := sparse.NewUniformStream(n, n, 800, 7, 16)
	for {
		ch, err := src.Next()
		if err != nil {
			break
		}
		for _, e := range ch.Entries {
			if err := si.add(e); err != nil {
				t.Fatal(err)
			}
			buffered, reserved := 0, 0
			for _, f := range si.frames {
				buffered, reserved = buffered+len(f)/3, reserved+8*cap(f)
			}
			if buffered > budgetEntries {
				t.Fatalf("buffered %d entries exceeds budget %d", buffered, budgetEntries)
			}
			if reserved > opts.MemBudget {
				t.Fatalf("open frames reserve %d bytes, above the %d-byte budget", reserved, opts.MemBudget)
			}
		}
	}
}
