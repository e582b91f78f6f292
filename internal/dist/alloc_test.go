package dist

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/compress"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// TestEDEncodeSendSteadyStateAllocs guards the pooled hot path: once
// the wire-buffer pool is warm, one ED part's encode + send + receive +
// release cycle must not allocate proportionally to the part — only the
// partition's per-call ownership maps and a few fixed words remain.
// Before pooling, this cycle allocated (and grew) a fresh wire buffer
// per part; a regression reintroducing that shows up here long before
// it shows up in BenchmarkRun's allocs/op.
func TestEDEncodeSendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	const n = 64
	g := sparse.Uniform(n, n, 0.1, 3)
	part, err := partition.NewRow(n, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(1) // loopback: rank 0 sends to itself
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	f, err := formatFor(CRS)
	if err != nil {
		t.Fatal(err)
	}
	run := &runState{codec: ED{}, global: g, part: part, opts: Options{Method: CRS}, format: f}
	encode := func(k int, pp *partPayload) error { return ED{}.EncodePart(run, k, pp) }
	cycle := func(pr *machine.Proc) error {
		pp := partPayload{}
		if err := encode(0, &pp); err != nil {
			return err
		}
		if err := pr.SendBuf(0, 1, pp.meta, pp.buf, pp.pooled, nil); err != nil {
			return err
		}
		msg, err := pr.RecvFrom(0, 1)
		if err != nil {
			return err
		}
		machine.ReleaseMessage(&msg)
		return nil
	}

	err = m.Run(func(pr *machine.Proc) error {
		for i := 0; i < 3; i++ { // warm the pool to steady state
			if err := cycle(pr); err != nil {
				return err
			}
		}
		avg := testing.AllocsPerRun(100, func() {
			if err := cycle(pr); err != nil {
				t.Error(err)
			}
		})
		// Two allocations are the partition's RowMap/ColMap copies; the
		// bound leaves a little slack for runtime noise but is far below
		// the one-buffer-per-part regime (which also grows by appending,
		// costing several allocations per part).
		if avg > 4 {
			t.Errorf("ED encode+send steady state allocates %.1f times per part, want <= 4", avg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCFSEncodeSendSteadyStateAllocs is the CFS twin of the ED guard:
// once the wire-buffer pool is warm, one CFS part's encode + send +
// receive + release cycle writes the wire form straight off the pooled
// special buffer into the pooled wire buffer, so it allocates only the
// partition's ownership-map copies — no compressed array of 16 bytes
// per nonzero on the way. It runs with the CFSConvertAtRoot ablation
// off on a row part and on for the last part of a column partition,
// whose minor indices the root shifts by a nonzero offset as it writes
// them. One P, as in TestSFCDecodeAllocatesItsResult: the scan's
// scratch is a per-P sync.Pool.
func TestCFSEncodeSendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 128
	g := sparse.Uniform(n, n, 0.1, 3)
	row, err := partition.NewRow(n, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	col, err := partition.NewCol(n, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := formatFor(CRS)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		part    partition.Partition
		convert bool
	}{
		{"row", row, false},
		{"col/convert-at-root", col, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := machine.New(1) // loopback: rank 0 sends the part to itself
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			const k = 1
			run := &runState{codec: CFS{}, global: g, part: c.part, opts: Options{Method: CRS, CFSConvertAtRoot: c.convert}, format: f}
			nnz := 0
			cycle := func(pr *machine.Proc) error {
				pp := partPayload{}
				if err := (CFS{}).EncodePart(run, k, &pp); err != nil {
					return err
				}
				nnz = (len(pp.buf) - len(run.part.RowMap(k)) - 1) / 2
				if err := pr.SendBuf(0, 1, pp.meta, pp.buf, pp.pooled, nil); err != nil {
					return err
				}
				msg, err := pr.RecvFrom(0, 1)
				if err != nil {
					return err
				}
				machine.ReleaseMessage(&msg)
				return nil
			}
			err = m.Run(func(pr *machine.Proc) error {
				for i := 0; i < 3; i++ { // warm the pools to steady state
					if err := cycle(pr); err != nil {
						return err
					}
				}
				const runs = 100
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				avg := testing.AllocsPerRun(runs, func() {
					if err := cycle(pr); err != nil {
						t.Error(err)
					}
				})
				runtime.ReadMemStats(&after)
				perCycle := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
				t.Logf("CFS %s: %.1f allocations and %d bytes per cycle, %d nonzeros", c.name, avg, perCycle, nnz)
				if avg > 4 {
					t.Errorf("CFS %s encode+send steady state allocates %.1f times per part, want <= 4", c.name, avg)
				}
				// AllocsPerRun makes one warm-up call besides the measured
				// runs. The bound is a quarter of a compressed array's
				// 16 bytes per nonzero, well above the map copies.
				if bound := uint64(4 * nnz); perCycle > bound {
					t.Errorf("CFS %s encode+send steady state allocates %d bytes per part of %d nonzeros, want <= %d", c.name, perCycle, nnz, bound)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSFCEncodeSendSteadyStateAllocs is the SFC twin of the ED guard,
// on both kinds of SFC payload. A column part is packed into a pooled
// wire buffer: once the pool is warm, its pack + send + receive +
// release cycle reuses that buffer instead of allocating and zeroing a
// fresh array, which would be a single allocation, so the guard bounds
// bytes as well as counts. A row block is sent as a view of the global
// array: unpooled, sharing g's memory with no room to append past the
// part, and its cycle allocates nothing at all.
func TestSFCEncodeSendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	const n = 64
	g := sparse.Uniform(n, n, 0.1, 3)
	col, err := partition.NewCol(n, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	row, err := partition.NewRow(n, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := formatFor(CRS)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		part      partition.Partition
		pooled    bool
		maxAllocs float64
		maxBytes  uint64
	}{
		// The bounds leave a little slack for runtime noise but are far
		// below the one-array-per-part regime (n²·8/2 bytes a cycle).
		{"col", col, true, 4, n * n * 8 / 16},
		{"row", row, false, 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := machine.New(1) // loopback: rank 0 sends part 0 to itself
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			run := &runState{codec: SFC{}, global: g, part: c.part, opts: Options{Method: CRS}, format: f}
			cycle := func(pr *machine.Proc) error {
				pp := partPayload{}
				if err := (SFC{}).EncodePart(run, 0, &pp); err != nil {
					return err
				}
				if pp.pooled != c.pooled {
					return fmt.Errorf("SFC %s payload has pooled = %t, want %t", c.name, pp.pooled, c.pooled)
				}
				if !c.pooled && (&pp.buf[0] != &g.Data()[0] || cap(pp.buf) != len(pp.buf)) {
					return errors.New("SFC row payload is not a capped view of the global array")
				}
				if err := pr.SendBuf(0, 1, pp.meta, pp.buf, pp.pooled, nil); err != nil {
					return err
				}
				msg, err := pr.RecvFrom(0, 1)
				if err != nil {
					return err
				}
				machine.ReleaseMessage(&msg)
				return nil
			}

			err = m.Run(func(pr *machine.Proc) error {
				for i := 0; i < 3; i++ { // warm the pool to steady state
					if err := cycle(pr); err != nil {
						return err
					}
				}
				const runs = 100
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				avg := testing.AllocsPerRun(runs, func() {
					if err := cycle(pr); err != nil {
						t.Error(err)
					}
				})
				runtime.ReadMemStats(&after)
				if avg > c.maxAllocs {
					t.Errorf("SFC %s encode+send steady state allocates %.1f times per part, want <= %g", c.name, avg, c.maxAllocs)
				}
				// AllocsPerRun makes one warm-up call besides the measured runs.
				if perCycle := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perCycle > c.maxBytes {
					t.Errorf("SFC %s encode+send steady state allocates %d bytes per part, want <= %d", c.name, perCycle, c.maxBytes)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSFCDecodeAllocatesItsResult pins SFC's rank-side compress at the
// layer the workloads run it: once warm, DecodePart on a row part of
// n = 400 allocates its result's arrays and little else (at most 1 KiB
// more), not the doubling slices an append-grown result leaves behind.
func TestSFCDecodeAllocatesItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	const n = 400
	g := sparse.UniformExact(n, n, 0.1, 5)
	row, err := partition.NewRow(n, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := formatFor(CRS)
	if err != nil {
		t.Fatal(err)
	}
	run := &runState{codec: SFC{}, global: g, part: row, opts: Options{Method: CRS}, format: f}
	pp := partPayload{}
	if err := (SFC{}).EncodePart(run, 0, &pp); err != nil {
		t.Fatal(err)
	}
	decode := func() *compress.CRS {
		a, err := (SFC{}).DecodePart(run, 0, pp.buf, pp.meta, nil)
		if err != nil {
			t.Fatal(err)
		}
		return a.(*compress.CRS)
	}
	// One P, as in testing.AllocsPerRun: a goroutine that moved to
	// another P would miss the pooled scratch its last call put back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := decode() // warm the compress scratch
	const runs = 50
	bytesPerCall := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	// The result's bytes as the allocator hands them out, size classes
	// included: three fresh arrays of its lengths.
	result := bytesPerCall(func() {
		resultSink = compress.CRS{RowPtr: make([]int, len(res.RowPtr)), ColIdx: make([]int, len(res.ColIdx)), Val: make([]float64, len(res.Val))}
	})
	if got := bytesPerCall(func() { decode() }); got > result+1024 {
		t.Errorf("SFC DecodePart allocates %d bytes per row part, want <= %d (its result's %d + 1 KiB)",
			got, result+1024, result)
	}
}

// resultSink keeps the arrays TestSFCDecodeAllocatesItsResult sizes on
// the heap.
var resultSink compress.CRS

// TestSFCRetainingTransportUnpooled runs SFC end to end over the two
// transports that do not hand a receiver the sender's buffer as its
// own (the reliability layer delivers a frame of its own, fault
// injection may deliver a payload twice) and checks that no rank is
// handed a payload it may recycle, while the fault-free transport
// hands every rank its pooled buffer. It runs on a column partition,
// whose every part is packed into a pooled buffer (a row block goes as
// an unpooled view of the array).
func TestSFCRetainingTransportUnpooled(t *testing.T) {
	const n, p = 24, 4
	g := sparse.UniformExact(n, n, 0.2, 9)
	part, err := partition.NewCol(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	f, err := formatFor(CRS)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		tr     func() machine.Transport
		pooled bool
	}{
		{"chan", func() machine.Transport { return machine.NewChanTransport(p) }, true},
		{"reliable", func() machine.Transport {
			return machine.NewReliableTransport(machine.NewChanTransport(p), machine.RetryPolicy{})
		}, false},
		{"fault", func() machine.Transport { return machine.NewFaultTransport(machine.NewChanTransport(p)) }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := machine.New(p, machine.WithTransport(c.tr()))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			run := &runState{codec: SFC{}, global: g, part: part, opts: Options{Method: CRS}, format: f}
			err = m.Run(func(pr *machine.Proc) error {
				if pr.Rank == 0 {
					for k := 0; k < p; k++ {
						pp := partPayload{}
						if err := (SFC{}).EncodePart(run, k, &pp); err != nil {
							return err
						}
						if err := pr.SendBuf(k, 1, pp.meta, pp.buf, pp.pooled, nil); err != nil {
							return err
						}
					}
				}
				msg, err := pr.RecvFrom(0, 1)
				if err != nil {
					return err
				}
				if msg.Pooled != c.pooled {
					t.Errorf("rank %d received a payload with Pooled = %t, want %t", pr.Rank, msg.Pooled, c.pooled)
				}
				if _, err := (SFC{}).DecodePart(run, pr.Rank, msg.Data, msg.Meta, nil); err != nil {
					return err
				}
				machine.ReleaseMessage(&msg)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRootLoopAllocsFlatInP pins what the root loop itself allocates
// with the root alone (Workers: 1): one payload slice per run, whatever
// p, not one payload per part. The run sends SFC row blocks, views of
// the array that encode without allocating, and every rank receives
// its frame and releases it. The same frames sent from payloads encoded
// beforehand are the baseline, so the difference is rootSendParts' own.
func TestRootLoopAllocsFlatInP(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	const n = 64
	g := sparse.Uniform(n, n, 0.1, 3)
	f, err := formatFor(CRS)
	if err != nil {
		t.Fatal(err)
	}
	loopAllocs := func(p int) float64 {
		part, err := partition.NewRow(n, n, p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := machine.New(p)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		run := &runState{codec: SFC{}, global: g, part: part, opts: Options{Method: CRS, Workers: 1}, format: f}
		bd := newBreakdown(p)
		encoded := make([]partPayload, p)
		for k := range encoded {
			if err := (SFC{}).EncodePart(run, k, &encoded[k]); err != nil {
				t.Fatal(err)
			}
		}
		receive := func(pr *machine.Proc) error {
			msg, err := pr.RecvFrom(0, 1)
			if err != nil {
				return err
			}
			machine.ReleaseMessage(&msg)
			return nil
		}
		allocs := func(root func(pr *machine.Proc) error) float64 {
			return testing.AllocsPerRun(50, func() {
				err := m.Run(func(pr *machine.Proc) error {
					if pr.Rank == 0 {
						if err := root(pr); err != nil {
							return err
						}
					}
					return receive(pr)
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
		loop := allocs(func(pr *machine.Proc) error { return rootSendParts(pr, 1, run, bd) })
		direct := allocs(func(pr *machine.Proc) error {
			for k := range encoded {
				pp := &encoded[k]
				if err := pr.SendBuf(k, 1, pp.meta, pp.buf, pp.pooled, &bd.RootDist); err != nil {
					return err
				}
			}
			return nil
		})
		t.Logf("p = %d: the root loop allocates %.0f times per run beyond its sends", p, loop-direct)
		return loop - direct
	}
	if small, large := loopAllocs(2), loopAllocs(8); large > small {
		t.Errorf("the root loop allocates %.0f times per run at p = 8 against %.0f at p = 2, want no growth with p", large, small)
	}
}
