package spops_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/benchgate"
	"repro/internal/check"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/ops"
	"repro/internal/sparse"
	"repro/internal/spops"
)

// dense builds a small array from literal rows.
func dense(t *testing.T, rows [][]float64) *sparse.Dense {
	t.Helper()
	d, err := sparse.NewDenseFrom(rows)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// spgemmOracle is the sequential product the distributed one is held to.
func spgemmOracle(t *testing.T, ga *sparse.Dense, b *compress.CRS) *compress.CRS {
	t.Helper()
	want, err := ops.SpGEMM(compress.CompressCRS(ga, nil), b)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// assertProduct holds c to the oracle element-wise and structurally:
// a valid CRS with exactly the oracle's nonzeros.
func assertProduct(t *testing.T, c, want *compress.CRS) {
	t.Helper()
	if err := check.CRS(c); err != nil {
		t.Fatalf("product is not a valid CRS: %v", err)
	}
	assertCRSEqual(t, c, want)
	if c.NNZ() != want.NNZ() {
		t.Fatalf("product stores %d nonzeros, ops.SpGEMM %d", c.NNZ(), want.NNZ())
	}
}

// TestSpGEMMWirePin pins the wire format: every payload is a row-major
// special buffer over a row list both ends know, so the op moves
// exactly Σ(rows listed + 2·nonzeros shipped) words. The expected
// figure is rebuilt here from the plan's exported lists, B, and dense
// per-rank partial products — nothing the kernel computed.
func TestSpGEMMWirePin(t *testing.T) {
	const p = 4
	pin := func(t *testing.T, ga, gb *sparse.Dense, part, method string) spops.OpStats {
		b := compress.CompressCRS(gb, nil)
		want := spgemmOracle(t, ga, b)
		d, pl := distribute(t, ga, core.Config{Scheme: "ED", Partition: part, Method: method, Procs: p})
		defer d.Close()
		c, st, err := spops.DistSpGEMM(d.Machine(), pl, b)
		if err != nil {
			t.Fatal(err)
		}
		assertProduct(t, c, want)

		words, msgs := 0, 0
		list := func(rows, nnz int) {
			words += rows + 2*nnz
			msgs++
		}
		// Scatter: the ceil-div block of B's rows to each owner but the
		// IO rank, rank 0.
		blk := (b.Rows + p - 1) / p
		for r := 1; r < p; r++ {
			lo, hi := min(r*blk, b.Rows), min((r+1)*blk, b.Rows)
			if hi > lo {
				list(hi-lo, b.RowPtr[hi]-b.RowPtr[lo])
			}
		}
		// Fetch: the halo send lists, as B rows.
		for s := 0; s < p; s++ {
			for r := 0; r < p; r++ {
				if idx := pl.SendIdx[s][r]; len(idx) > 0 {
					nnz := 0
					for _, g := range idx {
						nnz += b.RowNNZ(g)
					}
					list(len(idx), nnz)
				}
			}
		}
		// Gather: each non-IO rank's rows of its partial product.
		for r := 1; r < p; r++ {
			rowMap, colMap := d.Partition.RowMap(r), d.Partition.ColMap(r)
			nnz := 0
			for _, i := range rowMap {
				for j := 0; j < gb.Cols(); j++ {
					sum := 0.0
					for _, k := range colMap {
						sum += ga.At(i, k) * gb.At(k, j)
					}
					if sum != 0 {
						nnz++
					}
				}
			}
			list(len(pl.Contrib[r]), nnz)
		}
		if st.WireWords != words {
			t.Errorf("moved %d words, rows listed + 2 x nonzeros shipped = %d", st.WireWords, words)
		}
		if st.Messages != msgs {
			t.Errorf("sent %d messages, the plan implies %d", st.Messages, msgs)
		}
		if wantB := (b.Rows + 2*b.NNZ()) * (p - 1); st.BcastWords != wantB {
			t.Errorf("broadcast equivalent %d words, want %d in the same encoding", st.BcastWords, wantB)
		}
		return st
	}
	ga := sparse.Uniform(40, 32, 0.15, 5)
	gb := sparse.Uniform(32, 20, 0.2, 6)
	for _, part := range []string{"row", "col", "mesh"} {
		for _, method := range []string{"CRS", "CCS", "JDS"} {
			t.Run(part+"/"+method, func(t *testing.T) { pin(t, ga, gb, part, method) })
		}
	}
	// The regime the layer targets — banded, s ≈ 0.05, B = A: fetching
	// the referenced B rows must also undercut shipping all of B to
	// every rank (18,730 of 21,230 words, 0.882).
	t.Run("banded/row/CRS", func(t *testing.T) {
		g := sparse.Banded(256, 256, 8, 0.8, 3)
		st := pin(t, g, g, "row", "CRS")
		if float64(st.WireWords) > 0.95*float64(st.BcastWords) {
			t.Errorf("row fetch moved %d words, above 0.95 x the %d of broadcasting B", st.WireWords, st.BcastWords)
		}
	})
}

// TestSpGEMMAllocs guards the slab-and-pool design: one n=256 product
// on four ranks allocates a few slabs per rank and per message, not a
// map entry or a triplet per nonzero (4,202 allocations before).
func TestSpGEMMAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	g := sparse.Banded(256, 256, 8, 0.8, 3)
	b := compress.CompressCRS(g, nil)
	d, pl := distribute(t, g, core.Config{Scheme: "ED", Partition: "row", Method: "CRS", Procs: 4})
	defer d.Close()
	run := func() {
		if _, _, err := spops.DistSpGEMM(d.Machine(), pl, b); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 3; i++ { // build the plan's SpGEMM view, warm the pool
		run()
	}
	if avg := testing.AllocsPerRun(20, run); avg > 300 {
		t.Errorf("DistSpGEMM allocates %.0f times per product, want <= 300", avg)
	}
}

// BenchmarkDistSpGEMM/gate holds the row-fetch product to the time of
// the sequential ops.SpGEMM on the same operands (the input of
// TestSpGEMMAllocs, B = A), twenty products a side and round: the four
// ranks do the sequential kernel's multiply-adds between them, through
// pre-sized slabs, so scatter, fetch and gather must fit in what that
// saves. Words and allocations are exact counts, pinned by
// TestSpGEMMWirePin and TestSpGEMMAllocs.
func BenchmarkDistSpGEMM(b *testing.B) {
	g := sparse.Banded(256, 256, 8, 0.8, 3)
	bm := compress.CompressCRS(g, nil)
	d, pl := distribute(b, g, core.Config{Scheme: "ED", Partition: "row", Method: "CRS", Procs: 4})
	defer d.Close()
	b.Run("gate", func(b *testing.B) {
		benchgate.Ratio(b, 20, 1.0, func() {
			for i := 0; i < 20; i++ {
				if _, _, err := spops.DistSpGEMM(d.Machine(), pl, bm); err != nil {
					b.Fatal(err)
				}
			}
		}, func() {
			for i := 0; i < 20; i++ {
				if _, err := ops.SpGEMM(bm, bm); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// TestSpGEMMEdgeCases runs shapes the sweep does not reach against
// ops.SpGEMM.
func TestSpGEMMEdgeCases(t *testing.T) {
	holes := sparse.Uniform(24, 18, 0.3, 8).Clone()
	for _, i := range []int{0, 5, 6, 17, 23} { // A is dense enough to put every B row on a fetch list
		for j := 0; j < holes.Cols(); j++ {
			holes.Set(i, j, 0)
		}
	}
	cases := []struct {
		name string
		a, b *sparse.Dense
		cfg  core.Config
	}{
		{"rectangular B", sparse.Uniform(20, 20, 0.2, 1), sparse.Uniform(20, 7, 0.3, 2),
			core.Config{Partition: "row", Procs: 4}},
		{"wide B", sparse.Uniform(12, 9, 0.3, 3), sparse.Uniform(9, 40, 0.2, 4),
			core.Config{Partition: "mesh", Procs: 4}},
		{"empty B rows on fetch lists", sparse.Uniform(24, 24, 0.3, 7), holes,
			core.Config{Partition: "row", Procs: 4}},
		{"empty A parts (p > rows)", sparse.Uniform(3, 12, 0.5, 9), sparse.Uniform(12, 5, 0.4, 10),
			core.Config{Partition: "row", Procs: 6}},
		{"zero A", sparse.NewDense(8, 8), sparse.Uniform(8, 8, 0.4, 11),
			core.Config{Partition: "col", Procs: 4}},
		{"zero B", sparse.Uniform(8, 8, 0.4, 12), sparse.NewDense(8, 8),
			core.Config{Partition: "row", Procs: 4}},
		// A = [1 1], B = [[1], [-1]]: the one entry of C cancels exactly,
		// inside one rank (row) or only in the IO rank's merge (col).
		{"exact cancellation on a rank", dense(t, [][]float64{{1, 1}}), dense(t, [][]float64{{1}, {-1}}),
			core.Config{Partition: "row", Procs: 1}},
		{"exact cancellation in the merge", dense(t, [][]float64{{1, 1}}), dense(t, [][]float64{{1}, {-1}}),
			core.Config{Partition: "col", Procs: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := compress.CompressCRS(tc.b, nil)
			want := spgemmOracle(t, tc.a, b)
			for _, method := range []string{"CRS", "CCS", "JDS"} {
				cfg := tc.cfg
				cfg.Method = method
				d, pl := distribute(t, tc.a, cfg)
				c, _, err := spops.DistSpGEMM(d.Machine(), pl, b)
				d.Close()
				if err != nil {
					t.Fatalf("%s: %v", method, err)
				}
				assertProduct(t, c, want)
			}
		})
	}
}

// TestSpGEMMRejectsInvalidB: an operand that breaks the CRS invariants
// is refused before any rank starts, not by a receiver mid-exchange.
func TestSpGEMMRejectsInvalidB(t *testing.T) {
	g := sparse.Uniform(10, 10, 0.3, 1)
	d, pl := distribute(t, g, core.Config{Partition: "row", Procs: 2})
	defer d.Close()
	b := compress.CompressCRS(g, nil)
	b.ColIdx[0] = b.Cols
	if _, _, err := spops.DistSpGEMM(d.Machine(), pl, b); err == nil {
		t.Fatal("accepted a B whose column index is out of range")
	}
}

// faultyMachine builds a p-rank machine over a fault-injecting channel
// transport, under the reliability layer when reliable is set.
func faultyMachine(t *testing.T, p int, reliable bool, timeout time.Duration) (*machine.Machine, *machine.FaultTransport) {
	t.Helper()
	ft := machine.NewFaultTransport(machine.NewChanTransport(p))
	var tr machine.Transport = ft
	if reliable {
		tr = machine.NewReliableTransport(ft, machine.RetryPolicy{MaxRetries: 8, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond})
	}
	m, err := machine.New(p, machine.WithTransport(tr), machine.WithRecvTimeout(timeout))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, ft
}

// TestSpGEMMOverLossyTransport aims every transient fault at the op's
// own traffic: the plan holds no machine, so the array is distributed
// on a clean machine and the product runs on a faulty one. Under the
// reliability layer the product is the oracle's, each time, with clean
// products on the pooled channel transport in between.
func TestSpGEMMOverLossyTransport(t *testing.T) {
	const p = 4
	ga := sparse.Banded(64, 64, 5, 0.8, 3)
	b := compress.CompressCRS(sparse.Uniform(64, 40, 0.15, 4), nil)
	want := spgemmOracle(t, ga, b)
	for _, part := range []string{"row", "mesh"} {
		t.Run(part, func(t *testing.T) {
			d, pl := distribute(t, ga, core.Config{Scheme: "ED", Partition: part, Procs: p})
			defer d.Close()
			m, ft := faultyMachine(t, p, true, 10*time.Second)
			for round := 0; round < 4; round++ {
				ft.DropNext(2)
				ft.CorruptNext(2)
				ft.DuplicateNext(2)
				ft.ReorderNext(2)
				c, st, err := spops.DistSpGEMM(m, pl, b)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				assertProduct(t, c, want)
				clean, cst, err := spops.DistSpGEMM(d.Machine(), pl, b)
				if err != nil {
					t.Fatal(err)
				}
				assertProduct(t, clean, want)
				if st.WireWords != cst.WireWords || st.Messages != cst.Messages {
					t.Fatalf("charged traffic differs under faults: %+v vs %+v", st, cst)
				}
			}
			if fs := ft.FullStats(); fs.Dropped == 0 || fs.Corrupted == 0 || fs.Duplicated == 0 || fs.Reordered == 0 {
				t.Fatalf("faults not injected: %+v", fs)
			}
		})
	}
}

// TestSpGEMMOverBitFlips runs the product over a bare bit-flipping
// transport: no checksum, so a flipped word reaches the decoder. The
// op must then fail, or return a structurally valid CRS of the right
// shape — a flipped count, index or zeroed value is an error, never a
// panic or an index past Cols. (A flip inside a value word cannot be
// seen without a checksum; it may overflow a product, which is a value
// fault, not a structural one.)
func TestSpGEMMOverBitFlips(t *testing.T) {
	const p = 4
	failed, passed := 0, 0
	for trial := 0; trial < 16; trial++ {
		ga := sparse.Banded(48, 48, 4, 0.8, int64(100+trial))
		b := compress.CompressCRS(sparse.Uniform(48, 30, 0.2, int64(200+trial)), nil)
		part := []string{"row", "col", "mesh"}[trial%3]
		d, pl := distribute(t, ga, core.Config{Scheme: "ED", Partition: part, Procs: p})
		m, ft := faultyMachine(t, p, false, 300*time.Millisecond)
		ft.CorruptNext(1 + trial%4)
		c, _, err := spops.DistSpGEMM(m, pl, b)
		d.Close()
		if err != nil {
			failed++
			continue
		}
		passed++
		if c.Rows != 48 || c.Cols != 30 {
			t.Fatalf("trial %d: product is %dx%d", trial, c.Rows, c.Cols)
		}
		var v *check.Violation
		if err := check.CRS(c); err != nil && !(errors.As(err, &v) && v.Rule == "value-finite") {
			t.Fatalf("trial %d: structurally invalid product: %v", trial, err)
		}
	}
	t.Logf("%d products failed, %d came back valid", failed, passed)

	// Permanent corruption turns word 0 — a row count — of every
	// payload into NaN: always an error, naming the phase.
	ga := sparse.Banded(48, 48, 4, 0.8, 1)
	d, pl := distribute(t, ga, core.Config{Scheme: "ED", Partition: "row", Procs: p})
	defer d.Close()
	m, ft := faultyMachine(t, p, false, 300*time.Millisecond)
	ft.CorruptPayloads(true)
	if _, _, err := spops.DistSpGEMM(m, pl, compress.CompressCRS(ga, nil)); err == nil {
		t.Fatal("NaN row counts accepted")
	} else {
		t.Log(err)
	}
}
