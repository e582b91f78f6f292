package dist

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// newQuietMachine builds a machine without a testing.T, for use inside
// testing/quick property functions.
func newQuietMachine(p int) (*machine.Machine, error) {
	return machine.New(p, machine.WithRecvTimeout(10*time.Second))
}

// newMachine builds a channel-transport machine with a short watchdog.
func newMachine(t *testing.T, p int) *machine.Machine {
	t.Helper()
	m, err := machine.New(p, machine.WithRecvTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// distribute is the Distribute method of the scheme behind c.
func distribute(c Codec, m *machine.Machine, g *sparse.Dense, part partition.Partition, opts Options) (*Result, error) {
	return Run(m, Plan{Codec: c, Global: g, Partition: part, Options: opts})
}

func partitionsFor(t *testing.T, rows, cols, p int) []partition.Partition {
	t.Helper()
	row, err := partition.NewRow(rows, cols, p)
	if err != nil {
		t.Fatal(err)
	}
	col, err := partition.NewCol(rows, cols, p)
	if err != nil {
		t.Fatal(err)
	}
	out := []partition.Partition{row, col}
	if p == 4 {
		mesh, err := partition.NewMesh(rows, cols, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, mesh)
	}
	cyc, err := partition.NewCyclicRow(rows, cols, p)
	if err != nil {
		t.Fatal(err)
	}
	ccol, err := partition.NewCyclicCol(rows, cols, p)
	if err != nil {
		t.Fatal(err)
	}
	brs, err := partition.NewBlockCyclicRow(rows, cols, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, cyc, ccol, brs)
	if p == 4 {
		cm, err := partition.NewCyclicMesh(rows, cols, 2, 2, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, cm)
	}
	return out
}

// TestAllSchemesAllPartitionsEquivalent is the central correctness test:
// every scheme must produce exactly the local compressed arrays that
// direct per-part compression would, for every partition method and
// both compression methods.
func TestAllSchemesAllPartitionsEquivalent(t *testing.T) {
	g := sparse.Uniform(37, 29, 0.15, 42)
	for _, part := range partitionsFor(t, 37, 29, 4) {
		for _, method := range []Method{CRS, CCS, JDS} {
			for _, s := range Schemes() {
				name := s.Name() + "/" + part.Name() + "/" + method.String()
				t.Run(name, func(t *testing.T) {
					m := newMachine(t, 4)
					res, err := distribute(s, m, g, part, Options{Method: method})
					if err != nil {
						t.Fatal(err)
					}
					if err := Verify(g, part, res); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

func TestSchemesOverTCP(t *testing.T) {
	g := sparse.Uniform(24, 24, 0.1, 7)
	part, err := partition.NewRow(24, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			tr, err := machine.NewTCPTransport(3)
			if err != nil {
				t.Fatal(err)
			}
			m, err := machine.New(3, machine.WithTransport(tr), machine.WithRecvTimeout(10*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			res, err := distribute(s, m, g, part, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(g, part, res); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEmptyPartsMoreProcsThanRows(t *testing.T) {
	g := sparse.Uniform(3, 12, 0.4, 5)
	part, err := partition.NewRow(3, 12, 6) // parts 3..5 own nothing
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			m := newMachine(t, 6)
			res, err := distribute(s, m, g, part, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(g, part, res); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDistributeSetupErrors(t *testing.T) {
	g := sparse.Uniform(8, 8, 0.2, 1)
	part4, _ := partition.NewRow(8, 8, 4)
	partWrongShape, _ := partition.NewRow(9, 8, 2)

	m := newMachine(t, 2)
	for _, s := range Schemes() {
		if _, err := distribute(s, m, g, part4, Options{}); err == nil {
			t.Errorf("%s accepted partition with wrong part count", s.Name())
		}
		if _, err := distribute(s, m, g, partWrongShape, Options{}); err == nil {
			t.Errorf("%s accepted partition with wrong shape", s.Name())
		}
		if _, err := distribute(s, nil, g, part4, Options{}); err == nil {
			t.Errorf("%s accepted nil machine", s.Name())
		}
	}
}

func TestByName(t *testing.T) {
	for _, want := range []string{"SFC", "CFS", "ED"} {
		s, err := CodecByName(want)
		if err != nil || s.Name() != want {
			t.Errorf("CodecByName(%q) = %v, %v", want, s, err)
		}
	}
	if _, err := CodecByName("BOGUS"); err == nil {
		t.Error("ByName accepted unknown scheme")
	}
	if !strings.Contains(MethodNames(), "CRS") {
		t.Error("MethodNames missing CRS")
	}
}

// --- Cost accounting against the paper's closed forms (row partition, CRS) ---

// exactCase returns a square array with known counts plus the row
// partition, for checking measured counters against Table 1 terms.
func exactCase(t *testing.T, n, p int) (*sparse.Dense, partition.Partition, int, int) {
	t.Helper()
	g := sparse.UniformExact(n, n, 0.1, 99)
	part, err := partition.NewRow(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	nnz := g.NNZ()
	maxLocal := 0
	for k := 0; k < p; k++ {
		if l := partition.Extract(g, part, k).NNZ(); l > maxLocal {
			maxLocal = l
		}
	}
	return g, part, nnz, maxLocal
}

func TestSFCCountersMatchTable1(t *testing.T) {
	const n, p = 40, 4
	g, part, _, _ := exactCase(t, n, p)
	m := newMachine(t, p)
	res, err := Run(m, Plan{Codec: SFC{}, Global: g, Partition: part})
	if err != nil {
		t.Fatal(err)
	}
	bd := res.Breakdown
	// T_Distribution = p*T_Startup + n^2*T_Data: p messages, n^2 elements,
	// no packing ops.
	if bd.RootDist.Messages != p {
		t.Errorf("messages = %d, want %d", bd.RootDist.Messages, p)
	}
	if bd.RootDist.Elements != n*n {
		t.Errorf("elements = %d, want %d", bd.RootDist.Elements, n*n)
	}
	if bd.RootDist.Ops != 0 {
		t.Errorf("root dist ops = %d, want 0 (SFC sends without packing)", bd.RootDist.Ops)
	}
	// T_Compression = ceil(n/p)*n*(1+3s') at the busiest rank.
	var maxOps int64
	for k := 0; k < p; k++ {
		nnzK := partition.Extract(g, part, k).NNZ()
		want := int64((n/p)*n + 3*nnzK)
		if got := bd.RankComp[k].Ops; got != want {
			t.Errorf("rank %d comp ops = %d, want %d", k, got, want)
		}
		if bd.RankComp[k].Ops > maxOps {
			maxOps = bd.RankComp[k].Ops
		}
	}
	if bd.RootComp.Ops != 0 {
		t.Error("SFC charged compression at the root")
	}
	// Virtual compression time = max over ranks.
	params := cost.DefaultParams
	if got, want := bd.CompressionTime(params), params.Time(cost.Counter{Ops: maxOps}); got != want {
		t.Errorf("CompressionTime = %v, want %v", got, want)
	}
}

func TestCFSCountersMatchTable1(t *testing.T) {
	const n, p = 40, 4
	g, part, nnz, _ := exactCase(t, n, p)
	m := newMachine(t, p)
	res, err := Run(m, Plan{Codec: CFS{}, Global: g, Partition: part})
	if err != nil {
		t.Fatal(err)
	}
	bd := res.Breakdown
	// Compression at root: n^2(1+3s) = n^2 + 3*nnz ops.
	if want := int64(n*n + 3*nnz); bd.RootComp.Ops != want {
		t.Errorf("root comp ops = %d, want %d", bd.RootComp.Ops, want)
	}
	// Wire: 2*nnz + n + p words (RowPtr arrays total n+p), p messages,
	// pack ops equal to words.
	wantWords := int64(2*nnz + n + p)
	if bd.RootDist.Elements != wantWords {
		t.Errorf("elements = %d, want %d", bd.RootDist.Elements, wantWords)
	}
	if bd.RootDist.Ops != wantWords {
		t.Errorf("pack ops = %d, want %d", bd.RootDist.Ops, wantWords)
	}
	if bd.RootDist.Messages != p {
		t.Errorf("messages = %d, want %d", bd.RootDist.Messages, p)
	}
	// Receiver unpack: one op per word of its buffer; no conversion for
	// row+CRS (Case 3.2.1).
	for k := 0; k < p; k++ {
		nnzK := partition.Extract(g, part, k).NNZ()
		want := int64(n/p + 1 + 2*nnzK)
		if got := bd.RankDist[k].Ops; got != want {
			t.Errorf("rank %d unpack ops = %d, want %d", k, got, want)
		}
		if bd.RankComp[k].Ops != 0 {
			t.Errorf("rank %d charged compression ops in CFS", k)
		}
	}
}

func TestEDCountersMatchTable1(t *testing.T) {
	const n, p = 40, 4
	g, part, nnz, _ := exactCase(t, n, p)
	m := newMachine(t, p)
	res, err := Run(m, Plan{Codec: ED{}, Global: g, Partition: part})
	if err != nil {
		t.Fatal(err)
	}
	bd := res.Breakdown
	// Distribution: p messages, 2*nnz + n words (counts region totals n),
	// and crucially ZERO packing ops — the encode buffer is the message.
	if bd.RootDist.Messages != p {
		t.Errorf("messages = %d, want %d", bd.RootDist.Messages, p)
	}
	if want := int64(2*nnz + n); bd.RootDist.Elements != want {
		t.Errorf("elements = %d, want %d", bd.RootDist.Elements, want)
	}
	if bd.RootDist.Ops != 0 {
		t.Errorf("root dist ops = %d, want 0 (no packing in ED)", bd.RootDist.Ops)
	}
	// Encode at root: n^2 + 3*nnz ops, same as CFS compression.
	if want := int64(n*n + 3*nnz); bd.RootComp.Ops != want {
		t.Errorf("encode ops = %d, want %d", bd.RootComp.Ops, want)
	}
	// Decode at receivers goes into the *compression* phase: rows + 1 +
	// 2*nnz_k ops, no conversion for row+CRS (Case 3.3.1).
	for k := 0; k < p; k++ {
		nnzK := partition.Extract(g, part, k).NNZ()
		want := int64(n/p + 1 + 2*nnzK)
		if got := bd.RankComp[k].Ops; got != want {
			t.Errorf("rank %d decode ops = %d, want %d", k, got, want)
		}
		if bd.RankDist[k].Ops != 0 {
			t.Errorf("rank %d charged distribution ops in ED", k)
		}
	}
}

func TestRemark1EDDistributionFastest(t *testing.T) {
	// Remark 1: ED's distribution time is below CFS's and (for s < 0.5)
	// below SFC's, for every partition method.
	g := sparse.UniformExact(48, 48, 0.1, 3)
	params := cost.DefaultParams
	for _, part := range partitionsFor(t, 48, 48, 4) {
		times := map[string]time.Duration{}
		for _, s := range Schemes() {
			m := newMachine(t, 4)
			res, err := distribute(s, m, g, part, Options{})
			if err != nil {
				t.Fatal(err)
			}
			times[s.Name()] = res.Breakdown.DistributionTime(params)
		}
		if !(times["ED"] < times["CFS"] && times["ED"] < times["SFC"]) {
			t.Errorf("partition %s: ED dist %v not fastest (CFS %v, SFC %v)",
				part.Name(), times["ED"], times["CFS"], times["SFC"])
		}
		// Remark 2: CFS distribution below SFC at s = 0.1.
		if times["CFS"] >= times["SFC"] {
			t.Errorf("partition %s: CFS dist %v >= SFC %v, violating Remark 2",
				part.Name(), times["CFS"], times["SFC"])
		}
	}
}

func TestRemark3CompressionOrdering(t *testing.T) {
	// Remark 3: T_Compression(SFC) < T_Compression(CFS) < T_Compression(ED).
	g := sparse.UniformExact(48, 48, 0.1, 4)
	part, _ := partition.NewRow(48, 48, 4)
	params := cost.DefaultParams
	times := map[string]time.Duration{}
	for _, s := range Schemes() {
		m := newMachine(t, 4)
		res, err := distribute(s, m, g, part, Options{})
		if err != nil {
			t.Fatal(err)
		}
		times[s.Name()] = res.Breakdown.CompressionTime(params)
	}
	if !(times["SFC"] < times["CFS"] && times["CFS"] < times["ED"]) {
		t.Errorf("compression ordering SFC %v < CFS %v < ED %v violated",
			times["SFC"], times["CFS"], times["ED"])
	}
}

func TestRemark4EDBeatsCFSOverall(t *testing.T) {
	g := sparse.UniformExact(48, 48, 0.1, 5)
	params := cost.DefaultParams
	for _, part := range partitionsFor(t, 48, 48, 4) {
		var ed, cfs time.Duration
		for _, s := range []Codec{ED{}, CFS{}} {
			m := newMachine(t, 4)
			res, err := distribute(s, m, g, part, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if s.Name() == "ED" {
				ed = res.Breakdown.TotalTime(params)
			} else {
				cfs = res.Breakdown.TotalTime(params)
			}
		}
		if ed >= cfs {
			t.Errorf("partition %s: ED total %v >= CFS total %v, violating Remark 4", part.Name(), ed, cfs)
		}
	}
}

func TestBreakdownWallTimesPopulated(t *testing.T) {
	g := sparse.Uniform(64, 64, 0.1, 6)
	part, _ := partition.NewRow(64, 64, 4)
	m := newMachine(t, 4)
	res, err := Run(m, Plan{Codec: ED{}, Global: g, Partition: part})
	if err != nil {
		t.Fatal(err)
	}
	bd := res.Breakdown
	if bd.WallRootComp <= 0 {
		t.Error("WallRootComp not measured")
	}
	if bd.WallDistribution() < bd.WallRootDist {
		t.Error("WallDistribution below root component")
	}
	if bd.WallCompression() < bd.WallRootComp {
		t.Error("WallCompression below root component")
	}
}

// TestVerifyDetectsCorruption: for every storage method, on a block
// and on a cyclic partition, Verify accepts what the engine produced
// and rejects it once one value, one index or one part's placement is
// wrong, or a part is missing.
func TestVerifyDetectsCorruption(t *testing.T) {
	g := sparse.Uniform(16, 16, 0.3, 8)
	row, _ := partition.NewRow(16, 16, 4)
	cyc, _ := partition.NewCyclicRow(16, 16, 4)
	for _, part := range []partition.Partition{row, cyc} {
		for _, method := range []Method{CRS, CCS, JDS} {
			fresh := func() *Result {
				res, err := Run(newMachine(t, 4), Plan{Codec: ED{}, Global: g, Partition: part, Options: Options{Method: method}})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			name := part.Name() + "/" + method.String()
			if err := Verify(g, part, fresh()); err != nil {
				t.Errorf("%s: intact result rejected: %v", name, err)
			}
			for what, corrupt := range map[string]func(*Result){
				"value": func(r *Result) {
					switch method {
					case CRS:
						r.LocalCRS[2].Val[0]++
					case CCS:
						r.LocalCCS[2].Val[0]++
					case JDS:
						r.LocalJDS[2].Val[0]++
					}
				},
				"moved nonzero": func(r *Result) { // still a valid array, of other cells
					g2 := g.Clone()
					i, j := part.RowMap(2)[0], part.ColMap(2)[0]
					g2.Set(i, j, 1-g2.At(i, j)) // flip one cell between zero and nonzero
					local := partition.Extract(g2, part, 2)
					switch method {
					case CRS:
						r.LocalCRS[2] = compress.CompressCRS(local, nil)
					case CCS:
						r.LocalCCS[2] = compress.CompressCCS(local, nil)
					case JDS:
						r.LocalJDS[2] = compress.CompressJDS(local, nil)
					}
				},
				"parts swapped": func(r *Result) {
					r.LocalCRS, r.LocalCCS, r.LocalJDS = swap01(r.LocalCRS), swap01(r.LocalCCS), swap01(r.LocalJDS)
				},
				"part missing": func(r *Result) {
					switch method {
					case CRS:
						r.LocalCRS[3] = nil
					case CCS:
						r.LocalCCS[3] = nil
					case JDS:
						r.LocalJDS[3] = nil
					}
				},
				"too few parts": func(r *Result) {
					r.LocalCRS, r.LocalCCS, r.LocalJDS = first3(r.LocalCRS), first3(r.LocalCCS), first3(r.LocalJDS)
				},
			} {
				res := fresh()
				corrupt(res)
				if err := Verify(g, part, res); err == nil {
					t.Errorf("%s: Verify accepted a result with %s", name, what)
				}
			}
		}
	}
	if err := Verify(g, row, nil); err == nil {
		t.Error("Verify accepted nil result")
	}
}

func first3[T any](s []T) []T { return s[:min(3, len(s))] }

func swap01[T any](s []T) []T {
	if len(s) > 1 {
		s[0], s[1] = s[1], s[0]
	}
	return s
}

func TestMethodString(t *testing.T) {
	if CRS.String() != "CRS" || CCS.String() != "CCS" {
		t.Errorf("Method.String: %q, %q", CRS, CCS)
	}
}

// TestSchemesLeaveTheInputUntouched pins the invariant SFC's row-block
// payloads rest on: they are views of the global array, so no encoder,
// transport or decoder may write into what it is handed. Every zero
// cell holds a negative zero, so even a write of 0 shows in the bits.
// The reliable stack duplicates and reorders frames beneath the ARQ.
func TestSchemesLeaveTheInputUntouched(t *testing.T) {
	const n, p = 24, 4
	g := sparse.UniformExact(n, n, 0.2, 11)
	data := g.Data()
	for i, v := range data {
		if v == 0 {
			data[i] = math.Copysign(0, -1)
		}
	}
	want := g.Clone().Data()
	balanced, err := partition.NewBalancedRowFromCounts(sparse.RowNNZ(g), g.Cols(), p)
	if err != nil {
		t.Fatal(err)
	}
	var parts []partition.Partition
	for _, desc := range []string{"(Block,*)", "(*,Block)", "(Block,Block)", "(Cyclic,*)"} {
		part, err := partition.Parse(desc, n, n, p)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
	parts = append(parts, balanced)
	transports := []struct {
		name    string
		machine func(t *testing.T) *machine.Machine
	}{
		{"chan", func(t *testing.T) *machine.Machine { return newMachine(t, p) }},
		{"tcp", func(t *testing.T) *machine.Machine {
			tr, err := machine.NewTCPTransport(p)
			if err != nil {
				t.Fatal(err)
			}
			m, err := machine.New(p, machine.WithTransport(tr), machine.WithRecvTimeout(10*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Close() })
			return m
		}},
		{"reliable", func(t *testing.T) *machine.Machine {
			m, ft, _ := faultyMachine(t, p, "chan")
			ft.DuplicateNext(2)
			ft.ReorderNext(2)
			return m
		}},
	}
	for _, c := range Schemes() {
		for _, part := range parts {
			for _, tr := range transports {
				t.Run(c.Name()+"/"+part.Name()+"/"+tr.name, func(t *testing.T) {
					_, err := distribute(c, tr.machine(t), g, part, Options{})
					for i, v := range data {
						if math.Float64bits(v) != math.Float64bits(want[i]) {
							copy(data, want) // the next run starts from the true input
							t.Fatalf("cell (%d,%d) holds %016x after the run, want %016x",
								i/n, i%n, math.Float64bits(v), math.Float64bits(want[i]))
						}
					}
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
