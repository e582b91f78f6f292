package spops_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/sparse"
	"repro/internal/spops"
)

// denseMatVec is the sequential oracle y = G·x.
func denseMatVec(g *sparse.Dense, x []float64) []float64 {
	y := make([]float64, g.Rows())
	for i := 0; i < g.Rows(); i++ {
		s := 0.0
		for j := 0; j < g.Cols(); j++ {
			s += g.At(i, j) * x[j]
		}
		y[i] = s
	}
	return y
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

func vecClose(t *testing.T, got, want []float64, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol*(1+math.Abs(want[i])) {
			t.Fatalf("%s: entry %d = %g, want %g", label, i, got[i], want[i])
		}
	}
}

// distribute runs core.Distribute and builds the plan; the caller
// must Close the distribution.
func distribute(t testing.TB, g *sparse.Dense, cfg core.Config) (*core.Distribution, *spops.CommPlan) {
	t.Helper()
	d, err := core.Distribute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := spops.BuildCommPlan(d.Partition, d.Result)
	if err != nil {
		d.Close()
		t.Fatal(err)
	}
	return d, pl
}

// TestSpMVOracleMatrix verifies the halo-exchange SpMV element-wise
// against the dense mat-vec across every scheme x partition x method
// combination on a non-square array.
func TestSpMVOracleMatrix(t *testing.T) {
	g := sparse.Uniform(37, 29, 0.15, 42)
	x := randVec(29, 7)
	want := denseMatVec(g, x)
	for _, scheme := range []string{"SFC", "CFS", "ED"} {
		for _, part := range []string{"row", "col", "mesh", "cyclic-row"} {
			for _, method := range []string{"CRS", "CCS", "JDS"} {
				name := fmt.Sprintf("%s/%s/%s", scheme, part, method)
				t.Run(name, func(t *testing.T) {
					d, pl := distribute(t, g, core.Config{
						Scheme: scheme, Partition: part, Method: method, Procs: 4,
					})
					defer d.Close()
					y, st, err := spops.SpMV(d.Machine(), pl, x)
					if err != nil {
						t.Fatal(err)
					}
					vecClose(t, y, want, 1e-12, "SpMV")
					if st.WireWords <= 0 || st.Messages <= 0 {
						t.Fatalf("no traffic accounted: %+v", st)
					}
				})
			}
		}
	}
}

// TestSpMVDegenerate covers empty rows/columns, the zero matrix, and
// more processors than rows.
func TestSpMVDegenerate(t *testing.T) {
	cases := []struct {
		name string
		g    *sparse.Dense
		p    int
	}{
		{"zero", sparse.NewDense(9, 11), 3},
		{"diagonal", sparse.Diagonal(8, 2, 0, 3, 0, 5, 0, 7, 0), 4},
		{"more-procs-than-rows", sparse.Uniform(3, 12, 0.4, 5), 6},
		{"single-proc", sparse.Uniform(10, 10, 0.3, 9), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := randVec(tc.g.Cols(), 13)
			want := denseMatVec(tc.g, x)
			d, pl := distribute(t, tc.g, core.Config{Partition: "row", Procs: tc.p})
			defer d.Close()
			y, _, err := spops.SpMV(d.Machine(), pl, x)
			if err != nil {
				t.Fatal(err)
			}
			vecClose(t, y, want, 1e-12, "SpMV")
		})
	}
}

// TestPlanHaloBeatsBroadcast asserts the acceptance-criteria
// inequality at the plan level: on a banded array at s <= 0.1 the
// halo exchange moves strictly fewer words per sweep than the
// broadcast path.
func TestPlanHaloBeatsBroadcast(t *testing.T) {
	g := sparse.Banded(256, 256, 8, 0.8, 3) // s ≈ 0.05
	if r := g.SparseRatio(); r > 0.1 {
		t.Fatalf("banded test matrix too dense: s=%.3f", r)
	}
	for _, part := range []string{"row", "col", "mesh"} {
		t.Run(part, func(t *testing.T) {
			d, pl := distribute(t, g, core.Config{Partition: part, Procs: 4})
			defer d.Close()
			if pl.Stats.HaloWords >= pl.Stats.BcastWords {
				t.Fatalf("halo %d words >= broadcast %d words", pl.Stats.HaloWords, pl.Stats.BcastWords)
			}
			// The measured one-shot traffic must also beat broadcast +
			// gather with room to spare: scatter + halo + y-route +
			// gather <= 0.95 (n(p-1) + n); row reads 0.419, mesh 0.639.
			x := randVec(256, 1)
			_, st, err := spops.SpMV(d.Machine(), pl, x)
			if err != nil {
				t.Fatal(err)
			}
			bcastTotal := pl.Stats.BcastWords + 256
			if float64(st.WireWords) > 0.95*float64(bcastTotal) {
				t.Fatalf("measured %d words > 0.95 x broadcast-path %d", st.WireWords, bcastTotal)
			}
		})
	}
}

// sentWords runs fn with a cleared simnet recorder and returns the
// payload words of every message the machine sent meanwhile.
func sentWords(t *testing.T, d *core.Distribution, fn func() error) int {
	t.Helper()
	net := d.Machine().Network()
	net.Reset()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	words := 0
	for _, e := range net.Finalize().Events {
		if e.Kind == simnet.EvSend {
			words += e.Words
		}
	}
	return words
}

// TestMeshTrafficPin pins the 2-D layout argument (Eckstein &
// Mátyásfalvi, arXiv:1812.00904) the broadcast generation was retired
// on: on a pr x pc mesh partition the halo SpMV moves O(n/√p) words
// per rank — within 1.10x of the closed form n·(pr+pc) of the classic
// column-broadcast/row-reduce algorithm — and never more than the
// root-broadcast reference on the same machine. Both sides are
// measured from simnet-recorded sends.
func TestMeshTrafficPin(t *testing.T) {
	cases := []struct {
		name   string
		g      *sparse.Dense
		pr, pc int
	}{
		{"uniform-s0.1-n256-2x2", sparse.Uniform(256, 256, 0.1, 1), 2, 2},
		{"uniform-s0.1-n256-4x4", sparse.Uniform(256, 256, 0.1, 1), 4, 4},
		{"uniform-s0.01-n1000-4x4", sparse.Uniform(1000, 1000, 0.01, 1), 4, 4},
		{"banded-bw3-n1024-4x4", sparse.Banded(1024, 1024, 3, 1, 1), 4, 4},
		{"banded-bw3-n2000-2x2", sparse.Banded(2000, 2000, 3, 1, 1), 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.Rows()
			d, pl := distribute(t, tc.g, core.Config{
				Scheme: "ED", Partition: "mesh", MeshRows: tc.pr, MeshCols: tc.pc,
				Procs: tc.pr * tc.pc, Topology: "uniform",
			})
			defer d.Close()
			x := randVec(n, 3)
			halo := sentWords(t, d, func() error {
				y, _, err := spops.SpMV(d.Machine(), pl, x)
				if err == nil {
					vecClose(t, y, denseMatVec(tc.g, x), 1e-12, "halo SpMV")
				}
				return err
			})
			bcast := sentWords(t, d, func() error {
				_, err := ops.DistributedSpMV(d.Machine(), d.Partition, d.Result, x)
				return err
			})
			closed := n * (tc.pr + tc.pc)
			t.Logf("halo %d words, broadcast %d, closed form n(pr+pc) = %d", halo, bcast, closed)
			if float64(halo) > 1.10*float64(closed) {
				t.Errorf("halo SpMV moved %d words > 1.10 x n(pr+pc) = %d", halo, closed)
			}
			if halo > bcast {
				t.Errorf("halo SpMV moved %d words > broadcast reference %d", halo, bcast)
			}
		})
	}
}

// TestJacobiSolves checks the resident-segment Jacobi against a
// diagonally dominant system across partitions and methods.
func TestJacobiSolves(t *testing.T) {
	n := 48
	g := sparse.Uniform(n, n, 0.08, 21).Clone()
	for i := 0; i < n; i++ {
		// Make the system strictly diagonally dominant.
		sum := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				sum += math.Abs(g.At(i, j))
			}
		}
		g.Set(i, i, sum+1)
	}
	b := randVec(n, 99)
	for _, part := range []string{"row", "col", "mesh", "cyclic-row"} {
		for _, method := range []string{"CRS", "CCS", "JDS"} {
			t.Run(part+"/"+method, func(t *testing.T) {
				d, pl := distribute(t, g, core.Config{Partition: part, Method: method, Procs: 4})
				defer d.Close()
				x, st, err := spops.Jacobi(d.Machine(), pl, b, nil, 1e-12, 500)
				if err != nil {
					t.Fatal(err)
				}
				if !st.Converged {
					t.Fatalf("did not converge in %d iterations", st.Iterations)
				}
				vecClose(t, denseMatVec(g, x), b, 1e-8, "A·x")
			})
		}
	}
}

// TestDistSpGEMMOracle verifies the row-fetch SpGEMM element-wise
// against the sequential Gustavson kernel.
func TestDistSpGEMMOracle(t *testing.T) {
	ga := sparse.Uniform(30, 24, 0.15, 11)
	gb := sparse.Uniform(24, 18, 0.2, 12)
	bcrs := compress.CompressCRS(gb, nil)
	want, err := ops.SpGEMM(compress.CompressCRS(ga, nil), bcrs)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"SFC", "CFS", "ED"} {
		for _, part := range []string{"row", "col", "mesh", "cyclic-row"} {
			for _, method := range []string{"CRS", "CCS", "JDS"} {
				t.Run(scheme+"/"+part+"/"+method, func(t *testing.T) {
					d, pl := distribute(t, ga, core.Config{
						Scheme: scheme, Partition: part, Method: method, Procs: 4,
					})
					defer d.Close()
					c, st, err := spops.DistSpGEMM(d.Machine(), pl, bcrs)
					if err != nil {
						t.Fatal(err)
					}
					assertCRSEqual(t, c, want)
					if st.WireWords <= 0 {
						t.Fatalf("no traffic accounted: %+v", st)
					}
				})
			}
		}
	}
}

// TestPlanReuse executes the same plan several times on one machine
// (the server's cache pattern) and checks results stay correct.
func TestPlanReuse(t *testing.T) {
	g := sparse.Uniform(20, 20, 0.2, 41)
	d, pl := distribute(t, g, core.Config{Partition: "row", Procs: 4})
	defer d.Close()
	for it := 0; it < 3; it++ {
		x := randVec(20, int64(100+it))
		y, _, err := spops.SpMV(d.Machine(), pl, x)
		if err != nil {
			t.Fatal(err)
		}
		vecClose(t, y, denseMatVec(g, x), 1e-12, "reused plan SpMV")
	}
}

// TestSimnetRecordsOps checks that op traffic lands in the network
// timeline when a topology is attached.
func TestSimnetRecordsOps(t *testing.T) {
	g := sparse.Uniform(24, 24, 0.15, 51)
	d, pl := distribute(t, g, core.Config{Partition: "row", Procs: 4, Topology: "star"})
	defer d.Close()
	base := d.NetTimeline().Makespan
	x := randVec(24, 5)
	if _, _, err := spops.SpMV(d.Machine(), pl, x); err != nil {
		t.Fatal(err)
	}
	after := d.NetTimeline().Makespan
	if after <= base {
		t.Fatalf("SpMV traffic not recorded: makespan %v -> %v", base, after)
	}
}

// TestSimnetLedgerParity holds the op layer's two ledgers to each
// other on the uniform topology: for SpMV, Jacobi and DistSpGEMM the
// compute recorded across ranks is T_Operation times OpStats.Ops, and
// the words recorded on data tags (collectives' control tags are
// negative and off the counters) are OpStats.WireWords.
func TestSimnetLedgerParity(t *testing.T) {
	const n = 48
	g := sparse.Banded(n, n, 4, 0.8, 9)
	sparse.MakeDiagDominant(g)
	runs := []struct {
		name string
		run  func(*core.Distribution, *spops.CommPlan) (spops.OpStats, error)
	}{
		{"spmv", func(d *core.Distribution, pl *spops.CommPlan) (spops.OpStats, error) {
			_, st, err := spops.SpMV(d.Machine(), pl, randVec(n, 1))
			return st, err
		}},
		{"jacobi", func(d *core.Distribution, pl *spops.CommPlan) (spops.OpStats, error) {
			_, st, err := spops.Jacobi(d.Machine(), pl, randVec(n, 2), nil, 0, 5)
			return st, err
		}},
		{"spgemm", func(d *core.Distribution, pl *spops.CommPlan) (spops.OpStats, error) {
			_, st, err := spops.DistSpGEMM(d.Machine(), pl, compress.CompressCRS(g, nil))
			return st, err
		}},
	}
	for _, part := range []string{"row", "mesh"} {
		for _, r := range runs {
			t.Run(part+"/"+r.name, func(t *testing.T) {
				d, pl := distribute(t, g, core.Config{Partition: part, Procs: 4, Topology: "uniform"})
				defer d.Close()
				// recorded sums the replay's rank compute and data-tag
				// words; the op's share is what it adds to the run's.
				recorded := func() (comp time.Duration, words int) {
					tl := d.NetTimeline()
					for _, busy := range tl.Busy {
						comp += busy[simnet.ClassRankComp]
					}
					for _, e := range tl.Events {
						if e.Kind == simnet.EvSend && e.Tag >= 0 {
							words += e.Words
						}
					}
					return comp, words
				}
				comp0, words0 := recorded()
				st, err := r.run(d, pl)
				if err != nil {
					t.Fatal(err)
				}
				comp, words := recorded()
				comp, words = comp-comp0, words-words0
				if st.Ops == 0 || st.WireWords == 0 {
					t.Fatalf("op booked nothing: %+v", st)
				}
				if want := time.Duration(st.Ops) * d.Params.TOperation; comp != want {
					t.Errorf("recorded compute %v, want %d ops × T_Operation = %v", comp, st.Ops, want)
				}
				if words != st.WireWords {
					t.Errorf("recorded %d words on data tags, OpStats.WireWords %d", words, st.WireWords)
				}
			})
		}
	}
}

// assertCRSEqual compares two CRS matrices element-wise via dense
// reconstruction (structural layouts may differ in explicit zeros).
func assertCRSEqual(t *testing.T, got, want *compress.CRS) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	gd := densify(got)
	wd := densify(want)
	for i := range gd {
		if math.Abs(gd[i]-wd[i]) > 1e-10*(1+math.Abs(wd[i])) {
			t.Fatalf("C[%d/%d] = %g, want %g", i/got.Cols, i%got.Cols, gd[i], wd[i])
		}
	}
}

func densify(c *compress.CRS) []float64 {
	d := make([]float64, c.Rows*c.Cols)
	for i := 0; i < c.Rows; i++ {
		for idx := c.RowPtr[i]; idx < c.RowPtr[i+1]; idx++ {
			d[i*c.Cols+c.ColIdx[idx]] += c.Val[idx]
		}
	}
	return d
}
