package costmodel

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/simnet"
	"repro/internal/sparse"
)

func TestPredictAllOrderedOrder(t *testing.T) {
	in := Inputs{N: 200, P: 4, S: 0.1, Kind: RowPart, Method: CRS}
	ordered, err := PredictAllOrdered(in, cost.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(ordered) != len(Schemes) {
		t.Fatalf("got %d estimates, want %d", len(ordered), len(Schemes))
	}
	for i, want := range Schemes {
		if ordered[i].Scheme != want {
			t.Errorf("position %d: scheme %q, want %q", i, ordered[i].Scheme, want)
		}
	}
}

// TestSelectDeterministic is the satellite-1 determinism contract: 100
// selections over the same inputs must produce byte-identical winners —
// a tie broken by map iteration order would flicker across runs.
func TestSelectDeterministic(t *testing.T) {
	arrays := []*sparse.Dense{
		sparse.Uniform(120, 120, 0.05, 7),
		sparse.Banded(90, 90, 3, 0.9, 2),
		sparse.Uniform(64, 256, 0.2, 11),
		// Fully uniform density: many candidates tie closely.
		sparse.Uniform(50, 50, 0.5, 3),
	}
	for ai, g := range arrays {
		st := MeasureStats(g)
		first, err := Select(st, SelectOptions{Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			got, err := Select(st, SelectOptions{Procs: 4})
			if err != nil {
				t.Fatal(err)
			}
			if got.Scheme != first.Scheme || got.Kind != first.Kind ||
				got.Method != first.Method || got.Workers != first.Workers ||
				got.Predicted != first.Predicted {
				t.Fatalf("array %d run %d: winner (%s,%v,%v,%d) != first (%s,%v,%v,%d)",
					ai, i, got.Scheme, got.Kind, got.Method, got.Workers,
					first.Scheme, first.Kind, first.Method, first.Workers)
			}
			if len(got.Ranked) != len(first.Ranked) {
				t.Fatalf("array %d run %d: ranking length changed", ai, i)
			}
			for k := range got.Ranked {
				if got.Ranked[k] != first.Ranked[k] {
					t.Fatalf("array %d run %d: ranking entry %d changed", ai, i, k)
				}
			}
		}
	}
}

func TestBestSchemeDeterministic(t *testing.T) {
	// BestScheme ties (if any) must break toward the canonical order,
	// identically on every call.
	in := Inputs{N: 100, P: 4, S: 0.1, Kind: RowPart, Method: CRS}
	first, _, err := BestScheme(in, cost.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		got, _, err := BestScheme(in, cost.DefaultParams)
		if err != nil {
			t.Fatal(err)
		}
		if got != first {
			t.Fatalf("run %d: BestScheme %q != first %q", i, got, first)
		}
	}
}

func TestSelectDegenerateDefaults(t *testing.T) {
	for _, st := range []ArrayStats{
		{},
		{Rows: 5, Cols: 5}, // no nonzeros
		{Rows: 0, Cols: 9, NNZ: 0},
	} {
		c, err := Select(st, SelectOptions{Procs: 4})
		if err != nil {
			t.Fatalf("stats %+v: %v", st, err)
		}
		if c.Scheme != "ED" || c.Kind != RowPart || c.Method != CRS || c.Workers != 1 {
			t.Errorf("stats %+v: default choice = (%s,%v,%v,%d), want (ED,row,CRS,1)",
				st, c.Scheme, c.Kind, c.Method, c.Workers)
		}
	}
	// Pins survive the degenerate default.
	kind, method := ColPart, CCS
	c, err := Select(ArrayStats{}, SelectOptions{Procs: 4, Kind: &kind, Method: &method})
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != ColPart || c.Method != CCS {
		t.Errorf("pinned degenerate choice = (%v,%v), want (col,CCS)", c.Kind, c.Method)
	}
}

func TestSelectPinning(t *testing.T) {
	g := sparse.Uniform(100, 100, 0.1, 1)
	st := MeasureStats(g)
	kind := MeshPart
	method := CCS
	c, err := Select(st, SelectOptions{Procs: 4, Kind: &kind, Method: &method})
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != MeshPart || c.Method != CCS {
		t.Errorf("pinned choice = (%v,%v), want (mesh,CCS)", c.Kind, c.Method)
	}
	// Only schemes were free: 3 candidates, all mesh/CCS.
	if len(c.Ranked) != 3 {
		t.Errorf("pinned ranking has %d candidates, want 3", len(c.Ranked))
	}
	for _, cand := range c.Ranked {
		if cand.Kind != MeshPart || cand.Method != CCS {
			t.Errorf("candidate %+v escaped the pins", cand)
		}
	}
	// Fully free: 3 kinds x 2 methods x 3 schemes.
	free, err := Select(st, SelectOptions{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(free.Ranked) != 18 {
		t.Errorf("free ranking has %d candidates, want 18", len(free.Ranked))
	}
}

func TestSelectTopologyMismatch(t *testing.T) {
	top, err := simnet.Build("star", 8, cost.DefaultParams, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := MeasureStats(sparse.Uniform(50, 50, 0.1, 1))
	if _, err := Select(st, SelectOptions{Procs: 4, Topology: top}); err == nil {
		t.Error("rank/procs mismatch accepted")
	}
	if _, err := Select(st, SelectOptions{Procs: 8, Topology: top}); err != nil {
		t.Errorf("matching topology rejected: %v", err)
	}
}

func TestSelectTopologyMovesWinner(t *testing.T) {
	// The EXPERIMENTS.md regime: flat model picks SFC at n=400 p=4
	// s=0.1 row/CRS; a 1e6 words/s star must pick a leaner-wire scheme.
	g := sparse.UniformExact(400, 400, 0.1, 1)
	st := MeasureStats(g)
	kind := RowPart
	method := CRS
	flat, err := Select(st, SelectOptions{Procs: 4, Kind: &kind, Method: &method})
	if err != nil {
		t.Fatal(err)
	}
	if flat.Scheme != "SFC" {
		t.Fatalf("flat winner = %s, want SFC (the documented regime)", flat.Scheme)
	}
	top, err := simnet.Build("star", 4, cost.DefaultParams, 1e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	starved, err := Select(st, SelectOptions{Procs: 4, Kind: &kind, Method: &method, Topology: top})
	if err != nil {
		t.Fatal(err)
	}
	if starved.Scheme == "SFC" {
		t.Error("bandwidth-starved star still picks SFC")
	}
}

func TestMeasureStats(t *testing.T) {
	g := sparse.NewDense(4, 6)
	g.Set(0, 0, 1)
	g.Set(1, 3, 2)
	g.Set(3, 1, 3)
	st := MeasureStats(g)
	if st.Rows != 4 || st.Cols != 6 || st.NNZ != 3 {
		t.Fatalf("stats %+v", st)
	}
	if st.RowCounts[1] != 1 || st.ColCounts[3] != 1 || st.ColCounts[0] != 1 {
		t.Errorf("histograms wrong: %+v", st)
	}
	if st.Bandwidth != 2 { // |1-3| = 2 and |3-1| = 2 dominate
		t.Errorf("bandwidth = %d, want 2", st.Bandwidth)
	}
	if s := st.S(); s != 3.0/24 {
		t.Errorf("S() = %g", s)
	}
}

func TestMaxBlockRatio(t *testing.T) {
	// 4 rows of 10 cols in 2 blocks: block 0 has 12 nnz over 20 cells,
	// block 1 has 2 over 20.
	counts := []int{10, 2, 1, 1}
	if got := maxBlockRatio(counts, 2, 10); got != 0.6 {
		t.Errorf("maxBlockRatio = %g, want 0.6", got)
	}
	// p > len(counts): per-line blocks.
	if got := maxBlockRatio([]int{5, 0}, 7, 10); got != 0.5 {
		t.Errorf("maxBlockRatio p>rows = %g, want 0.5", got)
	}
	if got := maxBlockRatio(nil, 4, 10); got != 0 {
		t.Errorf("empty counts = %g, want 0", got)
	}
}

func TestKindForAndMethodFor(t *testing.T) {
	cases := map[string]PartitionKind{
		"row": RowPart, "cyclic-row": RowPart, "brs": RowPart, "balanced-row": RowPart,
		"col": ColPart, "cyclic-col": ColPart,
		"mesh": MeshPart, "cyclic-mesh": MeshPart,
		"(Block,*)": RowPart, "(*,Block)": ColPart, "(Block,Block)": MeshPart,
		"(Cyclic(2),*)": RowPart, "": RowPart,
	}
	for name, want := range cases {
		if got := KindFor(name); got != want {
			t.Errorf("KindFor(%q) = %v, want %v", name, got, want)
		}
	}
	if MethodFor("CCS") != CCS || MethodFor("ccs") != CCS {
		t.Error("MethodFor CCS wrong")
	}
	if MethodFor("CRS") != CRS || MethodFor("JDS") != CRS || MethodFor("") != CRS {
		t.Error("MethodFor CRS/JDS fallback wrong")
	}
}
