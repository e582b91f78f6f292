package redist

import (
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/sparse"
)

func newMachine(t testing.TB, p int) *machine.Machine {
	t.Helper()
	m, err := machine.New(p, machine.WithRecvTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestLocatorAgreesWithBruteForce(t *testing.T) {
	parts := []partition.Partition{}
	if p, err := partition.NewRow(13, 9, 4); err == nil {
		parts = append(parts, p)
	}
	if p, err := partition.NewMesh(13, 9, 2, 3); err == nil {
		parts = append(parts, p)
	}
	if p, err := partition.NewCyclicRow(13, 9, 3); err == nil {
		parts = append(parts, p)
	}
	if p, err := partition.NewBlockCyclicRow(13, 9, 2, 3); err == nil {
		parts = append(parts, p)
	}
	for _, part := range parts {
		loc, err := partition.NewLocator(part)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force ownership.
		for i := 0; i < 13; i++ {
			for j := 0; j < 9; j++ {
				want := -1
				for k := 0; k < part.NumParts(); k++ {
					if contains(part.RowMap(k), i) && contains(part.ColMap(k), j) {
						want = k
						break
					}
				}
				got, err := loc.Owner(i, j)
				if err != nil || got != want {
					t.Fatalf("%s: Owner(%d, %d) = %d, %v; want %d", part.Name(), i, j, got, err, want)
				}
			}
		}
		if _, err := loc.Owner(-1, 0); err == nil {
			t.Error("out-of-range cell accepted")
		}
	}
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestRedistributeRowToMesh(t *testing.T) {
	g := sparse.Uniform(24, 24, 0.15, 5)
	row, _ := partition.NewRow(24, 24, 4)
	mesh, _ := partition.NewMesh(24, 24, 2, 2)

	m := newMachine(t, 4)
	src, err := dist.Run(m, dist.Plan{Codec: dist.ED{}, Global: g, Partition: row})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := Redistribute(m, row, src, mesh)
	if err != nil {
		t.Fatal(err)
	}
	// The redistributed result must equal a direct distribution onto the
	// mesh partition.
	if err := dist.Verify(g, mesh, got); err != nil {
		t.Fatal(err)
	}
	if stats.Time(cost.DefaultParams) <= 0 {
		t.Error("stats empty")
	}
	if stats.Wall <= 0 {
		t.Error("wall time not measured")
	}
}

// TestRedistributeRecordsItsCompute: on a machine with a network
// model, a redistribution's replay carries its compute, not only its
// sends. Each rank's compute on the uniform timeline is exactly the
// virtual time of the operations Stats books for it.
func TestRedistributeRecordsItsCompute(t *testing.T) {
	const p = 4
	g := sparse.Uniform(24, 24, 0.15, 5)
	row, _ := partition.NewRow(24, 24, p)
	mesh, _ := partition.NewMesh(24, 24, 2, 2)
	top, err := simnet.Build("uniform", p, cost.DefaultParams, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.NewNetwork(top, cost.DefaultParams)
	m, err := machine.New(p, machine.WithRecvTimeout(10*time.Second), machine.WithNetwork(net))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	src, err := dist.Run(m, dist.Plan{Codec: dist.ED{}, Global: g, Partition: row})
	if err != nil {
		t.Fatal(err)
	}
	net.Reset()
	_, stats, err := Redistribute(m, row, src, mesh)
	if err != nil {
		t.Fatal(err)
	}
	tl := net.Finalize()
	for r := 0; r < p; r++ {
		want := cost.DefaultParams.Time(cost.Counter{Ops: stats.PerRank[r].Ops})
		if want == 0 {
			t.Fatalf("rank %d booked no operations", r)
		}
		if got := tl.Busy[r][simnet.ClassRankComp]; got != want {
			t.Errorf("rank %d: replayed compute %v, want %v (%d ops)", r, got, want, stats.PerRank[r].Ops)
		}
	}
}

func TestRedistributeAllPairs(t *testing.T) {
	g := sparse.Uniform(20, 20, 0.2, 6)
	row, _ := partition.NewRow(20, 20, 4)
	col, _ := partition.NewCol(20, 20, 4)
	mesh, _ := partition.NewMesh(20, 20, 2, 2)
	cyc, _ := partition.NewCyclicRow(20, 20, 4)
	all := []partition.Partition{row, col, mesh, cyc}

	for _, from := range all {
		for _, to := range all {
			for _, method := range []dist.Method{dist.CRS, dist.CCS} {
				t.Run(from.Name()+"->"+to.Name()+"/"+method.String(), func(t *testing.T) {
					m := newMachine(t, 4)
					src, err := dist.Run(m, dist.Plan{Codec: dist.CFS{}, Global: g, Partition: from, Options: dist.Options{Method: method}})
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := Redistribute(m, from, src, to)
					if err != nil {
						t.Fatal(err)
					}
					if err := dist.Verify(g, to, got); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

func TestRedistributeIdentityIsLossless(t *testing.T) {
	g := sparse.Uniform(16, 16, 0.25, 7)
	row, _ := partition.NewRow(16, 16, 4)
	m := newMachine(t, 4)
	src, err := dist.Run(m, dist.Plan{Codec: dist.SFC{}, Global: g, Partition: row})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Redistribute(m, row, src, row)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if !got.LocalCRS[k].Equal(src.LocalCRS[k]) {
			t.Errorf("identity redistribution changed rank %d", k)
		}
	}
}

func TestRedistributeErrors(t *testing.T) {
	g := sparse.Uniform(12, 12, 0.2, 8)
	row, _ := partition.NewRow(12, 12, 4)
	other, _ := partition.NewRow(10, 12, 4)
	m := newMachine(t, 4)
	src, err := dist.Run(m, dist.Plan{Codec: dist.ED{}, Global: g, Partition: row})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Redistribute(m, row, src, other); err == nil {
		t.Error("shape mismatch accepted")
	}
	sixRow, _ := partition.NewRow(12, 12, 6)
	if _, _, err := Redistribute(m, row, src, sixRow); err == nil {
		t.Error("part count mismatch accepted")
	}
	if _, _, err := Redistribute(m, row, nil, row); err == nil {
		t.Error("nil source accepted")
	}
	empty := &dist.Result{Method: dist.CRS}
	if _, _, err := Redistribute(m, row, empty, row); err == nil {
		t.Error("empty source accepted")
	}
}

func TestRedistributeEmptyParts(t *testing.T) {
	// p > rows: some parts own nothing in both partitions.
	g := sparse.Uniform(3, 10, 0.4, 9)
	rowA, _ := partition.NewRow(3, 10, 5)
	colB, _ := partition.NewCol(3, 10, 5)
	m := newMachine(t, 5)
	src, err := dist.Run(m, dist.Plan{Codec: dist.ED{}, Global: g, Partition: rowA})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Redistribute(m, rowA, src, colB)
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.Verify(g, colB, got); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRedistribute measures direct row->mesh redistribution against
// a fresh ED distribution onto the mesh (the naive root path, without
// even charging the gather it would also need). vredist-ms is the
// virtual clock's figure for one op.
func BenchmarkRedistribute(b *testing.B) {
	g := sparse.UniformExact(480, 480, 0.1, 11)
	row, _ := partition.NewRow(480, 480, 4)
	mesh, _ := partition.NewMesh(480, 480, 2, 2)
	m := newMachine(b, 4)
	src, err := dist.Run(m, dist.Plan{Codec: dist.ED{}, Global: g, Partition: row})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("direct-alltoall", func(b *testing.B) {
		var virt time.Duration
		for i := 0; i < b.N; i++ {
			_, stats, err := Redistribute(m, row, src, mesh)
			if err != nil {
				b.Fatal(err)
			}
			virt = stats.Time(cost.DefaultParams)
		}
		b.ReportMetric(float64(virt)/1e6, "vredist-ms")
	})
	b.Run("via-root", func(b *testing.B) {
		var bd *dist.Breakdown
		for i := 0; i < b.N; i++ {
			res, err := dist.Run(m, dist.Plan{Codec: dist.ED{}, Global: g, Partition: mesh})
			if err != nil {
				b.Fatal(err)
			}
			bd = res.Breakdown
		}
		b.ReportMetric(float64(bd.DistributionTime(cost.DefaultParams)+bd.CompressionTime(cost.DefaultParams))/1e6, "vredist-ms")
	})
}
