package ops

import (
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

func newMachine(t *testing.T, p int) *machine.Machine {
	t.Helper()
	m, err := machine.New(p, machine.WithRecvTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestDistributedSpMVAllPartitions(t *testing.T) {
	g := sparse.Uniform(24, 24, 0.2, 17)
	x := vec(24, func(i int) float64 { return float64(i%7) - 3 })
	want := denseSpMV(g, x)

	mesh, _ := partition.NewMesh(24, 24, 2, 2)
	row, _ := partition.NewRow(24, 24, 4)
	col, _ := partition.NewCol(24, 24, 4)
	cyc, _ := partition.NewCyclicRow(24, 24, 4)

	for _, part := range []partition.Partition{row, col, mesh, cyc} {
		for _, method := range []dist.Method{dist.CRS, dist.CCS} {
			t.Run(part.Name()+"/"+method.String(), func(t *testing.T) {
				m := newMachine(t, 4)
				res, err := dist.Run(m, dist.Plan{Codec: dist.ED{}, Global: g, Partition: part, Options: dist.Options{Method: method}})
				if err != nil {
					t.Fatal(err)
				}
				y, err := DistributedSpMV(m, part, res, x)
				if err != nil {
					t.Fatal(err)
				}
				if !vecsEqual(y, want, 1e-9) {
					t.Errorf("distributed SpMV differs from dense reference")
				}
			})
		}
	}
}

func TestDistributedSpMVErrors(t *testing.T) {
	g := sparse.Uniform(8, 8, 0.3, 2)
	part, _ := partition.NewRow(8, 8, 2)
	m := newMachine(t, 2)
	res, err := dist.Run(m, dist.Plan{Codec: dist.SFC{}, Global: g, Partition: part})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DistributedSpMV(m, part, res, make([]float64, 5)); err == nil {
		t.Error("wrong x length accepted")
	}
	part4, _ := partition.NewRow(8, 8, 4)
	if _, err := DistributedSpMV(m, part4, res, make([]float64, 8)); err == nil {
		t.Error("mismatched part count accepted")
	}
	// Result without local arrays.
	bad := &dist.Result{Method: dist.CRS}
	if _, err := DistributedSpMV(m, part, bad, make([]float64, 8)); err == nil {
		t.Error("empty result accepted")
	}
}

func TestDistributedSpMVWithBalancedRow(t *testing.T) {
	// The balanced partitioner plugs into the whole stack unchanged.
	g := sparse.BlockClustered(30, 30, 6, 5, 0.9, 35)
	part, err := partition.NewBalancedRowFromCounts(sparse.RowNNZ(g), g.Cols(), 4)
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t, 4)
	res, err := dist.Run(m, dist.Plan{Codec: dist.ED{}, Global: g, Partition: part})
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.Verify(g, part, res); err != nil {
		t.Fatal(err)
	}
	x := vec(30, func(i int) float64 { return float64(i) })
	y, err := DistributedSpMV(m, part, res, x)
	if err != nil {
		t.Fatal(err)
	}
	if !vecsEqual(y, denseSpMV(g, x), 1e-9) {
		t.Error("balanced-row SpMV differs from dense reference")
	}
}
