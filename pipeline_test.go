package repro

// End-to-end pipeline tests: each one drives a full user scenario
// through the public surface, as a caller of internal/core would, and
// asserts the results instead of printing them.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/redist"
	"repro/internal/sparse"
)

func TestPipelineQuickstart(t *testing.T) {
	g := sparse.UniformExact(200, 200, 0.1, 1)
	d, err := core.Distribute(g, core.Config{Scheme: "ED", Partition: "row", Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 200)
	for i := range x {
		x[i] = 1
	}
	y, _, err := d.SpMV(x)
	if err != nil {
		t.Fatal(err)
	}
	// sum(A·1) = sum of all nonzeros.
	sumY, sumA := 0.0, 0.0
	for _, v := range y {
		sumY += v
	}
	for i := 0; i < 200; i++ {
		for j := 0; j < 200; j++ {
			sumA += g.At(i, j)
		}
	}
	if diff := sumY - sumA; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("checksum mismatch: %g vs %g", sumY, sumA)
	}
}

func TestPipelineRedistribute(t *testing.T) {
	g := sparse.UniformExact(96, 96, 0.1, 2)
	row, err := partition.NewRow(96, 96, 4)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := partition.NewMesh(96, 96, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(4, machine.WithRecvTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Distribute, then redistribute the result onto a mesh and verify
	// against ground truth.
	res, err := dist.Run(m, dist.Plan{Codec: dist.CFS{}, Global: g, Partition: row})
	if err != nil {
		t.Fatal(err)
	}
	moved, _, err := redist.Redistribute(m, row, res, mesh)
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.Verify(g, mesh, moved); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineHBFileToSolver(t *testing.T) {
	// Write a Poisson system to a Harwell-Boeing buffer, read it back,
	// distribute it, and solve with CG — the full file-to-solution path.
	coo := sparse.Poisson2D(7) // 49x49 SPD
	var hb bytes.Buffer
	if err := sparse.WriteHB(&hb, coo, "poisson 7x7 grid", "POI7"); err != nil {
		t.Fatal(err)
	}
	src, err := sparse.NewHBStream(bytes.NewReader(hb.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sparse.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(coo.ToDense()) {
		t.Fatal("HB round trip changed the system")
	}

	d, err := core.Distribute(g, core.Config{Scheme: "CFS", Partition: "balanced-row", Procs: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	b := make([]float64, 49)
	b[24] = 1
	sol, err := d.CG(b, 1e-10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Fatalf("CG residual %g", sol.Residual)
	}
	// Check the solve: A·x ≈ b.
	ax, _, err := d.SpMV(sol.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if diff := ax[i] - b[i]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("residual at %d: %g", i, diff)
		}
	}
}
