package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sparse"
)

func TestDistributeDefaults(t *testing.T) {
	g := sparse.Uniform(32, 32, 0.1, 1)
	d, err := Distribute(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Result.Scheme != "ED" || d.Result.Partition != "row" {
		t.Errorf("defaults = %s/%s, want ED/row", d.Result.Scheme, d.Result.Partition)
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	if d.DistributionTime() <= 0 || d.CompressionTime() <= 0 {
		t.Error("virtual times not populated")
	}
}

func TestDistributeAllConfigCombos(t *testing.T) {
	g := sparse.Uniform(24, 24, 0.15, 2)
	for _, scheme := range []string{"SFC", "CFS", "ED"} {
		for _, part := range []string{"row", "col", "mesh", "cyclic-row", "cyclic-col", "brs", "cyclic-mesh"} {
			for _, method := range []string{"CRS", "CCS"} {
				d, err := Distribute(g, Config{Scheme: scheme, Partition: part, Method: method, Procs: 4, BlockSize: 2})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", scheme, part, method, err)
				}
				if err := d.Verify(); err != nil {
					t.Fatalf("%s/%s/%s: %v", scheme, part, method, err)
				}
				d.Close()
			}
		}
	}
}

func TestDistributeTCP(t *testing.T) {
	g := sparse.Uniform(16, 16, 0.2, 3)
	d, err := Distribute(g, Config{Transport: "tcp", Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDistributeSpMV(t *testing.T) {
	g := sparse.Uniform(20, 20, 0.25, 4)
	d, err := Distribute(g, Config{Partition: "mesh", MeshRows: 2, MeshCols: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	x := make([]float64, 20)
	for i := range x {
		x[i] = float64(i)
	}
	y, _, err := d.SpMV(x)
	if err != nil {
		t.Fatal(err)
	}
	// Dense reference.
	for i := 0; i < 20; i++ {
		want := 0.0
		for j := 0; j < 20; j++ {
			want += g.At(i, j) * x[j]
		}
		if diff := y[i] - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("y[%d] = %g, want %g", i, y[i], want)
		}
	}
}

func TestDistributeCG(t *testing.T) {
	g := sparse.Poisson2D(5).ToDense() // 25x25 SPD
	d, err := Distribute(g, Config{Procs: 5, Scheme: "CFS"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	b := make([]float64, 25)
	b[12] = 1
	sol, err := d.CG(b, 1e-10, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Fatalf("CG residual %g after %d iterations", sol.Residual, sol.Iterations)
	}
	if _, err := d.CG(make([]float64, 24), 1e-6, 5); err == nil {
		t.Error("wrong b length accepted")
	}
	rect, err := Distribute(sparse.Uniform(6, 4, 0.5, 3), Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rect.Close()
	if _, err := rect.CG(make([]float64, 6), 1e-6, 5); err == nil {
		t.Error("non-square system accepted")
	}
}

func TestConfigErrors(t *testing.T) {
	g := sparse.Uniform(8, 8, 0.2, 5)
	cases := []Config{
		{Scheme: "NOPE"},
		{Partition: "diagonal"},
		{Method: "LZ77"},
		{Transport: "carrier-pigeon"},
	}
	for _, cfg := range cases {
		if _, err := Distribute(g, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestReportContents(t *testing.T) {
	g := sparse.Uniform(16, 16, 0.1, 6)
	d, err := Distribute(g, Config{Scheme: "ED", Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rep := d.Report()
	for _, want := range []string{"scheme ED", "T_Distribution", "T_Compression", "messages"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestDistributeJDSMethod(t *testing.T) {
	g := sparse.Uniform(24, 24, 0.2, 12)
	d, err := Distribute(g, Config{Method: "JDS", Scheme: "CFS", Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(d.Result.LocalJDS) != 4 {
		t.Fatalf("LocalJDS has %d entries", len(d.Result.LocalJDS))
	}
	// SpMV works straight off the JDS locals.
	x := make([]float64, 24)
	for i := range x {
		x[i] = float64(i)
	}
	y, _, err := d.SpMV(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		want := 0.0
		for j := 0; j < 24; j++ {
			want += g.At(i, j) * x[j]
		}
		if diff := y[i] - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("y[%d] = %g, want %g", i, y[i], want)
		}
	}
}

func TestDistributeHPFDescriptor(t *testing.T) {
	g := sparse.Uniform(16, 16, 0.2, 10)
	d, err := Distribute(g, Config{Partition: "(Block,Block)", Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Result.Partition != "mesh2x2" {
		t.Errorf("descriptor produced %q, want mesh2x2", d.Result.Partition)
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := Distribute(g, Config{Partition: "(*,*)"}); err == nil {
		t.Error("degenerate descriptor accepted")
	}
}

func TestDistributeBalancedRow(t *testing.T) {
	g := sparse.BlockClustered(32, 32, 5, 6, 0.9, 11)
	d, err := Distribute(g, Config{Partition: "balanced-row", Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	if d.Result.Partition != "balanced-row" {
		t.Errorf("partition = %q", d.Result.Partition)
	}
}

func TestMeshDefaultsToSquareGrid(t *testing.T) {
	g := sparse.Uniform(12, 12, 0.2, 7)
	d, err := Distribute(g, Config{Partition: "mesh", Procs: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Partition.NumParts() != 6 {
		t.Errorf("parts = %d, want 6", d.Partition.NumParts())
	}
	if d.Result.Partition != "mesh2x3" {
		t.Errorf("partition name = %q, want mesh2x3", d.Result.Partition)
	}
}

func TestDistributeRecoversFromInjectedFaults(t *testing.T) {
	g := sparse.Uniform(32, 32, 0.15, 3)
	d, err := Distribute(g, Config{
		Scheme:       "ED",
		Procs:        4,
		Retries:      6,
		RetryBackoff: 2 * time.Millisecond,
		FaultDrops:   3,
		FaultCorrupt: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	st, ok := d.ReliableStats()
	if !ok {
		t.Fatal("reliability stats missing despite Retries > 0")
	}
	if st.Retransmits < 3 {
		t.Errorf("retransmits = %d, want >= 3", st.Retransmits)
	}
	if fs, ok := d.FaultStats(); !ok || fs.Dropped != 3 {
		t.Errorf("fault stats = %+v ok=%v, want 3 drops consumed", fs, ok)
	}
	if !strings.Contains(d.Report(), "reliability:") {
		t.Error("report missing reliability line")
	}
}
