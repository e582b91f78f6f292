package core

import (
	"testing"

	"repro/internal/spops"
)

// reportOpsSweep fails the test with every sweep failure (capped).
func reportOpsSweep(t *testing.T, name string, res *OpsSweepResult) {
	t.Helper()
	t.Logf("%s: %d runs, %d failures", name, res.Runs, len(res.Failures))
	for i, f := range res.Failures {
		if i >= 20 {
			t.Errorf("... and %d more failures", len(res.Failures)-20)
			return
		}
		t.Errorf("%s", f)
	}
}

// TestOpsSweep is the compute-layer differential harness: halo SpMV,
// Jacobi and row-fetch SpGEMM under the full scheme x partition x
// method matrix, each diffed against its sequential oracle. Short mode trims the method axis.
func TestOpsSweep(t *testing.T) {
	sc := OpsSweepConfig{}
	if testing.Short() {
		sc.Methods = []string{"CRS"}
	}
	reportOpsSweep(t, "ops sweep", OpsSweep(sc))
}

// TestDistributionOpsConvenience exercises the Distribution-level
// wrappers end to end on one distribution: the plan is built once and
// shared across SpMV and Jacobi calls.
func TestDistributionOpsConvenience(t *testing.T) {
	g := opsSweepInput("jacobi", 7)
	d, err := Distribute(g, Config{Scheme: "ED", Partition: "row", Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	pl1, err := d.CommPlan()
	if err != nil {
		t.Fatal(err)
	}
	pl2, _ := d.CommPlan()
	if pl1 != pl2 {
		t.Fatal("CommPlan rebuilt instead of cached")
	}

	x := make([]float64, g.Cols())
	for i := range x {
		x[i] = 1
	}
	y, st, err := spops.SpMV(d.m, pl1, x)
	if err != nil {
		t.Fatal(err)
	}
	if err := vecsClose("spmv", y, denseMatVec(g, x), 1e-9); err != nil {
		t.Fatal(err)
	}
	if st.WireWords <= 0 || st.Messages <= 0 {
		t.Fatalf("halo SpMV reported no traffic: %+v", st)
	}

	b := denseMatVec(g, x)
	sol, jst, err := d.Jacobi(b, 1e-12, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !jst.Converged {
		t.Fatalf("jacobi did not converge in %d iterations", jst.Iterations)
	}
	if err := vecsClose("jacobi", denseMatVec(g, sol), b, 1e-8); err != nil {
		t.Fatal(err)
	}
}
