package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sparse"
)

// TestDistributeStreamMatchesDistribute: the one-call streaming API
// must produce the same local arrays and virtual counters as the
// materializing one-call API, including for the balanced partition
// whose streamed plan comes from a counting pass.
func TestDistributeStreamMatchesDistribute(t *testing.T) {
	g := sparse.Uniform(40, 40, 0.2, 17)
	coo := sparse.FromDense(g)
	for _, part := range []string{"row", "balanced-row"} {
		for _, scheme := range []string{"SFC", "CFS", "ED"} {
			t.Run(scheme+"/"+part, func(t *testing.T) {
				cfg := Config{Scheme: scheme, Partition: part, Procs: 4, Method: "CRS"}
				want, err := Distribute(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer want.Close()

				cfg.MemBudget = 4096
				d, err := DistributeStream(sparse.NewStreamCOO(coo, 37), cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				if !d.Streamed {
					t.Error("Streamed flag not set")
				}
				if d.Global != nil {
					t.Error("streamed distribution retained a global array")
				}
				if err := d.VerifyAgainst(g); err != nil {
					t.Errorf("verify: %v", err)
				}
				if err := d.DiffCheckAgainst(g); err != nil {
					t.Errorf("diff check: %v", err)
				}
				if d.Partition.Name() != want.Partition.Name() {
					t.Errorf("partition %s, want %s", d.Partition.Name(), want.Partition.Name())
				}
				wb, gb := want.Result.Breakdown, d.Result.Breakdown
				if wb.RootDist != gb.RootDist || wb.RootComp != gb.RootComp {
					t.Errorf("root counters differ: dist %v vs %v, comp %v vs %v",
						wb.RootDist, gb.RootDist, wb.RootComp, gb.RootComp)
				}
				if got := d.Report(); got == "" {
					t.Error("empty report for streamed run")
				}
			})
		}
	}
}

// TestDistributeStreamFromFile: end-to-end out-of-core path — write a
// Matrix Market file, stream it through OpenStream with a budget far
// smaller than the array, and diff the reassembly against a separate
// whole-file read.
func TestDistributeStreamFromFile(t *testing.T) {
	g := sparse.Uniform(50, 30, 0.15, 23)
	coo := sparse.FromDense(g)
	var buf bytes.Buffer
	if err := sparse.WriteText(&buf, coo); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a.mtx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	src, closer, err := sparse.OpenStream(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	d, err := DistributeStream(src, Config{Scheme: "ED", Partition: "balanced-row", Procs: 4, Method: "CCS", MemBudget: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.DiffCheckAgainst(g); err != nil {
		t.Errorf("diff check: %v", err)
	}
	if err := d.Verify(); err == nil {
		t.Error("Verify on a streamed distribution should direct callers to VerifyAgainst")
	}
	if err := d.DiffCheck(); err == nil {
		t.Error("DiffCheck on a streamed distribution should direct callers to DiffCheckAgainst")
	}
}
