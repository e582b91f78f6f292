package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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

// TestStreamPlanMemoryBounded: a plan keeps the partition's rule, not
// tables sized by the shape, so a Matrix Market header that declares a
// huge array and holds no entries plans in O(p) memory. Balanced-row
// alone pays by the shape: its count pass, 8 bytes a row.
func TestStreamPlanMemoryBounded(t *testing.T) {
	const mib = 1 << 20
	shapes := []struct{ rows, cols int }{{1<<28 - 1, 1}, {1, 1<<28 - 1}, {1 << 27, 1 << 27}}
	plan := func(name string, rows, cols int) uint64 {
		t.Helper()
		header := fmt.Sprintf("%%%%MatrixMarket matrix coordinate real general\n%d %d 0\n", rows, cols)
		src, err := sparse.NewTextStream(strings.NewReader(header), 16)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Partition: name, Procs: 4}.Normalized()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := NewStreamPlan(src, cfg); err != nil {
			t.Fatalf("%s %dx%d: %v", name, rows, cols, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, name := range partitionNames {
		if name == "balanced-row" {
			continue
		}
		for _, s := range shapes {
			if got := plan(name, s.rows, s.cols); got >= mib {
				t.Errorf("%s %dx%d: planning allocated %d bytes, want < 1 MiB", name, s.rows, s.cols, got)
			}
		}
	}
	const rows = 1 << 22
	if got := plan("balanced-row", 1, rows); got >= mib {
		t.Errorf("balanced-row 1x%d: planning allocated %d bytes, want < 1 MiB", rows, got)
	}
	if got, budget := plan("balanced-row", rows, 1), uint64(8*rows+mib); got > budget {
		t.Errorf("balanced-row %dx1: planning allocated %d bytes, want <= %d (8 bytes a row + 1 MiB)", rows, got, budget)
	}
}
