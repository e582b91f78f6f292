package spops_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/benchgate"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/ops"
	"repro/internal/sparse"
	"repro/internal/spops"
)

// TestSweepKernelParity holds the plan-compiled kernel against the
// sequential ops.SpMV on the global CRS — the oracle shares no code
// with it — over every part format, partition and a spread of machine
// sizes: one rank (no halo at all) and more ranks than rows (empty
// parts). The element-operation charge must be exactly two per stored
// nonzero.
func TestSweepKernelParity(t *testing.T) {
	arrays := []struct {
		name string
		g    *sparse.Dense
	}{
		{"wide", sparse.Uniform(23, 41, 0.2, 5)},
		{"tall", sparse.Uniform(41, 23, 0.2, 6)},
		{"few-rows", sparse.Uniform(5, 30, 0.3, 7)}, // p=7 leaves row parts empty
		{"banded", sparse.Banded(40, 40, 3, 0.8, 8)},
	}
	machines := []int{1, 4, 7}
	for _, arr := range arrays {
		a := compress.CompressCRS(arr.g, nil)
		x := randVec(arr.g.Cols(), 11)
		want, err := ops.SpMV(a, x)
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range []string{"row", "col", "mesh"} {
			for _, method := range []string{"CRS", "CCS", "JDS"} {
				for _, procs := range machines {
					name := fmt.Sprintf("%s/%s/%s/p%d", arr.name, part, method, procs)
					cfg := core.Config{Scheme: "ED", Partition: part, Method: method, Procs: procs}
					t.Run(name, func(t *testing.T) {
						d, pl := distribute(t, arr.g, cfg)
						defer d.Close()
						y, st, err := spops.SpMV(d.Machine(), pl, x)
						if err != nil {
							t.Fatal(err)
						}
						vecClose(t, y, want, 1e-12, "SpMV")
						if st.Ops != 2*a.NNZ() {
							t.Fatalf("charged %d element operations, want 2·nnz = %d", st.Ops, 2*a.NNZ())
						}
					})
				}
			}
		}
	}
}

// TestSweepAllocs pins what one more sweep allocates. Two Jacobi runs
// that cannot converge (tol 0) differ only in their sweep count, so the
// difference of their allocations is the sweeps' own: no payload, no
// receive description, no watchdog timer. What is left is the pool
// trading a buffer that is too short for a new one now and then. Before,
// a sweep allocated about 75 times.
func TestSweepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	const n, p = 512, 4
	g := sparse.Banded(n, n, 8, 0.8, 3)
	sparse.MakeDiagDominant(g)
	b := randVec(n, 4)
	d, pl := distribute(t, g, core.Config{Scheme: "ED", Partition: "row", Method: "CRS", Procs: p})
	defer d.Close()
	allocs := func(sweeps int) float64 {
		return testing.AllocsPerRun(5, func() {
			_, st, err := spops.Jacobi(d.Machine(), pl, b, nil, 0, sweeps)
			if err != nil {
				t.Error(err)
			} else if st.Iterations != sweeps {
				t.Errorf("ran %d sweeps, want %d", st.Iterations, sweeps)
			}
		})
	}
	allocs(10) // build the sweep view, warm the pool
	short, long := allocs(10), allocs(60)
	if perSweep := (long - short) / 50; perSweep > 2*p {
		t.Errorf("a sweep allocates %.1f times (%.0f for 60 sweeps, %.0f for 10), want <= %d",
			perSweep, long, short, 2*p)
	}
}

// TestSweepsOverLossyTransport aims transient faults at sweep traffic:
// Jacobi runs on a reliable layer over a fault injector armed, before
// the solve starts, to drop, corrupt, duplicate and reorder the next
// few data messages. The solve must return exactly what it returns on
// the clean machine, in as many sweeps, and every armed fault must have
// fired exactly once: op traffic carries no checksum of its own, so a
// flipped bit must be caught by the layer's CRC32C and resent. Under -race this also shows a payload recycled while a
// retransmission could still read it.
func TestSweepsOverLossyTransport(t *testing.T) {
	const n, p, faults = 96, 4, 3
	g := sparse.Banded(n, n, 5, 0.8, 9)
	sparse.MakeDiagDominant(g)
	b := randVec(n, 10)
	for _, part := range []string{"row", "mesh"} {
		t.Run(part, func(t *testing.T) {
			d, pl := distribute(t, g, core.Config{Scheme: "ED", Partition: part, Procs: p})
			defer d.Close()
			ft := machine.NewFaultTransport(machine.NewChanTransport(p))
			rt := machine.NewReliableTransport(ft, machine.RetryPolicy{
				MaxRetries: 8, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond})
			m, err := machine.New(p, machine.WithTransport(rt), machine.WithRecvTimeout(10*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()

			xClean, stClean, err := spops.Jacobi(d.Machine(), pl, b, nil, 1e-10, 200)
			if err != nil {
				t.Fatal(err)
			}
			if !stClean.Converged || stClean.Iterations < 10 {
				t.Fatalf("clean Jacobi: %+v", stClean)
			}
			ft.DropNext(faults)
			ft.CorruptNext(faults)
			ft.DuplicateNext(faults)
			ft.ReorderNext(faults)
			x, st, err := spops.Jacobi(m, pl, b, nil, 1e-10, 200)
			if err != nil {
				t.Fatal(err)
			}
			if st.Iterations != stClean.Iterations || st.Converged != stClean.Converged {
				t.Fatalf("Jacobi under faults: %d sweeps (converged %v), clean run %d (%v)",
					st.Iterations, st.Converged, stClean.Iterations, stClean.Converged)
			}
			if st.Messages != stClean.Messages || st.WireWords != stClean.WireWords {
				t.Fatalf("charged traffic differs under faults: %+v vs %+v", st, stClean)
			}
			// Bit for bit: message timing may not reach the arithmetic.
			vecClose(t, x, xClean, 0, "Jacobi solution")

			fs := ft.FullStats()
			if fs.Dropped != faults || fs.Corrupted != faults || fs.Duplicated != faults || fs.Reordered != faults {
				t.Fatalf("faults injected %+v, want %d each of drop, corrupt, duplicate and reorder", fs, faults)
			}
			t.Logf("%d Jacobi sweeps through %+v", stClean.Iterations, fs)
		})
	}
}

// BenchmarkJacobiSweep is the compute layer's in-package benchmark, on
// the shape of the repository benchmark's compute_sweep workload
// (banded n=2000, ED/row/CRS on four ranks). halo is one Jacobi of 50
// sweeps that cannot converge early; sequential is 50 ops.SpMV on the
// global CRS of the same array — the same multiply-adds on one
// processor without any message, the like-for-like time baseline. gate
// holds halo to 1.60x sequential: on one processor the four ranks do
// exactly that product once per sweep, so the excess is the message
// path. It read 1.75-1.95 before the kernel went through the plan's
// sweep view and reads 1.2 since (0.96-1.44 over 100 processes on the
// shared host, whose contended stretches slow the halo side more), so
// the gate catches the old message path coming back, nothing subtler.
func BenchmarkJacobiSweep(b *testing.B) {
	const n, p, sweeps = 2000, 4, 50
	g := sparse.Banded(n, n, 8, 0.8, 1)
	sparse.MakeDiagDominant(g)
	a := compress.CompressCRS(g, nil)
	rhs, x := randVec(n, 2), randVec(n, 3)
	d, pl := distribute(b, g, core.Config{Scheme: "ED", Partition: "row", Method: "CRS", Procs: p})
	defer d.Close()
	// Both sides are worth `sweeps` sweeps a call.
	halo := func(b *testing.B) func() {
		return func() {
			if _, _, err := spops.Jacobi(d.Machine(), pl, rhs, nil, 0, sweeps); err != nil {
				b.Fatal(err)
			}
		}
	}
	sequential := func(b *testing.B) func() {
		return func() {
			for s := 0; s < sweeps; s++ {
				if _, err := ops.SpMV(a, x); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// measure times b.N calls of op.
	measure := func(b *testing.B, op func()) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		total := float64(b.N * sweeps)
		ns := float64(b.Elapsed().Nanoseconds()) / total
		b.ReportMetric(ns, "ns/sweep")
		b.ReportMetric(ns/float64(a.NNZ()), "ns/nnz")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/sweep")
	}
	b.Run("halo", func(b *testing.B) {
		run := halo(b)
		run() // build the sweep view, warm the pool
		measure(b, run)
	})
	b.Run("sequential", func(b *testing.B) { measure(b, sequential(b)) })
	b.Run("gate", func(b *testing.B) { benchgate.Ratio(b, 50, 1.60, halo(b), sequential(b)) })
}
