package spops_test

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sparse"
	"repro/internal/spops"
)

// TestOpAllocsFlatInP pins what one more op call on a warm plan
// allocates beyond the machine's own Run (an empty body, p goroutines):
// its answer and a few words of bookkeeping, as many at p = 8 as at
// p = 2. The plan keeps its ranks' segments, need and contribution
// values and SpGEMM's accumulators between calls; before, each call
// allocated them again, about 5p + 3 times. SpGEMM's row slabs — the
// blocks, fetched rows and products its messages carry, which scale
// with B and C — and the lists that hold them are allocated per call,
// a fixed number per row message and per rank, and are counted out of
// its bound.
func TestOpAllocsFlatInP(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	// SpMV allocates y and its Run body; Jacobi x, the zero start, its
	// Run body and two captured results; SpGEMM C's four arrays and its
	// Run body.
	const opAllocs = 6
	const n = 96
	g := sparse.Banded(n, n, 5, 0.8, 3)
	sparse.MakeDiagDominant(g)
	x, b, bm := randVec(n, 4), randVec(n, 5), compress.CompressCRS(g, nil)
	for _, part := range []string{"row", "mesh"} {
		for _, p := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/p%d", part, p), func(t *testing.T) {
				d, pl := distribute(t, g, core.Config{Scheme: "ED", Partition: part, Procs: p})
				defer d.Close()
				m := d.Machine()
				floor := testing.AllocsPerRun(20, func() {
					if err := m.Run(func(*machine.Proc) error { return nil }); err != nil {
						t.Error(err)
					}
				})
				var gemm spops.OpStats
				for _, op := range []struct {
					name string
					run  func() error
				}{
					{"spmv", func() error { _, _, err := spops.SpMV(m, pl, x); return err }},
					{"jacobi", func() error { _, _, err := spops.Jacobi(m, pl, b, nil, 0, 10); return err }},
					{"spgemm", func() (err error) { _, gemm, err = spops.DistSpGEMM(m, pl, bm); return err }},
				} {
					if err := op.run(); err != nil { // warm the plan's views, its exec and the pool
						t.Fatal(err)
					}
					got := testing.AllocsPerRun(20, func() {
						if err := op.run(); err != nil {
							t.Error(err)
						}
					}) - floor
					bound := float64(opAllocs)
					if op.name == "spgemm" {
						// Each row message decodes into a CRS (3 allocations);
						// each rank lists its fetched blocks (1) and assembles
						// its fetched rows and its product rows in a CRS apiece
						// (4 each); the IO rank lists the products (1).
						bound += 3*float64(gemm.Messages) + 9*float64(p) + 1
					}
					if got > bound {
						t.Errorf("%s allocates %.0f times above the Run floor of %.0f, want <= %.0f", op.name, got, floor, bound)
					}
				}
			})
		}
	}
}

// TestOnePlanManyMachines runs SpMV and Jacobi on one plan from several
// goroutines at once, each on a machine of its own (run it under
// -race): every answer and OpStats must equal the sequential run's bit
// for bit, whichever caller holds the plan's exec. Then each op fails
// midway on a machine whose first message is lost and whose receives
// time out at once, on other operands; the next call on a healthy
// machine must equal a fresh plan's answer, so the exec the failed call
// hands back carries none of its segments.
func TestOnePlanManyMachines(t *testing.T) {
	const n, p, callers = 64, 4, 4
	g := sparse.Banded(n, n, 4, 0.8, 7)
	sparse.MakeDiagDominant(g)
	x, b := randVec(n, 8), randVec(n, 9)
	d, pl := distribute(t, g, core.Config{Scheme: "ED", Partition: "mesh", Procs: p})
	defer d.Close()
	spmv := func(pl *spops.CommPlan, m *machine.Machine, x []float64) ([]float64, spops.OpStats, error) {
		return spops.SpMV(m, pl, x)
	}
	jacobi := func(pl *spops.CommPlan, m *machine.Machine, b []float64) ([]float64, spops.OpStats, error) {
		return spops.Jacobi(m, pl, b, nil, 1e-10, 200)
	}
	type op struct {
		name string
		run  func(*spops.CommPlan, *machine.Machine, []float64) ([]float64, spops.OpStats, error)
		in   []float64
	}
	ops := []op{{"spmv", spmv, x}, {"jacobi", jacobi, b}}
	same := func(got, want []float64, st, wantSt spops.OpStats) bool {
		return st == wantSt && slices.EqualFunc(got, want, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		})
	}
	for _, o := range ops {
		want, wantSt, err := o.run(pl, d.Machine(), o.in)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m, err := machine.New(p)
				if err != nil {
					t.Error(err)
					return
				}
				defer m.Close()
				for round := 0; round < 3; round++ {
					got, st, err := o.run(pl, m, o.in)
					if err != nil {
						t.Error(err)
					} else if !same(got, want, st, wantSt) {
						t.Errorf("%s on a shared plan: %+v, want the sequential run's %+v", o.name, st, wantSt)
					}
				}
			}()
		}
		wg.Wait()
	}
	for _, o := range ops {
		t.Run(o.name+"/after-failure", func(t *testing.T) {
			m, ft := faultyMachine(t, p, false, 20*time.Millisecond)
			ft.DropNext(1)
			if _, _, err := o.run(pl, m, randVec(n, 10)); err == nil {
				t.Fatal("an op whose first message was lost succeeded")
			}
			fresh, err := spops.BuildCommPlan(d.Partition, d.Result)
			if err != nil {
				t.Fatal(err)
			}
			want, wantSt, err := o.run(fresh, d.Machine(), o.in)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := o.run(pl, d.Machine(), o.in)
			if err != nil {
				t.Fatal(err)
			}
			if !same(got, want, st, wantSt) {
				t.Errorf("after a failed call: %+v, want a fresh plan's %+v", st, wantSt)
			}
		})
	}
}
