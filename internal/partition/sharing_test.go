package partition_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/redist"
	"repro/internal/sparse"
	"repro/internal/spops"
)

// TestMapsSharedNeverWritten is the sharing contract of
// Partition.RowMap/ColMap from the consumers' side: one partition value
// per kind is handed, concurrently, to everything that reads ownership
// maps — every scheme x method through dist.Run and dist.RunStream, a
// communication plan and one SpMV over it, a redistribution to the next
// kind — and afterwards every map is what it was. Under -race the same
// run proves nobody wrote at all, not merely that nobody left a trace.
func TestMapsSharedNeverWritten(t *testing.T) {
	const n, p = 24, 4
	g := sparse.Uniform(n, n, 0.2, 11)
	coo := sparse.FromDense(g)
	kinds := allKinds(t, n, n)

	type maps struct{ rows, cols [][]int }
	snapshot := func(part partition.Partition) maps {
		var m maps
		for k := 0; k < part.NumParts(); k++ {
			m.rows = append(m.rows, slices.Clone(part.RowMap(k)))
			m.cols = append(m.cols, slices.Clone(part.ColMap(k)))
		}
		return m
	}
	before := make([]maps, len(kinds))
	for i, part := range kinds {
		before[i] = snapshot(part)
	}

	newMachine := func() *machine.Machine {
		m, err := machine.New(p, machine.WithRecvTimeout(30*time.Second))
		if err != nil {
			t.Error(err)
			return nil
		}
		return m
	}
	var wg sync.WaitGroup
	for i, part := range kinds {
		next := kinds[(i+1)%len(kinds)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := newMachine()
			if m == nil {
				return
			}
			defer m.Close()
			for _, codec := range []dist.Codec{dist.SFC{}, dist.CFS{}, dist.ED{}} {
				for _, method := range []dist.Method{dist.CRS, dist.CCS, dist.JDS} {
					opts := dist.Options{Method: method}
					res, err := dist.Run(m, dist.Plan{Codec: codec, Global: g, Partition: part, Options: opts})
					if err != nil {
						t.Errorf("%s/%s/%s: Run: %v", codec.Name(), part.Name(), method, err)
						return
					}
					if _, err := dist.RunStream(m, dist.StreamPlan{
						Codec: codec, Source: sparse.NewStreamCOO(coo, 64), Partition: part, Options: opts,
					}); err != nil {
						t.Errorf("%s/%s/%s: RunStream: %v", codec.Name(), part.Name(), method, err)
						return
					}
					if method != dist.CRS || codec.Name() != "ED" {
						continue
					}
					pl, err := spops.BuildCommPlan(part, res)
					if err != nil {
						t.Errorf("%s: BuildCommPlan: %v", part.Name(), err)
						return
					}
					if _, _, err := spops.SpMV(m, pl, make([]float64, n)); err != nil {
						t.Errorf("%s: SpMV: %v", part.Name(), err)
						return
					}
					if _, _, err := redist.Redistribute(m, part, res, next); err != nil {
						t.Errorf("%s -> %s: Redistribute: %v", part.Name(), next.Name(), err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	for i, part := range kinds {
		after := snapshot(part)
		for k := range after.rows {
			if !slices.Equal(after.rows[k], before[i].rows[k]) || !slices.Equal(after.cols[k], before[i].cols[k]) {
				t.Errorf("%s part %d: a consumer wrote to a shared map", part.Name(), k)
			}
		}
	}
}
