package repro

// Benchmarks of the sparsity-aware distributed compute layer
// (internal/spops) against the root-broadcast kernels it replaces.
// Each sub-benchmark attaches a wire-words metric — the payload words
// the op moves per sweep — and `make bench-ops` gates the ratio: on a
// banded array (sparse column support, s <= 0.1) the halo exchange
// must move strictly fewer words than broadcasting the operand.

import (
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/ops"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/spops"
)

// benchOpsSetup distributes a banded array (bandwidth 8, fill 0.8, so
// s ≈ 0.05) over p row parts with ED and builds the halo plan. Banded
// structure is the regime the compute layer targets: each part's
// column support covers only its band, so the needed-index sets stay
// small.
func benchOpsSetup(b *testing.B, n, p int) (*sparse.Dense, *machine.Machine, partition.Partition, *dist.Result, *spops.CommPlan) {
	b.Helper()
	g := sparse.Banded(n, n, 8, 0.8, 3)
	part, err := partition.NewRow(n, n, p)
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(p, machine.WithRecvTimeout(60*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	res, err := (dist.ED{}).Distribute(m, g, part, dist.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pl, err := spops.BuildCommPlan(part, res)
	if err != nil {
		b.Fatal(err)
	}
	return g, m, part, res, pl
}

// BenchmarkSpMV compares halo-exchange y = A·x with the root-broadcast
// kernel on the same distributed banded array. The halo side's
// wire-words is what the op actually moved (halo + result gather); the
// broadcast side's is the full x vector to every peer rank plus the
// gathered y, the traffic DistributedSpMV moves regardless of
// sparsity.
func BenchmarkSpMV(b *testing.B) {
	const n, p = 256, 4
	g, m, part, res, pl := benchOpsSetup(b, n, p)
	x := make([]float64, g.Cols())
	for i := range x {
		x[i] = float64(i % 17)
	}
	b.Run("halo", func(b *testing.B) {
		var last spops.OpStats
		for i := 0; i < b.N; i++ {
			_, st, err := spops.SpMV(m, pl, x)
			if err != nil {
				b.Fatal(err)
			}
			last = st
		}
		b.ReportMetric(float64(last.WireWords), "wire-words")
	})
	b.Run("broadcast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ops.DistributedSpMV(m, part, res, x); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n*(p-1)+n), "wire-words")
	})
}

// BenchmarkDistSpGEMM compares row-fetch C = A·B (each rank pulls only
// the B-rows its local A-part references) with its two baselines on the
// same operands. sequential is ops.SpGEMM, the like-for-like time
// baseline: it computes the same product on one processor. broadcast
// ships all of B to every rank in the row-buffer layout the op uses and
// never multiplies, so it is a wire-words baseline only — its ns/op is
// the cost of moving the words, not of a product.
func BenchmarkDistSpGEMM(b *testing.B) {
	const n, p = 256, 4
	g, m, _, _, pl := benchOpsSetup(b, n, p)
	bm := compress.CompressCRS(g, nil)
	b.Run("rowfetch", func(b *testing.B) {
		var last spops.OpStats
		for i := 0; i < b.N; i++ {
			_, st, err := spops.DistSpGEMM(m, pl, bm)
			if err != nil {
				b.Fatal(err)
			}
			last = st
		}
		b.ReportMetric(float64(last.WireWords), "wire-words")
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ops.SpGEMM(bm, bm); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("broadcast", func(b *testing.B) {
		payload := bm.AppendEDRows(make([]float64, 0, bm.Rows+2*bm.NNZ()), 0, bm.Rows)
		for i := 0; i < b.N; i++ {
			err := m.Run(func(pr *machine.Proc) error {
				var in []float64
				if pr.Rank == 0 {
					in = payload
				}
				_, err := pr.Bcast(0, in)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(payload)*(p-1)), "wire-words")
	})
}
