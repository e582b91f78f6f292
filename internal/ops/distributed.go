package ops

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/partition"
)

// DistributedSpMV computes y = A·x where A has been distributed by one
// of the schemes (res holds each rank's compressed local array, with
// local indices). The full vector x is broadcast from rank 0; each rank
// computes its partial contribution over its owned cross product and
// rank 0 assembles the global result through the partition's index
// maps. This works uniformly for every partition method: row-like
// partitions contribute disjoint output rows, mesh and column
// partitions contribute partial sums that are accumulated.
//
// It is the broadcast reference the halo kernels of internal/spops are
// measured against, and the only code in this package that runs on the
// machine; production compute goes through spops.
func DistributedSpMV(m *machine.Machine, part partition.Partition, res *dist.Result, x []float64) ([]float64, error) {
	rows, cols := part.Shape()
	if len(x) != cols {
		return nil, fmt.Errorf("ops: DistributedSpMV: x has %d entries, want %d", len(x), cols)
	}
	if part.NumParts() != m.P() {
		return nil, fmt.Errorf("ops: DistributedSpMV: partition has %d parts, machine %d", part.NumParts(), m.P())
	}
	y := make([]float64, rows)
	err := m.Run(func(pr *machine.Proc) error {
		xAll, err := pr.Bcast(0, x)
		if err != nil {
			return fmt.Errorf("ops: rank %d bcast: %w", pr.Rank, err)
		}
		rowMap, colMap := part.RowMap(pr.Rank), part.ColMap(pr.Rank)

		// Restrict x to the local columns.
		xLocal := make([]float64, len(colMap))
		for lj, gj := range colMap {
			xLocal[lj] = xAll[gj]
		}

		var yLocal []float64
		switch {
		case res.Method == dist.CRS && res.LocalCRS != nil:
			yLocal, err = SpMV(res.LocalCRS[pr.Rank], xLocal)
		case res.Method == dist.CCS && res.LocalCCS != nil:
			yLocal, err = SpMVCCS(res.LocalCCS[pr.Rank], xLocal)
		case res.Method == dist.JDS && res.LocalJDS != nil:
			yLocal, err = SpMVJDS(res.LocalJDS[pr.Rank], xLocal)
		default:
			err = fmt.Errorf("result carries no local arrays")
		}
		if err != nil {
			return fmt.Errorf("ops: rank %d local SpMV: %w", pr.Rank, err)
		}
		if len(yLocal) != len(rowMap) {
			return fmt.Errorf("ops: rank %d produced %d outputs for %d rows", pr.Rank, len(yLocal), len(rowMap))
		}

		gathered, err := pr.Gather(0, yLocal)
		if err != nil {
			return fmt.Errorf("ops: rank %d gather: %w", pr.Rank, err)
		}
		if pr.Rank == 0 {
			for k, contrib := range gathered {
				for li, gi := range part.RowMap(k) {
					y[gi] += contrib[li]
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return y, nil
}
