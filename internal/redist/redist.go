// Package redist implements sparse array *redistribution*: moving an
// already-distributed compressed array from one partition to another
// without gathering it back at the root. This is the problem of the
// paper's reference [3] (Bandera & Zapata, "Sparse Matrix Block-Cyclic
// Redistribution", IPPS 1999) and a natural continuation of the ED
// scheme: each rank encodes, per destination, the nonzeros that change
// owner as (global row, global column, value) triplets — an ED-style
// self-describing buffer — exchanges them point-to-point, and every
// receiver decodes and compresses its new local array.
//
// Costs follow the same accounting as the distribution schemes: one
// message + words on the wire per pair of ranks, three operations per
// encoded triplet, three per decoded triplet and three per compressed
// entry. Every compute charge goes through machine.Proc.Charge, so a
// machine with a network model replays it next to the sends.
package redist

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/sparse"
)

// Stats reports the cost of a redistribution.
type Stats struct {
	PerRank []cost.Counter // encode+send+decode events per rank
	Wall    time.Duration
}

// Time returns the virtual redistribution time under the unit costs:
// ranks work in parallel, so the maximum rank cost governs.
func (s *Stats) Time(p cost.Params) time.Duration {
	var m time.Duration
	for _, c := range s.PerRank {
		if t := p.Time(c); t > m {
			m = t
		}
	}
	return m
}

// Redistribute moves the distributed array in res (owned under `from`)
// onto the partition `to`, returning a new result whose local arrays
// live under `to`. Both partitions must cover the same global shape and
// have one part per machine rank.
func Redistribute(m *machine.Machine, from partition.Partition, res *dist.Result, to partition.Partition) (*dist.Result, *Stats, error) {
	fr, fc := from.Shape()
	tr, tc := to.Shape()
	if fr != tr || fc != tc {
		return nil, nil, fmt.Errorf("redist: shapes differ: %dx%d vs %dx%d", fr, fc, tr, tc)
	}
	if from.NumParts() != m.P() || to.NumParts() != m.P() {
		return nil, nil, fmt.Errorf("redist: partitions have %d/%d parts for %d ranks", from.NumParts(), to.NumParts(), m.P())
	}
	if res == nil {
		return nil, nil, fmt.Errorf("redist: nil source result")
	}
	loc, err := partition.NewLocator(to)
	if err != nil {
		return nil, nil, err
	}

	p := m.P()
	out := &dist.Result{Scheme: "REDIST", Partition: to.Name(), Method: res.Method}
	if res.Method == dist.CRS {
		out.LocalCRS = make([]*compress.CRS, p)
	} else {
		out.LocalCCS = make([]*compress.CCS, p)
	}
	stats := &Stats{PerRank: make([]cost.Counter, p)}

	// The all-to-all travels on its own allocated tag, so a
	// redistribution can overlap concurrent distributions (or other
	// redistributions) on the same machine without frame collisions.
	tagRedist := m.AllocTags(1)

	start := time.Now()
	err = m.Run(func(pr *machine.Proc) error {
		ctr := &stats.PerRank[pr.Rank]

		// 1. Enumerate this rank's nonzeros with global coordinates.
		entries, err := localEntriesGlobal(res, from, pr.Rank)
		if err != nil {
			return fmt.Errorf("redist: rank %d: %w", pr.Rank, err)
		}

		// 2. Route each entry to its new owner as (gi, gj, v) triplets.
		buffers := make([][]float64, p)
		for _, e := range entries {
			owner, err := loc.Owner(e.Row, e.Col)
			if err != nil {
				return fmt.Errorf("redist: rank %d: %w", pr.Rank, err)
			}
			buffers[owner] = append(buffers[owner], float64(e.Row), float64(e.Col), e.Val)
		}
		pr.Charge(ctr, simnet.ClassRankComp, cost.Counter{Ops: 3 * int64(len(entries))})

		// 3. Exchange: p explicit (charged) sends, then receive from all.
		for d := 0; d < p; d++ {
			if err := pr.Send(d, tagRedist, [4]int64{}, buffers[d], ctr); err != nil {
				return fmt.Errorf("redist: rank %d send to %d: %w", pr.Rank, d, err)
			}
		}
		local := sparse.NewCOO(len(to.RowMap(pr.Rank)), len(to.ColMap(pr.Rank)))
		rowMap, colMap := to.RowMap(pr.Rank), to.ColMap(pr.Rank)
		for src := 0; src < p; src++ {
			msg, err := pr.RecvFrom(src, tagRedist)
			if err != nil {
				return fmt.Errorf("redist: rank %d recv from %d: %w", pr.Rank, src, err)
			}
			if len(msg.Data)%3 != 0 {
				return fmt.Errorf("redist: rank %d: buffer from %d has %d words (not triplets)", pr.Rank, src, len(msg.Data))
			}
			for k := 0; k < len(msg.Data); k += 3 {
				gi, gj, v := int(msg.Data[k]), int(msg.Data[k+1]), msg.Data[k+2]
				li, ok := indexOf(rowMap, gi)
				if !ok {
					return fmt.Errorf("redist: rank %d: received row %d it does not own", pr.Rank, gi)
				}
				lj, ok := indexOf(colMap, gj)
				if !ok {
					return fmt.Errorf("redist: rank %d: received col %d it does not own", pr.Rank, gj)
				}
				local.Add(li, lj, v)
			}
			// Each buffer's decode is charged as it happens, so the
			// replay overlaps it with the wait for the next one.
			pr.Charge(ctr, simnet.ClassRankComp, cost.Counter{Ops: int64(len(msg.Data))})
		}

		// 4. Compress the merged local array.
		if res.Method == dist.CRS {
			crs, err := compress.CompressCRSFromCOO(local)
			if err != nil {
				return fmt.Errorf("redist: rank %d compress: %w", pr.Rank, err)
			}
			out.LocalCRS[pr.Rank] = crs
		} else {
			ccs, err := compress.CompressCCSFromCOO(local)
			if err != nil {
				return fmt.Errorf("redist: rank %d compress: %w", pr.Rank, err)
			}
			out.LocalCCS[pr.Rank] = ccs
		}
		pr.Charge(ctr, simnet.ClassRankComp, cost.Counter{Ops: 3 * int64(local.NNZ())})
		return nil
	})
	stats.Wall = time.Since(start)
	if err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}

// localEntriesGlobal lists rank k's nonzeros with global coordinates.
func localEntriesGlobal(res *dist.Result, from partition.Partition, k int) ([]sparse.Entry, error) {
	rowMap, colMap := from.RowMap(k), from.ColMap(k)
	var out []sparse.Entry
	switch {
	case res.Method == dist.CRS && res.LocalCRS != nil:
		m := res.LocalCRS[k]
		if m == nil {
			return nil, fmt.Errorf("no CRS local for rank %d", k)
		}
		if m.Rows != len(rowMap) || m.Cols != len(colMap) {
			return nil, fmt.Errorf("rank %d local shape %dx%d does not match partition %dx%d", k, m.Rows, m.Cols, len(rowMap), len(colMap))
		}
		for li := 0; li < m.Rows; li++ {
			for t := m.RowPtr[li]; t < m.RowPtr[li+1]; t++ {
				out = append(out, sparse.Entry{Row: rowMap[li], Col: colMap[m.ColIdx[t]], Val: m.Val[t]})
			}
		}
	case res.Method == dist.CCS && res.LocalCCS != nil:
		m := res.LocalCCS[k]
		if m == nil {
			return nil, fmt.Errorf("no CCS local for rank %d", k)
		}
		if m.Rows != len(rowMap) || m.Cols != len(colMap) {
			return nil, fmt.Errorf("rank %d local shape %dx%d does not match partition %dx%d", k, m.Rows, m.Cols, len(rowMap), len(colMap))
		}
		for lj := 0; lj < m.Cols; lj++ {
			for t := m.ColPtr[lj]; t < m.ColPtr[lj+1]; t++ {
				out = append(out, sparse.Entry{Row: rowMap[m.RowIdx[t]], Col: colMap[lj], Val: m.Val[t]})
			}
		}
	default:
		return nil, fmt.Errorf("result carries no local arrays")
	}
	return out, nil
}

func indexOf(m []int, g int) (int, bool) {
	i := sort.SearchInts(m, g)
	if i < len(m) && m[i] == g {
		return i, true
	}
	return 0, false
}
