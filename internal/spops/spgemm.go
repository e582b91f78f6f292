package spops

import (
	"fmt"
	"sort"

	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/machine"
)

// bEntry is one stored nonzero of a fetched B row.
type bEntry struct {
	col int
	val float64
}

// triplet is the wire unit of the SpGEMM exchange: (row, col, value)
// packed as three float64 words, the ED scheme's buffer layout
// applied to computation traffic.
type triplet struct {
	row, col int
	val      float64
}

// packTriplets flattens triplets into a wire buffer.
func packTriplets(ts []triplet) []float64 {
	buf := make([]float64, 0, 3*len(ts))
	for _, t := range ts {
		buf = append(buf, float64(t.row), float64(t.col), t.val)
	}
	return buf
}

// unpackTriplets parses a wire buffer back into triplets.
func unpackTriplets(buf []float64) ([]triplet, error) {
	if len(buf)%3 != 0 {
		return nil, fmt.Errorf("spops: triplet buffer of %d words", len(buf))
	}
	ts := make([]triplet, 0, len(buf)/3)
	for i := 0; i < len(buf); i += 3 {
		ts = append(ts, triplet{row: int(buf[i]), col: int(buf[i+1]), val: buf[i+2]})
	}
	return ts, nil
}

// DistSpGEMM computes C = A·B where A is the plan's distributed array
// and B is a global CRS at the IO rank with B.Rows == A.Cols. B's
// rows are block-scattered to the x-owners once, then each rank
// fetches — as triplet buffers, point to point — exactly the B-rows
// its local A-nonzeros reference: the plan's needed-index sets are
// the fetch lists, because the columns A touches are the rows of B
// the product reads (Gustavson's identity). Each rank multiplies its
// hosted parts with Gustavson's row-merge locally and ships its C
// triplets back to the IO rank, which merges duplicates (col- and
// mesh-partitioned parts produce partial sums for the same output
// entry) into the returned CRS.
func DistSpGEMM(m *machine.Machine, pl *CommPlan, b *compress.CRS) (*compress.CRS, OpStats, error) {
	if b == nil {
		return nil, OpStats{}, fmt.Errorf("spops: DistSpGEMM: nil B")
	}
	if b.Rows != pl.Cols {
		return nil, OpStats{}, fmt.Errorf("spops: DistSpGEMM: A is %dx%d but B has %d rows",
			pl.Rows, pl.Cols, b.Rows)
	}
	e := newExec(m, pl)
	var c *compress.CRS
	err := e.run(func(pr *machine.Proc) error {
		st := e.st[pr.Rank]
		// Phase 1: block-scatter B's rows to the x-owners (owner of
		// column j of A owns row j of B).
		block, err := e.scatterB(pr, b)
		if err != nil {
			return err
		}
		// Phase 2: row-fetch exchange along the plan's halo pairs.
		rows, err := e.fetchB(pr, block)
		if err != nil {
			return err
		}
		// Phase 3: local Gustavson over the hosted parts.
		cts := e.localGustavson(pr.Rank, rows)
		// Phase 4: C triplets to the IO rank; merge.
		if pr.Rank != pl.IO {
			return pr.Send(pl.IO, e.tag(tagGather), [4]int64{int64(len(cts))},
				packTriplets(cts), &st.wire)
		}
		all := cts
		for _, r := range pl.alive {
			if r == pl.IO {
				continue
			}
			msg, err := pr.RecvFrom(r, e.tag(tagGather))
			if err != nil {
				return fmt.Errorf("spops: gather C from %d: %w", r, err)
			}
			ts, err := unpackTriplets(msg.Data)
			if err != nil {
				return err
			}
			all = append(all, ts...)
		}
		c = mergeTriplets(all, pl.Rows, b.Cols)
		return nil
	})
	if err != nil {
		return nil, OpStats{}, err
	}
	stats := e.stats("spgemm", 1)
	// The broadcast-equivalent for SpGEMM ships all of B (as
	// triplets) to every non-root rank.
	stats.BcastWords = 3 * b.NNZ() * (len(pl.alive) - 1)
	return c, stats, nil
}

// scatterB ships each x-owner its block of B rows as triplets and
// returns this rank's block indexed by global row.
func (e *exec) scatterB(pr *machine.Proc, b *compress.CRS) (map[int][]bEntry, error) {
	pl, st := e.pl, e.st[pr.Rank]
	if pr.Rank == pl.IO {
		for _, r := range pl.alive {
			lo, hi := pl.xRange(r)
			if r == pl.IO || hi-lo == 0 {
				continue
			}
			var ts []triplet
			for g := lo; g < hi; g++ {
				for idx := b.RowPtr[g]; idx < b.RowPtr[g+1]; idx++ {
					ts = append(ts, triplet{row: g, col: b.ColIdx[idx], val: b.Val[idx]})
				}
			}
			if err := pr.Send(r, e.tag(tagScatter), [4]int64{int64(len(ts))},
				packTriplets(ts), &st.wire); err != nil {
				return nil, fmt.Errorf("spops: scatter B to %d: %w", r, err)
			}
		}
		block := map[int][]bEntry{}
		for g := st.xlo; g < st.xhi; g++ {
			for idx := b.RowPtr[g]; idx < b.RowPtr[g+1]; idx++ {
				block[g] = append(block[g], bEntry{col: b.ColIdx[idx], val: b.Val[idx]})
			}
		}
		return block, nil
	}
	block := map[int][]bEntry{}
	if st.xhi-st.xlo == 0 {
		return block, nil
	}
	msg, err := pr.RecvFrom(pl.IO, e.tag(tagScatter))
	if err != nil {
		return nil, fmt.Errorf("spops: rank %d scatter B recv: %w", pr.Rank, err)
	}
	ts, err := unpackTriplets(msg.Data)
	if err != nil {
		return nil, err
	}
	for _, t := range ts {
		block[t.row] = append(block[t.row], bEntry{col: t.col, val: t.val})
	}
	return block, nil
}

// fetchB runs the row-fetch exchange: each B-block owner ships each
// consumer the rows on their halo send list, and every rank returns
// the union of its own block rows and the fetched rows, indexed by
// global B-row. Rows with no stored entries travel as zero triplets
// of nothing — they are simply absent, which Gustavson handles.
func (e *exec) fetchB(pr *machine.Proc, block map[int][]bEntry) (map[int][]bEntry, error) {
	pl, st := e.pl, e.st[pr.Rank]
	me := pr.Rank
	for _, r := range pl.alive {
		idx := pl.SendIdx[me][r]
		if len(idx) == 0 || r == me {
			continue
		}
		var ts []triplet
		for _, g := range idx {
			for _, en := range block[g] {
				ts = append(ts, triplet{row: g, col: en.col, val: en.val})
			}
		}
		if err := pr.Send(r, e.tag(tagFetch), [4]int64{int64(len(ts))},
			packTriplets(ts), &st.wire); err != nil {
			return nil, fmt.Errorf("spops: B fetch %d->%d: %w", me, r, err)
		}
	}
	rows := map[int][]bEntry{}
	// Own needed rows straight from the block.
	lo, hi := st.xlo, st.xhi
	for _, g := range pl.Need[me] {
		if g >= lo && g < hi {
			rows[g] = block[g]
		}
	}
	for _, s := range pl.alive {
		if len(pl.SendIdx[s][me]) == 0 || s == me {
			continue
		}
		msg, err := pr.RecvFrom(s, e.tag(tagFetch))
		if err != nil {
			return nil, fmt.Errorf("spops: B fetch recv %d<-%d: %w", me, s, err)
		}
		ts, err := unpackTriplets(msg.Data)
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			rows[t.row] = append(rows[t.row], bEntry{col: t.col, val: t.val})
		}
	}
	return rows, nil
}

// localGustavson multiplies every part hosted at rank r against the
// fetched B rows, producing C triplets with global indices. Each
// A-nonzero (i,j) merges B's row j scaled by a_ij into C's row i.
func (e *exec) localGustavson(r int, rows map[int][]bEntry) []triplet {
	pl, st := e.pl, e.st[r]
	var delta cost.Counter
	acc := map[int]map[int]float64{}
	for k := 0; k < pl.P; k++ {
		if pl.Host[k] != r {
			continue
		}
		rowMap := pl.Part.RowMap(k)
		colMap := pl.Part.ColMap(k)
		forEachNZ(pl.Res, k, func(li, lj int, av float64) {
			gi, gj := rowMap[li], colMap[lj]
			brow := rows[gj]
			if len(brow) == 0 {
				return
			}
			m := acc[gi]
			if m == nil {
				m = map[int]float64{}
				acc[gi] = m
			}
			for _, en := range brow {
				m[en.col] += av * en.val
			}
			delta.AddOps(2 * len(brow))
		})
	}
	var ts []triplet
	for gi, m := range acc {
		for gc, v := range m {
			ts = append(ts, triplet{row: gi, col: gc, val: v})
		}
	}
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].row != ts[b].row {
			return ts[a].row < ts[b].row
		}
		return ts[a].col < ts[b].col
	})
	e.chargeComp(st, delta)
	return ts
}

// mergeTriplets sums duplicate (row, col) entries — partial products
// from col/mesh-partitioned parts — and builds the global CRS.
func mergeTriplets(ts []triplet, rows, cols int) *compress.CRS {
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].row != ts[b].row {
			return ts[a].row < ts[b].row
		}
		return ts[a].col < ts[b].col
	})
	c := &compress.CRS{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < len(ts); {
		j := i + 1
		v := ts[i].val
		for j < len(ts) && ts[j].row == ts[i].row && ts[j].col == ts[i].col {
			v += ts[j].val
			j++
		}
		if v != 0 {
			c.ColIdx = append(c.ColIdx, ts[i].col)
			c.Val = append(c.Val, v)
			c.RowPtr[ts[i].row+1]++
		}
		i = j
	}
	for i := 0; i < rows; i++ {
		c.RowPtr[i+1] += c.RowPtr[i]
	}
	return c
}
