package spops

import (
	"fmt"
	"slices"

	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/simnet"
)

// DistSpGEMM computes C = A·B where A is the plan's distributed array
// and B is a global CRS at the IO rank with B.Rows == A.Cols. B's
// rows are block-scattered to the x-owners once, then each rank
// fetches, point to point, exactly the B-rows its local A-nonzeros
// reference: the plan's needed-index sets are the fetch lists, because
// the columns A touches are the rows of B the product reads
// (Gustavson's identity). Each rank multiplies its part with a
// two-pass Gustavson and ships its rows of C back to the IO rank, which
// sums the rows several ranks produced (col- and mesh-partitioned parts
// yield partial sums for the same output entry) into the returned CRS.
//
// Every payload is the ED scheme's row-major special buffer — row
// counts, then (C, V) pairs — over a row list both ends derive from the
// plan, so no row id travels: xRange(r) for the scatter, SendIdx[s][r]
// for the fetch, Contrib[r] for the gather.
func DistSpGEMM(m *machine.Machine, pl *CommPlan, b *compress.CRS) (*compress.CRS, OpStats, error) {
	if b == nil {
		return nil, OpStats{}, fmt.Errorf("spops: DistSpGEMM: nil B")
	}
	if b.Rows != pl.Cols {
		return nil, OpStats{}, fmt.Errorf("spops: DistSpGEMM: A is %dx%d but B has %d rows",
			pl.Rows, pl.Cols, b.Rows)
	}
	// Receivers validate what they decode; an invalid B must fail here,
	// not on some rank mid-exchange with its peers left waiting.
	if err := b.Validate(); err != nil {
		return nil, OpStats{}, fmt.Errorf("spops: DistSpGEMM: B: %w", err)
	}
	gv := pl.gemmView()
	e := pl.takeExec(m)
	defer pl.putExec(e)
	var c *compress.CRS
	err := e.m.Run(func(pr *machine.Proc) error {
		// Phase 1: block-scatter B's rows to the x-owners (owner of
		// column j of A owns row j of B).
		block, off, err := e.scatterB(pr, b)
		if err != nil {
			return err
		}
		// Phase 2: row-fetch exchange along the plan's halo pairs.
		need, err := e.fetchB(pr, block, off, b.Cols)
		if err != nil {
			return err
		}
		// Phase 3: local Gustavson over the rank's part.
		out := e.multiply(pr, gv, need)
		// Phase 4: C rows to the IO rank; merge.
		if pr.Rank != ioRank {
			return e.sendRows(pr, ioRank, tagGather, out.Rows,
				out.AppendEDRows(machine.GetBuf(out.Rows+2*out.NNZ()), 0, out.Rows))
		}
		produced := make([]*compress.CRS, pl.P)
		produced[ioRank] = out
		for r := 0; r < pl.P; r++ {
			if r == ioRank {
				continue
			}
			msg, err := pr.RecvFrom(r, e.tag(tagGather))
			if err != nil {
				return fmt.Errorf("spops: gather C from %d: %w", r, err)
			}
			if produced[r], err = decodeRows("gather", &msg, len(pl.Contrib[r]), b.Cols); err != nil {
				return err
			}
		}
		c = gv.merge(produced, &e.st[ioRank].acc, b.Cols)
		return nil
	})
	if err != nil {
		return nil, OpStats{}, err
	}
	stats := e.stats("spgemm", 1)
	// The broadcast-equivalent for SpGEMM ships all of B, in the same
	// row-buffer encoding, to every non-root rank.
	stats.BcastWords = (b.Rows + 2*b.NNZ()) * (pl.P - 1)
	return c, stats, nil
}

// sendRows ships one special buffer drawn from the wire-buffer pool;
// the receiver releases it after decoding. rows is the length of the
// row list the buffer was encoded over, which decodeRows checks against
// its own copy of the plan.
func (e *exec) sendRows(pr *machine.Proc, to, tagOff, rows int, buf []float64) error {
	if err := pr.SendBuf(to, e.tag(tagOff), [4]int64{int64(rows)}, buf, true, &e.st[pr.Rank].wire); err != nil {
		return fmt.Errorf("spops: spgemm send %d->%d: %w", pr.Rank, to, err)
	}
	return nil
}

// decodeRows parses a received special buffer into a CRS of the rows
// the plan lists for this message and releases the payload. Everything
// a damaged or hostile buffer can get wrong is an error naming the
// phase and the sender: a row count that differs from the plan's list,
// non-integral, negative or NaN counts, a count sum that disagrees with
// the pair region, columns outside [0, cols) or out of order, explicit
// zeros.
func decodeRows(phase string, msg *machine.Message, rows, cols int) (*compress.CRS, error) {
	defer machine.ReleaseMessage(msg)
	if got := msg.Meta[0]; got != int64(rows) {
		return nil, fmt.Errorf("spops: spgemm %s from rank %d: buffer of %d rows, plan lists %d",
			phase, msg.From, got, rows)
	}
	m, err := compress.DecodeEDToCRS(msg.Data, rows, cols, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("spops: spgemm %s from rank %d: %w", phase, msg.From, err)
	}
	return m, nil
}

// scatterB ships each x-owner its block of B rows and returns this
// rank's block with the global id of its first row. The IO rank reads
// B in place.
func (e *exec) scatterB(pr *machine.Proc, b *compress.CRS) (*compress.CRS, int, error) {
	pl, st := e.pl, e.st[pr.Rank]
	if pr.Rank == ioRank {
		for r := 0; r < pl.P; r++ {
			lo, hi := pl.xRange(r)
			if r == ioRank || hi-lo == 0 {
				continue
			}
			buf := machine.GetBuf(hi - lo + 2*(b.RowPtr[hi]-b.RowPtr[lo]))
			if err := e.sendRows(pr, r, tagScatter, hi-lo, b.AppendEDRows(buf, lo, hi)); err != nil {
				return nil, 0, err
			}
		}
		return b, 0, nil
	}
	if st.xhi-st.xlo == 0 {
		// Owns no rows, so no send list names this rank.
		return &compress.CRS{Cols: b.Cols, RowPtr: []int{0}}, 0, nil
	}
	msg, err := pr.RecvFrom(ioRank, e.tag(tagScatter))
	if err != nil {
		return nil, 0, fmt.Errorf("spops: rank %d scatter B recv: %w", pr.Rank, err)
	}
	block, err := decodeRows("scatter", &msg, st.xhi-st.xlo, b.Cols)
	return block, st.xlo, err
}

// fetchB runs the row-fetch exchange: each B-block owner ships each
// consumer the rows on their halo send list, and every rank returns the
// B-rows it needs as one CRS indexed by need slot (the position of the
// row's global id in Need[rank]). off is the global id of block's first
// row, cols is B's column count.
func (e *exec) fetchB(pr *machine.Proc, block *compress.CRS, off, cols int) (*compress.CRS, error) {
	pl, st := e.pl, e.st[pr.Rank]
	me := pr.Rank
	for r := 0; r < pl.P; r++ {
		idx := pl.SendIdx[me][r]
		if len(idx) == 0 || r == me {
			continue
		}
		words := len(idx)
		for _, g := range idx {
			words += 2 * block.RowNNZ(g-off)
		}
		if err := e.sendRows(pr, r, tagFetch, len(idx),
			block.AppendEDRowList(machine.GetBuf(words), idx, off)); err != nil {
			return nil, err
		}
	}
	fetched := make([]*compress.CRS, pl.P)
	for s := 0; s < pl.P; s++ {
		pos := pl.recvPos[me][s]
		if len(pos) == 0 || s == me {
			continue
		}
		msg, err := pr.RecvFrom(s, e.tag(tagFetch))
		if err != nil {
			return nil, fmt.Errorf("spops: B fetch recv %d<-%d: %w", me, s, err)
		}
		if fetched[s], err = decodeRows("fetch", &msg, len(pos), cols); err != nil {
			return nil, err
		}
	}
	// each visits every needed row as (need slot, source array, row in
	// it): the owned ones in block, the others where they were decoded.
	each := func(visit func(slot int32, m *compress.CRS, row int)) {
		for i, src := range pl.ownSrc[me] {
			visit(pl.ownDst[me][i], block, int(src)+st.xlo-off)
		}
		for s, f := range fetched {
			if f != nil {
				for i, slot := range pl.recvPos[me][s] {
					visit(slot, f, i)
				}
			}
		}
	}
	need := &compress.CRS{Rows: len(pl.Need[me]), Cols: cols, RowPtr: make([]int, len(pl.Need[me])+1)}
	each(func(slot int32, m *compress.CRS, row int) { need.RowPtr[slot+1] = m.RowNNZ(row) })
	for i := 0; i < need.Rows; i++ {
		need.RowPtr[i+1] += need.RowPtr[i]
	}
	need.ColIdx = make([]int, need.RowPtr[need.Rows])
	need.Val = make([]float64, need.RowPtr[need.Rows])
	each(func(slot int32, m *compress.CRS, row int) {
		lo, hi := m.RowPtr[row], m.RowPtr[row+1]
		copy(need.ColIdx[need.RowPtr[slot]:], m.ColIdx[lo:hi])
		copy(need.Val[need.RowPtr[slot]:], m.Val[lo:hi])
	})
	return need, nil
}

// spa is Gustavson's sparse accumulator: a dense value array over B's
// columns whose entries count only when their mark equals the current
// generation, so starting the next output row is one increment and the
// arrays are never cleared, between products either.
type spa struct {
	mark []int
	val  []float64
	gen  int
}

// fit readies a for B's cols columns, growing it when it is narrower,
// and starts a new generation, so no mark of an earlier product — one
// that a failed call left mid-row too — counts.
func (a *spa) fit(cols int) {
	if len(a.mark) < cols {
		a.mark, a.val, a.gen = make([]int, cols), make([]float64, cols), 0
	}
	a.gen++
}

// count is the symbolic step: it marks cols in the current row and
// returns how many were new to it.
func (a *spa) count(cols []int) int {
	n := 0
	for _, c := range cols {
		if a.mark[c] != a.gen {
			a.mark[c] = a.gen
			n++
		}
	}
	return n
}

// add is the numeric step: it accumulates scale·(cols, vals) into the
// current row, appending each column new to the row to idx.
func (a *spa) add(scale float64, cols []int, vals []float64, idx []int) []int {
	vals = vals[:len(cols)]
	for k, c := range cols {
		if a.mark[c] != a.gen {
			a.mark[c] = a.gen
			a.val[c] = scale * vals[k]
			idx = append(idx, c)
		} else {
			a.val[c] += scale * vals[k]
		}
	}
	return idx
}

// flush closes the current row of m, whose columns add appended to
// m.ColIdx from position start on: it sorts them and appends the sums
// that are not exactly zero (the no-explicit-zero invariant of CRS and
// of the special buffer), then starts the next row.
func (a *spa) flush(m *compress.CRS, row, start int) {
	touched := m.ColIdx[start:]
	slices.Sort(touched)
	// Compacts in place: the write position never passes the read.
	m.ColIdx = m.ColIdx[:start]
	for _, c := range touched {
		if v := a.val[c]; v != 0 {
			m.ColIdx = append(m.ColIdx, c)
			m.Val = append(m.Val, v)
		}
	}
	m.RowPtr[row+1] = len(m.Val)
	a.gen++
}

// multiply runs Gustavson's algorithm over rank r = pr.Rank's part
// against the need-slot-indexed B rows and returns the rank's rows of
// C, indexed by contribution slot (Contrib[r] order). The symbolic
// pass sizes the slabs exactly; the numeric pass fills them in place.
// Each A-nonzero (i, j) merges B's row j scaled by a_ij into C's row i
// and is charged 2 operations per B entry; the symbolic pass is
// bookkeeping, like plan construction, and is not charged.
func (e *exec) multiply(pr *machine.Proc, gv *gemmView, need *compress.CRS) *compress.CRS {
	pl, r := e.pl, pr.Rank
	feeds, feedPtr := gv.feed[r], gv.feedPtr[r]
	nOut := len(pl.Contrib[r])
	acc := &e.st[r].acc
	acc.fit(need.Cols)
	nnz := 0
	for c := 0; c < nOut; c++ {
		for _, f := range feeds[feedPtr[c]:feedPtr[c+1]] {
			a, slot := gv.rows[f.owner], pl.parts[f.owner].colNeed
			for q := a.RowPtr[f.row]; q < a.RowPtr[f.row+1]; q++ {
				s := slot[a.ColIdx[q]]
				nnz += acc.count(need.ColIdx[need.RowPtr[s]:need.RowPtr[s+1]])
			}
		}
		acc.gen++
	}
	out := &compress.CRS{Rows: nOut, Cols: need.Cols, RowPtr: make([]int, nOut+1),
		ColIdx: make([]int, 0, nnz), Val: make([]float64, 0, nnz)}
	var delta cost.Counter
	for c := 0; c < nOut; c++ {
		start := len(out.ColIdx)
		for _, f := range feeds[feedPtr[c]:feedPtr[c+1]] {
			a, slot := gv.rows[f.owner], pl.parts[f.owner].colNeed
			for q := a.RowPtr[f.row]; q < a.RowPtr[f.row+1]; q++ {
				s := slot[a.ColIdx[q]]
				lo, hi := need.RowPtr[s], need.RowPtr[s+1]
				out.ColIdx = acc.add(a.Val[q], need.ColIdx[lo:hi], need.Val[lo:hi], out.ColIdx)
				delta.AddOps(2 * (hi - lo))
			}
		}
		acc.flush(out, c, start)
	}
	pr.Charge(&e.st[r].comp, simnet.ClassRankComp, delta)
	return out
}

// merge assembles the global C from the rows each rank produced
// (produced[r] is indexed by r's contribution slot). A row one rank
// produced is copied; a row several ranks hold partial sums for goes
// through the accumulator acc, and entries whose final sum is exactly
// zero are dropped there, so the result has the nonzeros of ops.SpGEMM.
func (gv *gemmView) merge(produced []*compress.CRS, acc *spa, cols int) *compress.CRS {
	rows := len(gv.prodPtr) - 1
	acc.fit(cols)
	rowOf := func(p rowRef) (m *compress.CRS, lo, hi int) {
		m = produced[p.owner]
		return m, m.RowPtr[p.row], m.RowPtr[p.row+1]
	}
	nnz := 0
	for g := 0; g < rows; g++ {
		prods := gv.prod[gv.prodPtr[g]:gv.prodPtr[g+1]]
		if len(prods) == 1 {
			_, lo, hi := rowOf(prods[0])
			nnz += hi - lo
			continue
		}
		for _, p := range prods {
			m, lo, hi := rowOf(p)
			nnz += acc.count(m.ColIdx[lo:hi])
		}
		acc.gen++
	}
	c := &compress.CRS{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1),
		ColIdx: make([]int, 0, nnz), Val: make([]float64, 0, nnz)}
	for g := 0; g < rows; g++ {
		prods := gv.prod[gv.prodPtr[g]:gv.prodPtr[g+1]]
		if len(prods) == 1 {
			m, lo, hi := rowOf(prods[0])
			c.ColIdx = append(c.ColIdx, m.ColIdx[lo:hi]...)
			c.Val = append(c.Val, m.Val[lo:hi]...)
			c.RowPtr[g+1] = len(c.Val)
			continue
		}
		start := len(c.ColIdx)
		for _, p := range prods {
			m, lo, hi := rowOf(p)
			c.ColIdx = acc.add(1, m.ColIdx[lo:hi], m.Val[lo:hi], c.ColIdx)
		}
		acc.flush(c, g, start)
	}
	return c
}
