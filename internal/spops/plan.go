// Package spops is the sparsity-aware distributed compute layer: it
// turns a distributed sparse array (the output of internal/dist) into
// something you can repeatedly compute with, moving only the data the
// sparsity structure actually requires.
//
// The core object is the CommPlan, built once per distributed array.
// It derives, from each rank's local compressed arrays, the set of
// global x-indices that rank's nonzeros reference (the "needed-index
// set" of Eckstein & Mátyásfalvi, arXiv:1812.00904), inverts those
// sets into per-pair send lists, and precomputes every scatter/gather
// position the execution engine touches. Executing the plan is then a
// halo exchange: each x-owner sends each consumer exactly the owned
// values that consumer's nonzeros reference, point to point, instead
// of the root broadcasting the whole vector to everyone. The iterative
// solver (Jacobi) keeps vector segments resident and reuses the plan
// every sweep, so per-iteration traffic is O(halo), not O(n·p).
//
// The same needed-index sets double as the row-fetch lists of the
// distributed SpGEMM (Hong et al., arXiv:2408.14558): the B-rows a
// rank must read to multiply its local A-nonzeros are exactly the
// x-indices those nonzeros reference.
//
// All plan execution traffic moves through machine.Proc.Send on tags
// drawn from machine.AllocTags, so it is charged to cost counters and
// recorded into the attached simnet recorder like distribution
// traffic. Plan construction itself is root-side preprocessing and is
// not charged, matching how the distribution schemes treat their own
// plan/packing metadata.
package spops

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/compress"
	"repro/internal/dist"
	"repro/internal/partition"
)

// CommPlan is the reusable communication plan for computing on one
// distributed array. It is a pure index structure: it holds no
// machine reference and allocates no tags, so it can be cached and
// executed on any machine of the right size (the server's machine
// pool reuses machines across jobs). Between calls it also keeps its
// ops' scratch, machine-free, for the next call to reuse.
type CommPlan struct {
	// Part is the partition the array was distributed with.
	Part partition.Partition
	// Res is the distribution result whose local compressed arrays
	// the plan indexes (LocalCRS/LocalCCS/LocalJDS by part id).
	Res *dist.Result

	// Rows, Cols are the global array shape.
	Rows, Cols int
	// P is the machine size; parts and ranks coincide (part k lives
	// at rank k).
	P int

	// Need[r] lists, ascending, the global columns rank r's
	// nonzeros reference. This is the needed-index set: the only x
	// values rank r ever has to see.
	Need [][]int
	// SendIdx[s][r] lists, ascending, the global columns owned by
	// rank s that rank r needs (s != r): the halo send list for the
	// pair (s, r).
	SendIdx [][][]int
	// Contrib[r] lists, ascending, the global rows rank r produces
	// partial y-sums for.
	Contrib [][]int

	// Diag is the global diagonal when the array is square (needed by
	// Jacobi), nil otherwise.
	Diag []float64

	// Stats summarises the plan's traffic shape.
	Stats PlanStats

	// --- precomputed execution positions (see plan build) ---

	xCut []int // P+1 cuts over Cols; rank r owns segment r
	yCut []int // P+1 cuts over Rows
	// recvPos[r][s][i] is the slot in rank r's need-value buffer for
	// SendIdx[s][r][i].
	recvPos [][][]int32
	// ownSrc/ownDst copy rank r's owned-and-needed x values into its
	// need-value buffer: needVal[ownDst[i]] = xSeg[ownSrc[i]].
	ownSrc [][]int32
	ownDst [][]int32
	// parts[k] maps part k's local indices into rank k's buffers.
	parts []partComp
	// ySendPos[r][o][i] is the index into rank r's contribution
	// buffer of the value destined for row ySendRows[r][o][i].
	ySendRows [][][]int
	ySendPos  [][][]int32
	// selfSrc/selfDst accumulate rank r's contributions to rows it
	// owns itself: ySeg[selfDst[i]] += contribVal[selfSrc[i]].
	selfSrc [][]int32
	selfDst [][]int32

	// gemm is what only SpGEMM reads, derived on the first product.
	gemmOnce sync.Once
	gemm     *gemmView
	// sweep is what only the SpMV-family kernel reads, derived on the
	// first SpMV or Jacobi.
	sweepOnce sync.Once
	sweep     []sweepPart

	// execs holds the ops' execution state between calls: one exec, or
	// none while a call has it (takeExec).
	execs chan *exec
}

// partComp holds part k's precomputed index translations.
type partComp struct {
	// colNeed[lj] is the slot in rank k's need-value buffer for
	// local column lj, or -1 when the column has no local support.
	colNeed []int32
	// rowOut[li] is the slot in rank k's contribution buffer for
	// local row li, or -1 when the row has no local nonzeros.
	rowOut []int32
}

// PlanStats summarises the traffic a plan moves, in words (one word =
// one float64 element, the unit of the paper's T_Data accounting).
type PlanStats struct {
	// Ranks is the machine size.
	Ranks int
	// HaloWords is the per-sweep halo payload: the total number of x
	// values exchanged point to point each time the plan executes.
	HaloWords int
	// HaloMsgs is the number of point-to-point halo messages per
	// sweep (pairs with a non-empty send list).
	HaloMsgs int
	// ScatterWords is the one-time cost of placing x segments at
	// their owners from the IO rank.
	ScatterWords int
	// YRouteWords is the per-sweep cost of routing partial y sums to
	// their row owners.
	YRouteWords int
	// GatherWords is the one-time cost of collecting the owned y
	// segments back at the IO rank.
	GatherWords int
	// BcastWords is the broadcast-equivalent per-sweep cost the halo
	// exchange replaces: Cols x values to each non-root rank.
	BcastWords int
	// MaxNeed and TotalNeed size the needed-index sets.
	MaxNeed, TotalNeed int
}

// BuildCommPlan derives the communication plan for one distributed
// array. part must be the partition res was produced with; res must
// hold one local array per part.
func BuildCommPlan(part partition.Partition, res *dist.Result) (*CommPlan, error) {
	if part == nil || res == nil {
		return nil, fmt.Errorf("spops: BuildCommPlan: nil partition or result")
	}
	rows, cols := part.Shape()
	p := part.NumParts()
	arrays := res.PartArrays()
	if len(arrays) != p {
		return nil, fmt.Errorf("spops: BuildCommPlan: %d local arrays for %d parts", len(arrays), p)
	}

	pl := &CommPlan{
		Part: part, Res: res,
		Rows: rows, Cols: cols, P: p,
		// Vector ownership: contiguous ceil-div blocks over the ranks —
		// x over columns, y over rows. For square arrays the two cuts
		// coincide, which is what lets Jacobi feed y straight back in
		// as the next x without a remap.
		xCut:  partition.BlockCuts(cols, p),
		yCut:  partition.BlockCuts(rows, p),
		execs: make(chan *exec, 1),
	}

	if err := pl.buildNeedSets(); err != nil {
		return nil, err
	}
	pl.buildHalo()
	if err := pl.buildContrib(); err != nil {
		return nil, err
	}
	if rows == cols {
		pl.buildDiag()
	}
	pl.buildStats()
	return pl, nil
}

// xOwner returns the rank owning global column j.
func (pl *CommPlan) xOwner(j int) int { return searchCuts(pl.xCut, j) }

// yOwner returns the rank owning global row i.
func (pl *CommPlan) yOwner(i int) int { return searchCuts(pl.yCut, i) }

// searchCuts returns the block index of position j in cuts.
func searchCuts(cuts []int, j int) int {
	// sort.SearchInts over cut starts: find the last cut <= j.
	i := sort.SearchInts(cuts, j+1) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(cuts)-1 {
		i = len(cuts) - 2
	}
	return i
}

// xRange / yRange return rank r's owned spans.
func (pl *CommPlan) xRange(r int) (int, int) { return pl.xCut[r], pl.xCut[r+1] }

func (pl *CommPlan) yRange(r int) (int, int) { return pl.yCut[r], pl.yCut[r+1] }

// buildNeedSets computes Need[r] from the local compressed arrays'
// column support, plus the per-part colNeed position maps.
func (pl *CommPlan) buildNeedSets() error {
	pl.Need = make([][]int, pl.P)
	pl.parts = make([]partComp, pl.P)
	// Transient per-rank mask over global columns.
	masks := make([][]bool, pl.P)
	for k := 0; k < pl.P; k++ {
		masks[k] = make([]bool, pl.Cols)
		colMap := pl.Part.ColMap(k)
		sup, err := colSupport(pl.Res, k, len(colMap))
		if err != nil {
			return err
		}
		for lj, has := range sup {
			if has {
				masks[k][colMap[lj]] = true
			}
		}
	}
	for r := 0; r < pl.P; r++ {
		for j, has := range masks[r] {
			if has {
				pl.Need[r] = append(pl.Need[r], j)
			}
		}
	}
	// Positions of each global column within its rank's need list.
	needPos := make([][]int32, pl.P)
	for r := 0; r < pl.P; r++ {
		if len(pl.Need[r]) == 0 {
			continue
		}
		needPos[r] = make([]int32, pl.Cols)
		for i := range needPos[r] {
			needPos[r][i] = -1
		}
		for i, j := range pl.Need[r] {
			needPos[r][j] = int32(i)
		}
	}
	for k := 0; k < pl.P; k++ {
		colMap := pl.Part.ColMap(k)
		cn := make([]int32, len(colMap))
		for lj, j := range colMap {
			cn[lj] = -1
			if needPos[k] != nil {
				cn[lj] = needPos[k][j]
			}
		}
		pl.parts[k].colNeed = cn
	}
	return nil
}

// buildHalo inverts the need sets into per-pair send lists and bakes
// the receiver-side fill positions.
func (pl *CommPlan) buildHalo() {
	pl.SendIdx = make([][][]int, pl.P)
	pl.recvPos = make([][][]int32, pl.P)
	pl.ownSrc = make([][]int32, pl.P)
	pl.ownDst = make([][]int32, pl.P)
	for s := 0; s < pl.P; s++ {
		pl.SendIdx[s] = make([][]int, pl.P)
	}
	for r := 0; r < pl.P; r++ {
		pl.recvPos[r] = make([][]int32, pl.P)
		lo, hi := pl.xRange(r)
		for i, j := range pl.Need[r] {
			if j >= lo && j < hi {
				pl.ownSrc[r] = append(pl.ownSrc[r], int32(j-lo))
				pl.ownDst[r] = append(pl.ownDst[r], int32(i))
				continue
			}
			o := pl.xOwner(j)
			pl.SendIdx[o][r] = append(pl.SendIdx[o][r], j)
			pl.recvPos[r][o] = append(pl.recvPos[r][o], int32(i))
		}
	}
}

// buildContrib computes the rows each rank produces partial sums for,
// the per-part rowOut maps, and the y routing lists.
func (pl *CommPlan) buildContrib() error {
	masks := make([][]bool, pl.P)
	for k := 0; k < pl.P; k++ {
		masks[k] = make([]bool, pl.Rows)
		rowMap := pl.Part.RowMap(k)
		sup, err := rowSupport(pl.Res, k, len(rowMap))
		if err != nil {
			return err
		}
		for li, has := range sup {
			if has {
				masks[k][rowMap[li]] = true
			}
		}
	}
	pl.Contrib = make([][]int, pl.P)
	contribPos := make([][]int32, pl.P)
	for r := 0; r < pl.P; r++ {
		for i, has := range masks[r] {
			if has {
				pl.Contrib[r] = append(pl.Contrib[r], i)
			}
		}
		if len(pl.Contrib[r]) > 0 {
			contribPos[r] = make([]int32, pl.Rows)
			for i := range contribPos[r] {
				contribPos[r][i] = -1
			}
			for i, g := range pl.Contrib[r] {
				contribPos[r][g] = int32(i)
			}
		}
	}
	for k := 0; k < pl.P; k++ {
		rowMap := pl.Part.RowMap(k)
		ro := make([]int32, len(rowMap))
		for li, g := range rowMap {
			ro[li] = -1
			if contribPos[k] != nil {
				ro[li] = contribPos[k][g]
			}
		}
		pl.parts[k].rowOut = ro
	}
	// Route each contributed row to its owner.
	pl.ySendRows = make([][][]int, pl.P)
	pl.ySendPos = make([][][]int32, pl.P)
	pl.selfSrc = make([][]int32, pl.P)
	pl.selfDst = make([][]int32, pl.P)
	for r := 0; r < pl.P; r++ {
		pl.ySendRows[r] = make([][]int, pl.P)
		pl.ySendPos[r] = make([][]int32, pl.P)
		lo, _ := pl.yRange(r)
		for i, g := range pl.Contrib[r] {
			o := pl.yOwner(g)
			if o == r {
				pl.selfSrc[r] = append(pl.selfSrc[r], int32(i))
				pl.selfDst[r] = append(pl.selfDst[r], int32(g-lo))
				continue
			}
			pl.ySendRows[r][o] = append(pl.ySendRows[r][o], g)
			pl.ySendPos[r][o] = append(pl.ySendPos[r][o], int32(i))
		}
	}
	return nil
}

// buildDiag extracts the global diagonal from the local arrays.
func (pl *CommPlan) buildDiag() {
	pl.Diag = make([]float64, pl.Rows)
	for k := 0; k < pl.P; k++ {
		rowMap := pl.Part.RowMap(k)
		colMap := pl.Part.ColMap(k)
		forEachNZ(pl.Res, k, func(li, lj int, v float64) {
			if rowMap[li] == colMap[lj] {
				pl.Diag[rowMap[li]] = v
			}
		})
	}
}

// buildStats fills the traffic summary.
func (pl *CommPlan) buildStats() {
	st := &pl.Stats
	st.Ranks = pl.P
	for s := 0; s < pl.P; s++ {
		for r := 0; r < pl.P; r++ {
			if n := len(pl.SendIdx[s][r]); n > 0 {
				st.HaloWords += n
				st.HaloMsgs++
			}
		}
	}
	for r := 0; r < pl.P; r++ {
		if r == ioRank {
			continue
		}
		lo, hi := pl.xRange(r)
		st.ScatterWords += hi - lo
		ylo, yhi := pl.yRange(r)
		st.GatherWords += yhi - ylo
	}
	for r := 0; r < pl.P; r++ {
		for o := 0; o < pl.P; o++ {
			st.YRouteWords += len(pl.ySendRows[r][o])
		}
	}
	st.BcastWords = pl.Cols * (pl.P - 1)
	for r := 0; r < pl.P; r++ {
		if n := len(pl.Need[r]); n > 0 {
			st.TotalNeed += n
			if n > st.MaxNeed {
				st.MaxNeed = n
			}
		}
	}
}

// sweepPart is part k seen from the SpMV-family kernel: partComp's index
// translations applied to every stored nonzero once, so that a sweep
// reads val[q] * need[slot[q]] and not, on every nonzero of every
// sweep, need[colNeed[ColIdx[q]]]. It costs 4 bytes per stored nonzero
// and is derived once per plan, on the first SpMV-family op; the plan is
// cached by core.Distribution and by the server, so no op pays for it.
type sweepPart struct {
	// slot has one entry per stored nonzero, in storage order. CRS and
	// JDS: the nonzero's slot in rank k's need-value buffer
	// (colNeed[ColIdx[q]]). CCS: its slot in rank k's contribution
	// buffer (rowOut[RowIdx[q]]); the need slot stays per column.
	slot []int32
	// lines lists, ascending, the local rows (CRS) or columns (CCS) that
	// store a nonzero; the kernel visits no other. Unused by JDS, whose
	// diagonals hold no empty row.
	lines []int32
}

// sweepView returns the plan's per-part sweep view, building it on
// first use.
func (pl *CommPlan) sweepView() []sweepPart {
	pl.sweepOnce.Do(func() { pl.sweep = pl.buildSweepView() })
	return pl.sweep
}

func (pl *CommPlan) buildSweepView() []sweepPart {
	sv := make([]sweepPart, pl.P)
	for k := range sv {
		pc, sp := &pl.parts[k], &sv[k]
		switch pl.Res.Method { // BuildCommPlan admitted no other method
		case dist.CRS:
			a := pl.Res.LocalCRS[k]
			sp.slot = translate(a.ColIdx, pc.colNeed)
			sp.lines = nonEmpty(a.RowPtr)
		case dist.CCS:
			a := pl.Res.LocalCCS[k]
			sp.slot = translate(a.RowIdx, pc.rowOut)
			sp.lines = nonEmpty(a.ColPtr)
		case dist.JDS:
			sp.slot = translate(pl.Res.LocalJDS[k].ColIdx, pc.colNeed)
		}
	}
	return sv
}

// translate maps each local index through pos.
func translate(idx []int, pos []int32) []int32 {
	out := make([]int32, len(idx))
	for q, j := range idx {
		out[q] = pos[j]
	}
	return out
}

// nonEmpty lists the lines of a CRS or CCS pointer array that store at
// least one nonzero.
func nonEmpty(ptr []int) []int32 {
	var lines []int32
	for i := 0; i+1 < len(ptr); i++ {
		if ptr[i+1] > ptr[i] {
			lines = append(lines, int32(i))
		}
	}
	return lines
}

// rowRef names one sparse row inside a set of arrays: row `row` of the
// array `owner` (a part id or a rank, by context).
type rowRef struct{ owner, row int32 }

// gemmView is the plan seen from the SpGEMM kernel, which walks A by
// output row where SpMV walks it in storage order. It is derived once
// per plan, on the first product, and read-only afterwards; the plan is
// cached by core.Distribution and by the server, so no op pays for it.
type gemmView struct {
	// rows[k] holds part k's nonzeros grouped by local row: LocalCRS[k]
	// itself, or a one-time conversion of a CCS or JDS part.
	rows []*compress.CRS
	// feed[r][feedPtr[r][c]:feedPtr[r][c+1]] lists the (part, local
	// row) pairs that accumulate into rank r's contribution slot c: the
	// inverse of partComp.rowOut.
	feedPtr [][]int32
	feed    [][]rowRef
	// prod[prodPtr[g]:prodPtr[g+1]] lists the (rank, contribution slot)
	// pairs that produce global row g of C, ranks ascending: the
	// inverse of Contrib.
	prodPtr []int32
	prod    []rowRef
}

// gemmView returns the plan's SpGEMM view, building it on first use.
func (pl *CommPlan) gemmView() *gemmView {
	pl.gemmOnce.Do(func() { pl.gemm = pl.buildGemmView() })
	return pl.gemm
}

func (pl *CommPlan) buildGemmView() *gemmView {
	gv := &gemmView{
		rows:    make([]*compress.CRS, pl.P),
		feedPtr: make([][]int32, pl.P),
		feed:    make([][]rowRef, pl.P),
	}
	for k := 0; k < pl.P; k++ {
		switch pl.Res.Method { // BuildCommPlan admitted no other method
		case dist.CRS:
			gv.rows[k] = pl.Res.LocalCRS[k]
		case dist.CCS:
			gv.rows[k] = compress.CCSToCRS(pl.Res.LocalCCS[k])
		case dist.JDS:
			gv.rows[k] = compress.JDSToCRS(pl.Res.LocalJDS[k])
		}
	}
	for r := 0; r < pl.P; r++ {
		gv.feedPtr[r], gv.feed[r] = groupRefs(len(pl.Contrib[r]), func(emit func(int32, rowRef)) {
			for li, c := range pl.parts[r].rowOut {
				if c >= 0 {
					emit(c, rowRef{owner: int32(r), row: int32(li)})
				}
			}
		})
	}
	gv.prodPtr, gv.prod = groupRefs(pl.Rows, func(emit func(int32, rowRef)) {
		for r := 0; r < pl.P; r++ {
			for c, g := range pl.Contrib[r] {
				emit(int32(g), rowRef{owner: int32(r), row: int32(c)})
			}
		}
	})
	return gv
}

// groupRefs is a counting sort of the refs each emits, by key in
// [0, n): refs[ptr[k]:ptr[k+1]] are those emitted under key k, in
// emission order. each runs twice and must emit the same sequence.
func groupRefs(n int, each func(emit func(key int32, ref rowRef))) (ptr []int32, refs []rowRef) {
	ptr = make([]int32, n+1)
	each(func(k int32, _ rowRef) { ptr[k+1]++ })
	for k := 0; k < n; k++ {
		ptr[k+1] += ptr[k]
	}
	refs = make([]rowRef, ptr[n])
	next := append([]int32(nil), ptr[:n]...)
	each(func(k int32, ref rowRef) {
		refs[next[k]] = ref
		next[k]++
	})
	return ptr, refs
}
