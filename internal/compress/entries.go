package compress

import (
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/sparse"
)

// The entry-list kernels: a part handed over as its nonzeros, in the
// order they arrived, instead of as cells of a dense array — what a
// streaming receiver holds at finalize. Each kernel is the twin of a
// dense-array kernel (EncodeED, PackPart) and returns what that kernel
// returns from the dense array the same entries would fill: a later
// entry for a cell overwrites an earlier one, and an explicit zero
// erases the cell. The work is O(nnz + rows + cols); the charges are
// the dense kernel's closed forms, booked once.

// entryBlockLen is the capacity of one staging block: 4096 entries,
// 64 KiB.
const entryBlockLen = 4096

// entryBlock holds entryBlockLen entries as parallel arrays, 16 B per
// entry.
type entryBlock struct {
	row, col [entryBlockLen]int32
	val      [entryBlockLen]float64
}

// Entries stages one part's entries of a rows x cols global array in
// fixed-size blocks: no doubling growth, no per-line slice. Indices are
// global and must lie inside the array (the partition constructors
// bound both dimensions by math.MaxInt32, so they fit an int32). A
// kernel consumes the staging, releasing each block as soon as it has
// been read for the last time; Entries is empty afterwards.
type Entries struct {
	rows, cols int
	blocks     []*entryBlock
	n          int
}

// NewEntries returns an empty staging for a rows x cols array.
func NewEntries(rows, cols int) *Entries { return &Entries{rows: rows, cols: cols} }

// Add stages the entry (row, col) = v.
func (e *Entries) Add(row, col int, v float64) {
	t := e.n % entryBlockLen
	if t == 0 {
		e.blocks = append(e.blocks, new(entryBlock))
	}
	b := e.blocks[len(e.blocks)-1]
	b.row[t], b.col[t], b.val[t] = int32(row), int32(col), v
	e.n++
}

// AddTriplets stages a frame's (row, col, value) triplets, in order.
// Each index word must hold an index of the array exactly (exactInt:
// integral, so no fraction, NaN or infinity); the first triplet whose
// words do not is an error naming it.
func (e *Entries) AddTriplets(w []float64) error {
	for i := 0; i+2 < len(w); i += 3 {
		r, okr := exactInt(w[i])
		c, okc := exactInt(w[i+1])
		if !okr || !okc || r < 0 || r >= e.rows || c < 0 || c >= e.cols {
			return fmt.Errorf("compress: entry (%v, %v) is not a cell of the %dx%d array", w[i], w[i+1], e.rows, e.cols)
		}
		e.Add(r, c, w[i+2])
	}
	return nil
}

// Len returns the number of staged entries.
func (e *Entries) Len() int { return e.n }

// block returns block i's filled prefix: its major and minor index
// arrays in the given orientation, then its values.
func (e *Entries) block(i int, major Major) ([]int32, []int32, []float64) {
	b := e.blocks[i]
	n := min(entryBlockLen, e.n-i*entryBlockLen)
	if major == ColMajor {
		return b.col[:n], b.row[:n], b.val[:n]
	}
	return b.row[:n], b.col[:n], b.val[:n]
}

// consumed releases block i, and the staging once the last one goes.
func (e *Entries) consumed(i int) {
	e.blocks[i] = nil
	if i == len(e.blocks)-1 {
		e.blocks, e.n = nil, 0
	}
}

// slots maps each of dim global indices to its position in the sorted
// ownership map m, or to -1 when m does not own it, in s's backing
// array when it is large enough.
func slots(s []int32, m []int, dim int) []int32 {
	s = resize(s, dim)
	for i := range s {
		s[i] = -1
	}
	for l, g := range m {
		s[g] = int32(l)
	}
	return s
}

// resize returns s with length n: s's backing array when it holds n,
// a new one with 1/16 to spare otherwise — one partition's parts are
// close in size, so a scratch sized by the first part finalized mostly
// serves the rest. The contents are left as they are.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n, n+n/16)
}

// EntryScratch is the working memory of EncodeEDPartEntries and
// PackPartEntries: the counting-sort arrays, the special buffer and the
// wire form written from it. A call grows what it needs and leaves it
// for the next, so parts finalized one after another share one scratch;
// the buffer a call returns lives in the scratch and is overwritten by
// the next call.
type EntryScratch struct {
	line, byMinor   []int32
	ptr, run, next  []int
	vals, buf, wire []float64
}

func errForeign(row, col int32) error {
	return fmt.Errorf("compress: entry (%d, %d) lies outside the part", row, col)
}

// foreign names the first staged entry outside rowMap x colMap — the
// error path of a kernel that has detected one without locating it.
func (e *Entries) foreign(rowMap, colMap []int) error {
	rs, cs := slots(nil, rowMap, e.rows), slots(nil, colMap, e.cols)
	for i := range e.blocks {
		rows, cols, _ := e.block(i, RowMajor)
		for t, r := range rows {
			if rs[r] < 0 || cs[cols[t]] < 0 {
				return errForeign(r, cols[t])
			}
		}
	}
	return fmt.Errorf("compress: an entry lies outside the part")
}

// EncodeEDPartEntries is EncodeED for a part handed over as its staged
// entries: the same special buffer — counts per major line of
// rowMap x colMap in the given layout, then (global minor index, value)
// pairs line by line — and the same charge, nr·nc + 3·nnz, booked once.
// It works in s and returns a buffer of s; a nil s allocates a
// scratch of its own. e is consumed.
//
// The pairs are ordered by two stable counting sorts: by global minor
// index, visiting only the minors the part owns in map order, then by
// major line in the part's map order. Within a line, entries for one
// cell end up adjacent in arrival order, so one linear pass keeps the
// last and drops it if it is zero. An entry outside the part is an
// error, found without a per-entry lookup beyond the sort's own: a
// major index the part does not own has no line, and a minor index it
// does not own leaves the counts over owned minors short of e.Len().
func EncodeEDPartEntries(e *Entries, rowMap, colMap []int, major Major, s *EntryScratch, ctr *cost.Counter) ([]float64, error) {
	majMap, minMap, majDim, minDim := rowMap, colMap, e.rows, e.cols
	if major == ColMajor {
		majMap, minMap, majDim, minDim = colMap, rowMap, e.cols, e.rows
	}
	if s == nil {
		s = new(EntryScratch)
	}
	// Counting pass: entries per line and per global minor index.
	s.line = slots(s.line, majMap, majDim)
	s.ptr, s.run = resize(s.ptr, len(majMap)+1), resize(s.run, minDim)
	clear(s.ptr)
	clear(s.run)
	line, ptr, run := s.line, s.ptr, s.run
	for i := range e.blocks {
		maj, mnr, _ := e.block(i, major)
		for t, g := range maj {
			l := line[g]
			if l < 0 {
				r, c := g, mnr[t]
				if major == ColMajor {
					r, c = c, r
				}
				return nil, errForeign(r, c)
			}
			ptr[l+1]++
			run[mnr[t]]++
		}
	}
	n := e.n
	total := 0
	for _, m := range minMap {
		c := run[m]
		run[m] = total
		total += c
	}
	if total != n {
		return nil, e.foreign(rowMap, colMap)
	}
	// Sort by minor: run[m] walks the slots of minor m's run, which ends
	// where the next owned minor's begins. Each block goes as soon as it
	// has been read.
	s.byMinor, s.vals = resize(s.byMinor, n), resize(s.vals, n)
	byMinor, vals := s.byMinor, s.vals // the entry's line, its value
	for i := range e.blocks {
		maj, mnr, val := e.block(i, major)
		for t, m := range mnr {
			p := run[m]
			run[m] = p + 1
			byMinor[p], vals[p] = line[maj[t]], val[t]
		}
		e.consumed(i)
	}
	// Sort by line, into the pair region: the pairs of line l start at
	// ptr[l]. Within a line the minors ascend, and one cell's entries
	// keep their arrival order.
	lines := len(majMap)
	for l := 0; l < lines; l++ {
		ptr[l+1] += ptr[l]
	}
	s.buf, s.next = resize(s.buf, lines+2*n), resize(s.next, lines)
	buf, next := s.buf, s.next
	pairs := buf[lines:]
	copy(next, ptr)
	compact := false // some cell arrived twice, or as a zero
	p := 0
	for _, m := range minMap {
		g := float64(m)
		for end := run[m]; p < end; p++ {
			l, v := byMinor[p], vals[p]
			q := next[l]
			next[l] = q + 1
			if v == 0 || q > ptr[l] && pairs[2*q-2] == g {
				compact = true
			}
			pairs[2*q], pairs[2*q+1] = g, v
		}
	}
	// Keep the last entry of each cell unless it is zero, compacting in
	// place, and write the counts. A stream with neither duplicates nor
	// zeros — every generator's and most files' — skips the pass.
	w := n
	if !compact {
		for l := 0; l < lines; l++ {
			buf[l] = float64(ptr[l+1] - ptr[l])
		}
	} else {
		w = 0
		for l := 0; l < lines; l++ {
			start := w
			for q, end := ptr[l], ptr[l+1]; q < end; q++ {
				if q+1 < end && pairs[2*q+2] == pairs[2*q] {
					continue // a later entry for this cell wins
				}
				if pairs[2*q+1] == 0 {
					continue // an explicit zero erases the cell
				}
				pairs[2*w], pairs[2*w+1] = pairs[2*q], pairs[2*q+1]
				w++
			}
			buf[l] = float64(w - start)
		}
	}
	ctr.AddOps(len(rowMap)*len(colMap) + 3*w)
	return buf[:lines+2*w], nil
}

// PackPartEntries is PackPart for a part handed over as its staged
// entries: EncodeEDPartEntries, then packSpecial into s's wire buffer,
// which the next call overwrites. e is consumed.
func (f *Format) PackPartEntries(e *Entries, rowMap, colMap []int, local bool, s *EntryScratch, comp, dist *cost.Counter) ([]float64, int64, time.Duration, error) {
	start := time.Now()
	special, err := EncodeEDPartEntries(e, rowMap, colMap, f.Major, s, comp)
	if err != nil {
		return nil, 0, 0, err
	}
	scan := time.Since(start)
	wire, extra, err := f.packSpecial(special, rowMap, colMap, local, s.wire, comp, dist)
	if err == nil {
		s.wire = wire
	}
	return wire, extra, scan, err
}

// Dense scatters the staged entries into the dense local array of the
// part rowMap x colMap, in arrival order — a later entry overwrites, a
// zero erases, exactly as writing them into the global array would. e
// is consumed.
func (e *Entries) Dense(rowMap, colMap []int) (*sparse.Dense, error) {
	rs, cs := slots(nil, rowMap, e.rows), slots(nil, colMap, e.cols)
	d := sparse.NewDense(len(rowMap), len(colMap))
	data, nc := d.Data(), len(colMap)
	for i := range e.blocks {
		rows, cols, val := e.block(i, RowMajor)
		for t, r := range rows {
			li, lj := rs[r], cs[cols[t]]
			if li < 0 || lj < 0 {
				return nil, errForeign(r, cols[t])
			}
			data[int(li)*nc+int(lj)] = val[t]
		}
		e.consumed(i)
	}
	return d, nil
}
