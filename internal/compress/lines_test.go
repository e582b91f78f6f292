package compress

import (
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/sparse"
)

// twin is the exported surface CRS and CCS both offer, as method
// expressions, so one list of cases can be run through either format's
// wrappers. Cases are written in the lines vocabulary (line, minor);
// byCol says which of the two is the row.
type twin[T any] struct {
	name      string
	byCol     bool
	of        func(lines) T
	view      func(T) lines
	validate  func(T) error
	at        func(m T, i, j int) float64
	equal     func(a, b T) bool
	clone     func(T) T
	shift     func(m T, delta int, ctr *cost.Counter)
	fromCOO   func(*sparse.COO) (T, error)
	pack      func(m T, ctr *cost.Counter) []float64
	packInto  func(m T, buf []float64, ctr *cost.Counter) []float64
	unpack    func(buf []float64, rows, cols int, ctr *cost.Counter) (T, error)
	transpose func(T) lines // the same array in the other format
	dense     func(T) *sparse.Dense
}

// rc orders a (line, minor) pair — an index or a shape — as (row, col).
func (tw twin[T]) rc(line, minor int) (int, int) {
	if tw.byCol {
		return minor, line
	}
	return line, minor
}

// twinFixture is three lines of span four, the middle one empty:
//
//	line 0: minor 0 -> 1, minor 3 -> 2
//	line 1: —
//	line 2: minor 0 -> 3, minor 1 -> 4, minor 2 -> 5
//
// a 3x4 array as a CRS and its 4x3 transpose as a CCS.
func twinFixture() lines {
	return lines{n: 3, span: 4, ptr: []int{0, 2, 2, 5},
		idx: []int{0, 3, 0, 1, 2}, val: []float64{1, 2, 3, 4, 5}}
}

// TestLinesTwins holds CRS and CCS to one table: every rule of the
// shared kernels is exercised through each format's exported wrappers,
// so a rule added for one format cannot be missed for the other and a
// wrapper that exchanges its axes wrongly fails here.
func TestLinesTwins(t *testing.T) {
	runTwin(t, twin[*CRS]{name: "CRS", of: crsOf, view: (*CRS).lines,
		validate: (*CRS).Validate, at: (*CRS).At, equal: (*CRS).Equal, clone: (*CRS).Clone,
		shift: (*CRS).ShiftCols, fromCOO: CompressCRSFromCOO,
		pack: PackCRS, packInto: PackCRSInto, unpack: UnpackCRS,
		transpose: func(m *CRS) lines { return CRSToCCS(m).lines() },
		dense:     (*CRS).Decompress})
	runTwin(t, twin[*CCS]{name: "CCS", byCol: true, of: ccsOf, view: (*CCS).lines,
		validate: (*CCS).Validate, at: (*CCS).At, equal: (*CCS).Equal, clone: (*CCS).Clone,
		shift: (*CCS).ShiftRows, fromCOO: CompressCCSFromCOO,
		pack: PackCCS, packInto: (*CCS).PackInto, unpack: UnpackCCS,
		transpose: func(m *CCS) lines { return CCSToCRS(m).lines() },
		dense:     (*CCS).Decompress})
}

func runTwin[T any](t *testing.T, tw twin[T]) {
	fresh := func() T { return tw.of(twinFixture().clone()) }
	// damaged applies one edit to a fresh copy of the fixture.
	damaged := func(edit func(l *lines)) T {
		l := twinFixture().clone()
		edit(&l)
		return tw.of(l)
	}
	rows, cols := tw.rc(3, 4)

	t.Run(tw.name+"/validate", func(t *testing.T) {
		if err := tw.validate(fresh()); err != nil {
			t.Fatalf("fixture rejected: %v", err)
		}
		for name, edit := range map[string]func(l *lines){
			"negative lines":    func(l *lines) { l.n = -1 },
			"negative span":     func(l *lines) { l.span = -1 },
			"short ptr":         func(l *lines) { l.ptr = l.ptr[:3] },
			"nil ptr":           func(l *lines) { l.ptr = nil },
			"ptr[0] not 0":      func(l *lines) { l.ptr[0] = 1 },
			"idx shorter":       func(l *lines) { l.idx = l.idx[:4] },
			"ptr[last] not nnz": func(l *lines) { l.ptr[3] = 4 },
			"ptr decreases":     func(l *lines) { l.ptr[1], l.ptr[2] = 7, 0 },
			"index negative":    func(l *lines) { l.idx[0] = -1 },
			"index at span":     func(l *lines) { l.idx[1] = 4 },
			"not ascending":     func(l *lines) { l.idx[2], l.idx[3] = 1, 0 },
			"repeated index":    func(l *lines) { l.idx[3] = 0 },
			"explicit zero":     func(l *lines) { l.val[4] = 0 },
		} {
			if tw.validate(damaged(edit)) == nil {
				t.Errorf("%s accepted", name)
			}
		}
	})

	t.Run(tw.name+"/at", func(t *testing.T) {
		m := fresh()
		if r, c := tw.dense(m).Rows(), tw.dense(m).Cols(); r != rows || c != cols {
			t.Fatalf("decompressed shape %dx%d, want %dx%d", r, c, rows, cols)
		}
		want := map[[2]int]float64{{0, 0}: 1, {0, 3}: 2, {2, 0}: 3, {2, 1}: 4, {2, 2}: 5}
		for line := 0; line < 3; line++ {
			for minor := 0; minor < 4; minor++ {
				i, j := tw.rc(line, minor)
				if got := tw.at(m, i, j); got != want[[2]int{line, minor}] {
					t.Errorf("At(%d, %d) = %g, want %g", i, j, got, want[[2]int{line, minor}])
				}
				if got := tw.dense(m).At(i, j); got != want[[2]int{line, minor}] {
					t.Errorf("Decompress()(%d, %d) = %g, want %g", i, j, got, want[[2]int{line, minor}])
				}
			}
		}
		for _, lm := range [][2]int{{-1, 0}, {3, 0}, {0, -1}, {0, 4}} {
			i, j := tw.rc(lm[0], lm[1])
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("At(%d, %d) outside %dx%d did not panic", i, j, rows, cols)
					}
				}()
				tw.at(m, i, j)
			}()
		}
	})

	t.Run(tw.name+"/equal", func(t *testing.T) {
		if !tw.equal(fresh(), fresh()) {
			t.Error("equal copies compare unequal")
		}
		// The last four differ in length only: Equal must compare the
		// lengths before it indexes, or it runs past the shorter array.
		for name, edit := range map[string]func(l *lines){
			"lines":     func(l *lines) { l.n = 4 },
			"span":      func(l *lines) { l.span = 5 },
			"ptr":       func(l *lines) { l.ptr[1] = 1 },
			"idx":       func(l *lines) { l.idx[1] = 2 },
			"val":       func(l *lines) { l.val[0] = -1 },
			"short ptr": func(l *lines) { l.ptr = l.ptr[:2] },
			"short idx": func(l *lines) { l.idx = l.idx[:4] },
			"nil idx":   func(l *lines) { l.idx = nil },
			"short val": func(l *lines) { l.val = l.val[:4] },
		} {
			if tw.equal(fresh(), damaged(edit)) || tw.equal(damaged(edit), fresh()) {
				t.Errorf("arrays differing in %s compare equal", name)
			}
		}
	})

	t.Run(tw.name+"/clone", func(t *testing.T) {
		m := fresh()
		c := tw.view(tw.clone(m))
		c.ptr[1], c.idx[0], c.val[0] = 9, 9, 9
		if !tw.equal(m, fresh()) {
			t.Error("writing through the clone changed the original")
		}
	})

	t.Run(tw.name+"/shift", func(t *testing.T) {
		global := damaged(func(l *lines) {
			for k := range l.idx {
				l.idx[k] += 10
			}
		})
		var ctr cost.Counter
		tw.shift(global, 10, &ctr)
		if !tw.equal(global, fresh()) {
			t.Error("shift did not recover the local indices")
		}
		if ctr.Ops != 5 {
			t.Errorf("shift charged %d ops, want 5 (one per index)", ctr.Ops)
		}
		ctr.Reset()
		tw.shift(global, 0, &ctr)
		if ctr.Ops != 0 || !tw.equal(global, fresh()) {
			t.Errorf("shift by 0 charged %d ops or moved an index (Case 3.2.1 is free)", ctr.Ops)
		}
	})

	t.Run(tw.name+"/fromCOO", func(t *testing.T) {
		l := twinFixture()
		coo := sparse.NewCOO(rows, cols)
		for line := l.n - 1; line >= 0; line-- { // out of order: the constructor sorts
			for k := l.ptr[line]; k < l.ptr[line+1]; k++ {
				i, j := tw.rc(line, l.idx[k])
				coo.Add(i, j, l.val[k])
			}
		}
		m, err := tw.fromCOO(coo)
		if err != nil {
			t.Fatal(err)
		}
		if !tw.equal(m, fresh()) {
			t.Errorf("from COO: got %+v", tw.view(m))
		}
		i, j := tw.rc(2, 1)
		coo.Entries = append(coo.Entries, sparse.Entry{Row: i, Col: j, Val: 8})
		if _, err := tw.fromCOO(coo); err == nil {
			t.Error("duplicate coordinate accepted")
		}
		if _, err := tw.fromCOO(&sparse.COO{Rows: rows, Cols: cols,
			Entries: []sparse.Entry{{Row: rows, Col: 0, Val: 1}}}); err == nil {
			t.Error("out-of-range entry accepted")
		}
	})

	t.Run(tw.name+"/transpose", func(t *testing.T) {
		tr := tw.transpose(fresh())
		want := lines{n: 4, span: 3, ptr: []int{0, 2, 3, 4, 5},
			idx: []int{0, 2, 2, 2, 0}, val: []float64{1, 3, 4, 5, 2}}
		if !tr.equal(want) {
			t.Errorf("transposed to %+v, want %+v", tr, want)
		}
		if !tr.transpose().equal(twinFixture()) {
			t.Error("transposing twice is not the identity")
		}
	})

	t.Run(tw.name+"/wire", func(t *testing.T) {
		m := fresh()
		var pctr cost.Counter
		buf := tw.pack(m, &pctr)
		want := []float64{0, 2, 2, 5, 0, 3, 0, 1, 2, 1, 2, 3, 4, 5}
		if len(buf) != len(want) || pctr.Ops != int64(len(want)) {
			t.Fatalf("packed %d words for %d ops, want %d of each", len(buf), pctr.Ops, len(want))
		}
		for k := range want {
			if buf[k] != want[k] {
				t.Fatalf("packed %v, want %v", buf, want)
			}
		}
		// PackInto appends after what the buffer already holds and
		// charges only for what it appended.
		pctr.Reset()
		into := tw.packInto(m, []float64{-7}, &pctr)
		if len(into) != 1+len(want) || into[0] != -7 || into[1+4] != 0 || into[len(into)-1] != 5 || pctr.Ops != int64(len(want)) {
			t.Errorf("PackInto after one word: %v, %d ops", into, pctr.Ops)
		}

		var uctr cost.Counter
		got, err := tw.unpack(buf, rows, cols, &uctr)
		if err != nil {
			t.Fatal(err)
		}
		if !tw.equal(got, m) || uctr.Ops != int64(len(buf)) {
			t.Errorf("unpacked %+v for %d ops, want the fixture for %d", tw.view(got), uctr.Ops, len(buf))
		}

		mutate := func(at int, w float64) []float64 {
			bad := append([]float64(nil), buf...)
			bad[at] = w
			return bad
		}
		negRows, negCols := tw.rc(-1, 4)
		spanRows, spanCols := tw.rc(3, -1)
		for name, c := range map[string]struct {
			buf        []float64
			rows, cols int
		}{
			"negative lines":       {buf, negRows, negCols},
			"negative span":        {buf, spanRows, spanCols},
			"shorter than ptr":     {buf[:3], rows, cols},
			"truncated":            {buf[:len(buf)-1], rows, cols},
			"one word long":        {append(append([]float64(nil), buf...), 1), rows, cols},
			"fractional ptr":       {mutate(1, 0.5), rows, cols},
			"negative ptr":         {mutate(0, -3), rows, cols},
			"NaN nnz":              {mutate(3, math.NaN()), rows, cols},
			"nnz beyond 2^53":      {mutate(3, 1<<60), rows, cols},
			"nnz beyond buffer":    {mutate(3, 6), rows, cols},
			"NaN index":            {mutate(4, math.NaN()), rows, cols},
			"infinite index":       {mutate(5, math.Inf(1)), rows, cols},
			"fractional index":     {mutate(6, 1.5), rows, cols},
			"index beyond 2^53":    {mutate(7, -(1 << 60)), rows, cols},
			"wrong number of ptrs": {buf, rows + 1, cols + 1},
		} {
			var ctr cost.Counter
			if _, err := tw.unpack(c.buf, c.rows, c.cols, &ctr); err == nil {
				t.Errorf("%s: buffer accepted", name)
			}
			if ctr.Ops != 0 {
				t.Errorf("%s: rejected buffer charged %d ops, want nothing", name, ctr.Ops)
			}
		}
		// Range and order are Validate's to check, once the caller has
		// made the indices local: a global index unpacks.
		if _, err := tw.unpack(mutate(5, 1000), rows, cols, nil); err != nil {
			t.Errorf("global index rejected at unpack: %v", err)
		}
	})
}
