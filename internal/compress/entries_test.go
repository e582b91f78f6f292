package compress

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/sparse"
)

// entryParts are cross products of a 13 x 11 array: the whole array, a
// rectangle, strided maps (a cyclic part) and an empty part.
var entryParts = []struct {
	name           string
	rowMap, colMap []int
}{
	{"whole", seq(0, 13), seq(0, 11)},
	{"rect", seq(2, 9), seq(3, 11)},
	{"strided", []int{1, 4, 7, 10}, []int{0, 2, 4, 6, 8, 10}},
	{"empty", nil, seq(0, 11)},
}

func seq(lo, hi int) []int {
	s := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}

// stagedEntries draws a stream over a 13 x 11 array with duplicates and
// explicit zeros, long enough to span two staging blocks, and returns
// it with the dense array it writes.
func stagedEntries() ([]sparse.Entry, *sparse.Dense) {
	rng := rand.New(rand.NewSource(3))
	d := sparse.NewDense(13, 11)
	es := make([]sparse.Entry, entryBlockLen+700)
	for i := range es {
		es[i] = sparse.Entry{Row: rng.Intn(13), Col: rng.Intn(11), Val: float64(rng.Intn(5))} // 0: an explicit zero
		d.Set(es[i].Row, es[i].Col, es[i].Val)
	}
	return es, d
}

// stage stages the entries of es inside rowMap x colMap, in order.
func stage(es []sparse.Entry, rowMap, colMap []int) *Entries {
	in := func(m []int, g int) bool {
		for _, x := range m {
			if x == g {
				return true
			}
		}
		return false
	}
	st := NewEntries(13, 11)
	for _, e := range es {
		if in(rowMap, e.Row) && in(colMap, e.Col) {
			st.Add(e.Row, e.Col, e.Val)
		}
	}
	return st
}

// TestPartEntriesMatchAccessorForms: the entry-list kernels return what
// the accessor forms return from the dense array the same entries fill
// — keep-last, zero-erase — with the same charges, for both ED layouts,
// every format, global and local minor indices, and contiguous, strided
// and empty parts; the staging is consumed.
func TestPartEntriesMatchAccessorForms(t *testing.T) {
	es, d := stagedEntries()
	for _, pt := range entryParts {
		for _, major := range []Major{RowMajor, ColMajor} {
			var want, got cost.Counter
			wantBuf := EncodeEDPartInto(d.At, pt.rowMap, pt.colMap, major, nil, &want)
			st := stage(es, pt.rowMap, pt.colMap)
			gotBuf, err := EncodeEDPartEntries(st, pt.rowMap, pt.colMap, major, nil, &got)
			if err != nil {
				t.Fatalf("%s/%s: %v", pt.name, major, err)
			}
			if !reflect.DeepEqual(gotBuf, wantBuf) || got != want {
				t.Errorf("%s/%s: ED buffer or charge differs from the accessor form (%v vs %v)", pt.name, major, got, want)
			}
			if st.Len() != 0 || st.blocks != nil {
				t.Errorf("%s/%s: staging not consumed: %d entries left", pt.name, major, st.Len())
			}
		}
		for _, f := range testFormats {
			for _, local := range []bool{false, true} {
				var wantComp, wantDist, comp, dist cost.Counter
				wantWire, wantExtra := packPartGlobal(t, f, d.At, pt.rowMap, pt.colMap, local, &wantComp, &wantDist)
				wire, extra, _, err := f.PackPartEntries(stage(es, pt.rowMap, pt.colMap), pt.rowMap, pt.colMap, local, new(EntryScratch), &comp, &dist)
				if err != nil {
					t.Fatalf("%s/%s: %v", pt.name, f.Name, err)
				}
				if !reflect.DeepEqual(wire, wantWire) || extra != wantExtra || comp != wantComp || dist != wantDist {
					t.Errorf("%s/%s local=%t: wire form or charges differ from the accessor form (%v/%v vs %v/%v)",
						pt.name, f.Name, local, comp, dist, wantComp, wantDist)
				}
			}
		}
		l, err := stage(es, pt.rowMap, pt.colMap).Dense(pt.rowMap, pt.colMap)
		if err != nil {
			t.Fatalf("%s: dense: %v", pt.name, err)
		}
		for li, gi := range pt.rowMap {
			for lj, gj := range pt.colMap {
				if l.At(li, lj) != d.At(gi, gj) {
					t.Fatalf("%s: dense (%d, %d) = %g, want %g", pt.name, li, lj, l.At(li, lj), d.At(gi, gj))
				}
			}
		}
	}
}

// TestPartEntriesRejectForeignEntry: an entry outside the part's cross
// product is an error naming it, whether its major index has no line or
// its minor index is the stray one.
func TestPartEntriesRejectForeignEntry(t *testing.T) {
	rowMap, colMap := seq(2, 9), seq(3, 11)
	for _, foreign := range [][2]int{{0, 5}, {4, 1}} { // a row, then a column, not owned
		run := func(fn func(st *Entries) error) error {
			st := NewEntries(13, 11)
			st.Add(3, 4, 1)
			st.Add(foreign[0], foreign[1], 2)
			st.Add(5, 6, 3)
			return fn(st)
		}
		for name, fn := range map[string]func(st *Entries) error{
			"ed-row": func(st *Entries) error {
				_, err := EncodeEDPartEntries(st, rowMap, colMap, RowMajor, nil, nil)
				return err
			},
			"ed-col": func(st *Entries) error {
				_, err := EncodeEDPartEntries(st, rowMap, colMap, ColMajor, nil, nil)
				return err
			},
			"dense": func(st *Entries) error {
				_, err := st.Dense(rowMap, colMap)
				return err
			},
		} {
			err := run(fn)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("(%d, %d)", foreign[0], foreign[1])) {
				t.Errorf("%s with foreign entry %v: err = %v, want one naming it", name, foreign, err)
			}
		}
	}
}

// TestEntryScratchReuse: one scratch carried from part to part, large
// to small to large and across both layouts, gives every call the
// buffer and charge a fresh scratch gives, and PackPartEntries the
// same wire form.
func TestEntryScratchReuse(t *testing.T) {
	es, _ := stagedEntries()
	s := new(EntryScratch)
	for round := 0; round < 2; round++ {
		for _, pt := range entryParts {
			for _, major := range []Major{RowMajor, ColMajor} {
				var want, got cost.Counter
				wantBuf, err := EncodeEDPartEntries(stage(es, pt.rowMap, pt.colMap), pt.rowMap, pt.colMap, major, nil, &want)
				if err != nil {
					t.Fatal(err)
				}
				gotBuf, err := EncodeEDPartEntries(stage(es, pt.rowMap, pt.colMap), pt.rowMap, pt.colMap, major, s, &got)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(gotBuf, wantBuf) || got != want {
					t.Errorf("round %d %s/%s: reused scratch differs from a fresh one", round, pt.name, major)
				}
			}
			for _, f := range testFormats {
				want, _, _, err := f.PackPartEntries(stage(es, pt.rowMap, pt.colMap), pt.rowMap, pt.colMap, false, new(EntryScratch), nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, _, _, err := f.PackPartEntries(stage(es, pt.rowMap, pt.colMap), pt.rowMap, pt.colMap, false, s, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Errorf("round %d %s/%s: reused scratch differs from a fresh one", round, pt.name, f.Name)
				}
			}
		}
	}
}
