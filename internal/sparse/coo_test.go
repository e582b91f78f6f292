package sparse

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCOOAddIgnoresZero(t *testing.T) {
	c := NewCOO(3, 3)
	c.Add(0, 0, 0)
	c.Add(1, 1, 5)
	if c.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (explicit zero must be dropped)", c.NNZ())
	}
}

func TestCOOAddOutOfRange(t *testing.T) {
	c := NewCOO(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range did not panic")
		}
	}()
	c.Add(2, 0, 1)
}

func TestCOORoundTripDense(t *testing.T) {
	d := PaperFigure1()
	c := FromDense(d)
	if c.NNZ() != 16 {
		t.Fatalf("NNZ = %d, want 16", c.NNZ())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !c.ToDense().Equal(d) {
		t.Error("COO -> Dense round trip lost data")
	}
}

func TestCOORoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		d := Uniform(11, 9, 0.25, seed)
		return FromDense(d).ToDense().Equal(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromDenseRowMajorOrder(t *testing.T) {
	d := PaperFigure1()
	c := FromDense(d)
	if !sort.SliceIsSorted(c.Entries, func(a, b int) bool {
		ea, eb := c.Entries[a], c.Entries[b]
		if ea.Row != eb.Row {
			return ea.Row < eb.Row
		}
		return ea.Col < eb.Col
	}) {
		t.Error("FromDense entries not in row-major order")
	}
}

func TestSortRowMajorProperty(t *testing.T) {
	f := func(seed int64) bool {
		c := FromDense(Uniform(8, 8, 0.4, seed))
		rand.New(rand.NewSource(seed)).Shuffle(len(c.Entries), func(a, b int) {
			c.Entries[a], c.Entries[b] = c.Entries[b], c.Entries[a]
		})
		c.SortRowMajor()
		want := FromDense(c.ToDense())
		if len(want.Entries) != len(c.Entries) {
			return false
		}
		for i := range want.Entries {
			if want.Entries[i] != c.Entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesBadEntries(t *testing.T) {
	c := NewCOO(2, 2)
	c.Entries = append(c.Entries, Entry{Row: 5, Col: 0, Val: 1})
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted out-of-range entry")
	}
	c.Entries = []Entry{{Row: 0, Col: 0, Val: 0}}
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted explicit zero")
	}
}

func TestCOOCloneIndependent(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 1)
	cl := c.Clone()
	cl.Entries[0].Val = 9
	if c.Entries[0].Val != 1 {
		t.Error("Clone shares entry storage")
	}
}

func TestCOOSparseRatio(t *testing.T) {
	c := NewCOO(10, 10)
	for i := 0; i < 10; i++ {
		c.Add(i, i, 1)
	}
	if got := c.SparseRatio(); got != 0.1 {
		t.Errorf("SparseRatio = %g, want 0.1", got)
	}
	empty := NewCOO(0, 0)
	if empty.SparseRatio() != 0 {
		t.Error("empty COO SparseRatio != 0")
	}
}
