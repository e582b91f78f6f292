package ekmr

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/partition"
)

func TestArray3IndexBijection(t *testing.T) {
	a, err := NewArray3(3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Write a unique value at every coordinate, then read all back.
	v := 1.0
	for k := 0; k < 3; k++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 5; j++ {
				a.Set(k, i, j, v)
				v++
			}
		}
	}
	if a.NNZ() != 3*4*5 {
		t.Fatalf("NNZ = %d, want %d (index map must be a bijection)", a.NNZ(), 3*4*5)
	}
	v = 1.0
	for k := 0; k < 3; k++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 5; j++ {
				if a.At(k, i, j) != v {
					t.Fatalf("At(%d, %d, %d) = %g, want %g", k, i, j, a.At(k, i, j), v)
				}
				v++
			}
		}
	}
}

func TestArray3PlaneLayout(t *testing.T) {
	// EKMR(3): (k, i, j) -> (i, j*l + k).
	a, _ := NewArray3(2, 3, 4)
	a.Set(1, 2, 3, 7)
	if got := a.Plane().At(2, 3*2+1); got != 7 {
		t.Errorf("plane[2][7] = %g, want 7", got)
	}
	if a.Plane().Rows() != 3 || a.Plane().Cols() != 8 {
		t.Errorf("plane shape %dx%d, want 3x8", a.Plane().Rows(), a.Plane().Cols())
	}
}

func TestArray3OutOfRangePanics(t *testing.T) {
	a, _ := NewArray3(2, 2, 2)
	for _, c := range [][3]int{{2, 0, 0}, {0, 2, 0}, {0, 0, 2}, {-1, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%v) did not panic", c)
				}
			}()
			a.At(c[0], c[1], c[2])
		}()
	}
}

func TestNewArrayErrors(t *testing.T) {
	if _, err := NewArray3(-1, 2, 2); err == nil {
		t.Error("negative dim accepted")
	}
}

func TestUniformArray3Deterministic(t *testing.T) {
	a, err := UniformArray3(3, 10, 10, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := UniformArray3(3, 10, 10, 0.1, 5)
	if !a.Plane().Equal(b.Plane()) {
		t.Error("UniformArray3 not deterministic")
	}
	if a.SparseRatio() == 0 {
		t.Error("empty random array")
	}
}

func TestArray3RoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		a, err := UniformArray3(2, 6, 5, 0.3, seed)
		if err != nil {
			return false
		}
		// Copy through explicit At/Set into a fresh array.
		b, _ := NewArray3(2, 6, 5)
		for k := 0; k < 2; k++ {
			for i := 0; i < 6; i++ {
				for j := 0; j < 5; j++ {
					if v := a.At(k, i, j); v != 0 {
						b.Set(k, i, j, v)
					}
				}
			}
		}
		return a.Plane().Equal(b.Plane())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlab(t *testing.T) {
	a, _ := NewArray3(3, 2, 2)
	a.Set(1, 0, 1, 5)
	a.Set(1, 1, 0, 7)
	s := a.Slab(1)
	if s.At(0, 1) != 5 || s.At(1, 0) != 7 || s.NNZ() != 2 {
		t.Errorf("slab contents wrong: %v", s)
	}
	if a.Slab(0).NNZ() != 0 {
		t.Error("slab 0 not empty")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range slab did not panic")
		}
	}()
	a.Slab(3)
}

// TestDistributeEKMR3WithED closes the paper's future-work loop: a 3-D
// sparse array in EKMR(3) form distributes with the unchanged 2-D ED
// scheme and verifies against direct compression.
func TestDistributeEKMR3WithED(t *testing.T) {
	a, err := UniformArray3(4, 24, 12, 0.1, 11)
	if err != nil {
		t.Fatal(err)
	}
	plane := a.Plane() // 24 x 48
	part, err := partition.NewRow(plane.Rows(), plane.Cols(), 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(4, machine.WithRecvTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	res, err := dist.Run(m, dist.Plan{Codec: dist.ED{}, Global: plane, Partition: part})
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.Verify(plane, part, res); err != nil {
		t.Fatal(err)
	}
}
