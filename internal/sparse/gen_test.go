package sparse

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

func TestUniformDeterministic(t *testing.T) {
	a := Uniform(50, 50, 0.1, 42)
	b := Uniform(50, 50, 0.1, 42)
	if !a.Equal(b) {
		t.Error("Uniform with same seed produced different arrays")
	}
	c := Uniform(50, 50, 0.1, 43)
	if a.Equal(c) {
		t.Error("Uniform with different seeds produced identical arrays")
	}
}

func TestUniformRatioApproximate(t *testing.T) {
	d := Uniform(200, 200, 0.1, 1)
	got := d.SparseRatio()
	if math.Abs(got-0.1) > 0.02 {
		t.Errorf("SparseRatio = %g, want ~0.1", got)
	}
}

func TestUniformRatioBounds(t *testing.T) {
	if got := Uniform(20, 20, 0, 1).NNZ(); got != 0 {
		t.Errorf("ratio 0 produced %d nonzeros", got)
	}
	if got := Uniform(20, 20, 1, 1).NNZ(); got != 400 {
		t.Errorf("ratio 1 produced %d nonzeros, want 400", got)
	}
}

func TestUniformPanicsBadRatio(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uniform(ratio=2) did not panic")
		}
	}()
	Uniform(2, 2, 2, 1)
}

func TestUniformExactCount(t *testing.T) {
	d := UniformExact(100, 100, 0.1, 7)
	if got := d.NNZ(); got != 1000 {
		t.Errorf("UniformExact NNZ = %d, want exactly 1000", got)
	}
	if !d.Equal(UniformExact(100, 100, 0.1, 7)) {
		t.Error("UniformExact not deterministic for fixed seed")
	}
}

// TestUniformExactGolden pins UniformExact's output cell for cell: the
// hash is FNV-1a over the little-endian bits of Data(). The values were
// computed with the map-based Floyd sampler the generator replaced, so
// any rewrite that moves an array — and with it every benchmark and
// paper table built on one — fails here.
func TestUniformExactGolden(t *testing.T) {
	cases := []struct {
		rows, cols int
		ratio      float64
		seed       int64
		want       uint64
	}{
		{20, 20, 0, 1, 0x13f631ef6a6fdd25},
		{20, 20, 1, 1, 0xa8b575b2a5305065},
		{1, 500, 0.3, 3, 0x5a610d9650bf9873},
		{500, 1, 0.3, 4, 0xa61fb9614449d4e9},
		{100, 100, 0.1, 7, 0xb6c4fbb27065bb40},
		{37, 53, 0.5, 11, 0x5711c5a28994c529},
		{64, 64, 0.02, 5, 0x36c46c137be8d56d},
		{888, 888, 0.1, 7, 0xf668d9491fc8fab0},
	}
	for _, c := range cases {
		d := UniformExact(c.rows, c.cols, c.ratio, c.seed)
		h := fnv.New64a()
		var w [8]byte
		for _, v := range d.Data() {
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
			h.Write(w[:])
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("UniformExact(%d, %d, %g, %d) hash = %#x, want %#x", c.rows, c.cols, c.ratio, c.seed, got, c.want)
		}
	}
}

func TestBandedStaysInBand(t *testing.T) {
	d := Banded(40, 40, 3, 0.9, 5)
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			if d.At(i, j) != 0 && abs(i-j) > 3 {
				t.Fatalf("nonzero at (%d, %d) outside bandwidth 3", i, j)
			}
		}
	}
	if d.NNZ() == 0 {
		t.Error("banded generator produced empty array at fill 0.9")
	}
}

func TestDiagonal(t *testing.T) {
	d := Diagonal(4, 2, 3)
	want := [][]float64{{2, 0, 0, 0}, {0, 3, 0, 0}, {0, 0, 2, 0}, {0, 0, 0, 3}}
	w, _ := NewDenseFrom(want)
	if !d.Equal(w) {
		t.Errorf("Diagonal(4, 2, 3) = %v, want %v", d, w)
	}
	if Diagonal(3).At(2, 2) != 1 {
		t.Error("Diagonal default value is not 1")
	}
}

func TestBlockClusteredInRange(t *testing.T) {
	d := BlockClustered(30, 30, 5, 4, 0.8, 9)
	if d.NNZ() == 0 {
		t.Error("BlockClustered produced empty array")
	}
	if d.Rows() != 30 || d.Cols() != 30 {
		t.Errorf("shape = %dx%d, want 30x30", d.Rows(), d.Cols())
	}
}

func TestPoisson2DStructure(t *testing.T) {
	g := 4
	c := Poisson2D(g)
	if c.Rows != g*g || c.Cols != g*g {
		t.Fatalf("shape = %dx%d, want %dx%d", c.Rows, c.Cols, g*g, g*g)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	d := c.ToDense()
	// Symmetric with 4 on the diagonal.
	for i := 0; i < g*g; i++ {
		if d.At(i, i) != 4 {
			t.Fatalf("diagonal (%d, %d) = %g, want 4", i, i, d.At(i, i))
		}
		for j := 0; j < g*g; j++ {
			if d.At(i, j) != d.At(j, i) {
				t.Fatalf("asymmetric at (%d, %d)", i, j)
			}
		}
	}
	// Interior point has exactly 4 neighbours: row sums to 0 there.
	interior := (g/2)*g + g/2
	sum := 0.0
	for j := 0; j < g*g; j++ {
		sum += d.At(interior, j)
	}
	if sum != 0 {
		t.Errorf("interior row sum = %g, want 0", sum)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
