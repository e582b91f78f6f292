package ops

import (
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/dist"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/spops"
)

// tridiagonal builds a strictly diagonally dominant tridiagonal system.
func tridiagonal(n int) *sparse.Dense {
	g := sparse.NewDense(n, n)
	for i := 0; i < n; i++ {
		g.Set(i, i, 4)
		if i > 0 {
			g.Set(i, i-1, -1)
		}
		if i < n-1 {
			g.Set(i, i+1, -1)
		}
	}
	return g
}

func TestBandwidth(t *testing.T) {
	d := sparse.NewDense(5, 5)
	if Bandwidth(d) != 0 {
		t.Error("empty bandwidth != 0")
	}
	d.Set(0, 4, 1)
	if Bandwidth(d) != 4 {
		t.Errorf("bandwidth = %d, want 4", Bandwidth(d))
	}
	d2 := tridiagonal(6)
	if Bandwidth(d2) != 1 {
		t.Errorf("tridiagonal bandwidth = %d, want 1", Bandwidth(d2))
	}
}

func TestRCMPermutationValid(t *testing.T) {
	g := sparse.Uniform(30, 30, 0.1, 60)
	perm, err := RCM(compress.CompressCRS(g, nil))
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 30)
	for _, p := range perm {
		if p < 0 || p >= 30 || seen[p] {
			t.Fatalf("invalid permutation %v", perm)
		}
		seen[p] = true
	}
}

func TestRCMReducesBandwidthOnShuffledBand(t *testing.T) {
	// Build a narrow-band matrix, shuffle it symmetrically, and check
	// RCM recovers a narrow bandwidth.
	const n, w = 60, 2
	band := sparse.NewDense(n, n)
	for i := 0; i < n; i++ {
		band.Set(i, i, 4)
		for d := 1; d <= w; d++ {
			if i+d < n {
				band.Set(i, i+d, -1)
				band.Set(i+d, i, -1)
			}
		}
	}
	// Random symmetric shuffle.
	rng := rand.New(rand.NewSource(7))
	shuffle := rng.Perm(n)
	scrambled, err := PermuteSym(band, shuffle)
	if err != nil {
		t.Fatal(err)
	}
	before := Bandwidth(scrambled)
	perm, err := RCM(compress.CompressCRS(scrambled, nil))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := PermuteSym(scrambled, perm)
	if err != nil {
		t.Fatal(err)
	}
	after := Bandwidth(restored)
	if after >= before/2 {
		t.Errorf("RCM bandwidth %d not well below scrambled %d", after, before)
	}
	if after > 3*w {
		t.Errorf("RCM bandwidth %d too far above optimal %d", after, w)
	}
	// The permuted matrix is the same matrix up to relabelling: same
	// nnz, same value multiset along the diagonal.
	if restored.NNZ() != scrambled.NNZ() {
		t.Error("permutation changed nnz")
	}
}

func TestRCMThenJacobi(t *testing.T) {
	// End-to-end: scramble a banded SPD system, reorder with RCM,
	// distribute, and solve with the halo-exchange Jacobi, whose halo
	// is as narrow as the recovered bandwidth.
	const n = 40
	band := tridiagonal(n)
	rng := rand.New(rand.NewSource(9))
	shuffle := rng.Perm(n)
	scrambled, err := PermuteSym(band, shuffle)
	if err != nil {
		t.Fatal(err)
	}
	perm, err := RCM(compress.CompressCRS(scrambled, nil))
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := PermuteSym(scrambled, perm)
	if err != nil {
		t.Fatal(err)
	}
	bw := Bandwidth(ordered)
	if bw >= n/4 {
		t.Fatalf("RCM left bandwidth %d", bw)
	}

	part, _ := partition.NewRow(n, n, 4)
	m := newMachine(t, 4)
	res, err := dist.ED{}.Distribute(m, ordered, part, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := vec(n, func(i int) float64 { return float64(i%5) + 1 })
	b := denseSpMV(ordered, want)
	pl, err := spops.BuildCommPlan(part, res)
	if err != nil {
		t.Fatal(err)
	}
	x, st, err := spops.Jacobi(m, pl, b, nil, 1e-12, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || !vecsEqual(x, want, 1e-8) {
		t.Error("Jacobi on RCM-ordered system failed")
	}
}

func TestRCMErrors(t *testing.T) {
	if _, err := RCM(compress.CompressCRS(sparse.NewDense(2, 3), nil)); err == nil {
		t.Error("non-square accepted")
	}
	if _, err := PermuteSym(sparse.NewDense(2, 3), []int{0, 1}); err == nil {
		t.Error("non-square accepted")
	}
	if _, err := PermuteSym(sparse.NewDense(2, 2), []int{0}); err == nil {
		t.Error("short perm accepted")
	}
	if _, err := PermuteSym(sparse.NewDense(2, 2), []int{0, 0}); err == nil {
		t.Error("non-permutation accepted")
	}
}

func TestRCMDisconnectedComponents(t *testing.T) {
	// Two disconnected blocks plus an isolated vertex: RCM must still
	// produce a full permutation.
	d := sparse.NewDense(7, 7)
	d.Set(0, 1, 1)
	d.Set(1, 0, 1)
	d.Set(3, 4, 1)
	d.Set(4, 3, 1)
	perm, err := RCM(compress.CompressCRS(d, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(perm) != 7 {
		t.Fatalf("perm length %d", len(perm))
	}
}
