// PageRank on a distributed sparse web graph: damped power iteration on
// the column-stochastic link matrix, with the matrix distributed once
// by the ED scheme over an nnz-balanced partition. Web graphs are
// heavily skewed (a few hub pages collect most links), so the uniform
// row partition leaves one processor with most of the work — the
// balanced partitioner fixes exactly the s' problem the paper's cost
// model exposes.
//
//	go run ./examples/pagerank
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/sparse"
)

const (
	pages   = 400
	damping = 0.85
)

func main() {
	g := buildWebGraph(pages, 4321)
	fmt.Printf("web graph: %d pages, %d links (s = %.4f)\n", pages, g.NNZ(), g.SparseRatio())

	// Compare partition balance: uniform rows vs nnz-balanced rows.
	uniform, err := partition.NewRow(pages, pages, 8)
	if err != nil {
		log.Fatal(err)
	}
	balanced, err := partition.NewBalancedRow(g, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uniform row partition:  %v\n", partition.BalanceOf(g, uniform))
	fmt.Printf("balanced row partition: %v\n", partition.BalanceOf(g, balanced))

	d, err := core.Distribute(g, core.Config{Scheme: "ED", Partition: "balanced-row", Procs: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	if err := d.Verify(); err != nil {
		log.Fatal(err)
	}

	// Damped power iteration: r <- d·A·r + (1-d)/n.
	r := make([]float64, pages)
	for i := range r {
		r[i] = 1.0 / pages
	}
	var iters int
	for iters = 1; iters <= 200; iters++ {
		ar, _, err := d.SpMV(r)
		if err != nil {
			log.Fatal(err)
		}
		delta := 0.0
		for i := range r {
			next := damping*ar[i] + (1-damping)/pages
			if diff := next - r[i]; diff > 0 {
				delta += diff
			} else {
				delta -= diff
			}
			r[i] = next
		}
		if delta < 1e-10 {
			break
		}
	}

	sum := 0.0
	for _, v := range r {
		sum += v
	}
	fmt.Printf("\nPageRank converged in %d iterations (mass = %.6f)\n", iters, sum)

	idx := make([]int, pages)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r[idx[a]] > r[idx[b]] })
	fmt.Println("top pages:")
	for _, i := range idx[:5] {
		fmt.Printf("  page %3d  rank %.6f\n", i, r[i])
	}
}

// buildWebGraph generates a scale-free-ish link structure: early pages
// act as hubs, and every page links to a few targets with preferential
// attachment. The returned matrix is column-stochastic: column j holds
// 1/outdegree(j) at each page j links to (dangling pages link
// uniformly to the hubs).
func buildWebGraph(n int, seed int64) *sparse.Dense {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, n)
	for j := 0; j < n; j++ {
		links := 2 + rng.Intn(6)
		seen := map[int]bool{}
		for len(seen) < links {
			// Preferential attachment: half the links go to the first
			// tenth of the pages.
			var t int
			if rng.Float64() < 0.5 {
				t = rng.Intn(n/10 + 1)
			} else {
				t = rng.Intn(n)
			}
			if t != j {
				seen[t] = true
			}
		}
		for t := range seen {
			out[j] = append(out[j], t)
		}
	}
	g := sparse.NewDense(n, n)
	for j := 0; j < n; j++ {
		w := 1.0 / float64(len(out[j]))
		for _, t := range out[j] {
			g.Set(t, j, w)
		}
	}
	return g
}
