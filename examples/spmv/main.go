// Distributed sparse matrix-vector multiplication under all three
// schemes: the motivating workload of the paper's introduction
// (iterative methods spend their time in y = A·x, so the array must be
// distributed and compressed before the iterations start).
//
// The example distributes the same array with SFC, CFS and ED, shows
// that the one-time distribution cost differs exactly as the paper
// predicts while the resulting SpMV is identical, and then amortises
// the distribution cost over repeated products.
//
//	go run ./examples/spmv
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/sparse"
)

func main() {
	const n, p, iterations = 800, 8, 50
	g := sparse.UniformExact(n, n, 0.1, 7)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%10) - 4.5
	}

	fmt.Printf("array %dx%d, s = 0.1, %d processors, column partition\n\n", n, n, p)
	fmt.Printf("%-6s %18s %18s %18s\n", "Scheme", "T_Distribution", "T_Compression", "one-time total")

	var reference []float64
	for _, scheme := range []string{"SFC", "CFS", "ED"} {
		d, err := core.Distribute(g, core.Config{
			Scheme:    scheme,
			Partition: "col", // the partition where ED shines (paper §5.2)
			Procs:     p,
		})
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%-6s %18v %18v %18v\n",
			scheme, d.DistributionTime(), d.CompressionTime(),
			d.DistributionTime()+d.CompressionTime())

		// The product itself is scheme-independent: all three leave the
		// same compressed arrays behind.
		y, _, err := d.SpMV(x)
		if err != nil {
			log.Fatal(err)
		}
		if reference == nil {
			reference = y
		} else {
			for i := range y {
				if diff := y[i] - reference[i]; diff > 1e-9 || diff < -1e-9 {
					log.Fatalf("scheme %s produced a different product at row %d", scheme, i)
				}
			}
		}
		d.Close()
	}
	fmt.Println("\nall three schemes produced identical products — only the one-time cost differs")

	// Amortisation: after distribution, iterate on the compressed array.
	d, err := core.Distribute(g, core.Config{Scheme: "ED", Partition: "col", Procs: p})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	start := time.Now()
	y := x
	for it := 0; it < iterations; it++ {
		y, _, err = d.SpMV(y)
		if err != nil {
			log.Fatal(err)
		}
		// Rescale to avoid overflow across iterations.
		max := 0.0
		for _, v := range y {
			if v > max {
				max = v
			} else if -v > max {
				max = -v
			}
		}
		if max > 0 {
			for i := range y {
				y[i] /= max
			}
		}
	}
	fmt.Printf("%d distributed SpMV iterations (wall): %v — the distribution cost is paid once\n",
		iterations, time.Since(start))
}
