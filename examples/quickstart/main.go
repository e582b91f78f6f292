// Quickstart: distribute a sparse array over four emulated processors
// with the paper's ED (Encoding-Decoding) scheme and inspect the result.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/sparse"
)

func main() {
	// A 1000x1000 sparse array with sparse ratio 0.1 — the paper's
	// standard workload (over 80% of Harwell-Boeing matrices are at
	// least this sparse).
	g := sparse.UniformExact(1000, 1000, 0.1, 42)

	// Distribute with the ED scheme over a 4-processor row partition.
	d, err := core.Distribute(g, core.Config{
		Scheme:    "ED",
		Partition: "row",
		Procs:     4,
		Method:    "CRS",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	// Every processor now holds its rows in Compressed Row Storage.
	fmt.Print(d.Report())
	for rank, local := range d.Result.LocalCRS {
		fmt.Printf("P%d: local %dx%d CRS with %d nonzeros\n",
			rank, local.Rows, local.Cols, local.NNZ())
	}

	// The distributed array is immediately usable: y = A·x by halo
	// exchange, with the wire traffic it moved.
	x := make([]float64, 1000)
	for i := range x {
		x[i] = 1
	}
	y, st, err := d.SpMV(x)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(core.OpStatsString(st))
	sum := 0.0
	for _, v := range y {
		sum += v
	}
	fmt.Printf("SpMV checksum: sum(A*ones) = %.6f (equals sum of all nonzeros)\n", sum)

	// Sanity: distributed result equals direct per-part compression.
	if err := d.Verify(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verification: OK")
}
