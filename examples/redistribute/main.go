// Redistribution: an array distributed by rows is moved onto a 2-D mesh
// partition without ever re-assembling it at the root — each processor
// routes its nonzeros (as ED-style global-index/value triplets) directly
// to their new owners. This is the sparse block-cyclic redistribution
// problem of the paper's reference [3], built on the same machinery.
//
// The example compares redistribution against the naive alternative
// (gather everything at the root and re-distribute with ED) and prints
// the message timeline of the all-to-all exchange.
//
//	go run ./examples/redistribute
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cost"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/redist"
	"repro/internal/sparse"
	"repro/internal/trace"
)

func main() {
	const n, p = 600, 4
	g := sparse.UniformExact(n, n, 0.1, 3)
	row, err := partition.NewRow(n, n, p)
	if err != nil {
		log.Fatal(err)
	}
	mesh, err := partition.NewMesh(n, n, 2, 2)
	if err != nil {
		log.Fatal(err)
	}
	params := cost.DefaultParams

	tr := trace.New()
	m, err := machine.New(p, machine.WithRecvTimeout(30*time.Second), machine.WithTracer(tr))
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()

	// Phase 1: initial distribution by rows (a solver ran this way).
	src, err := dist.Run(m, dist.Plan{Codec: dist.ED{}, Global: g, Partition: row})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial distribution (ED, row): T_dist %v, T_comp %v\n",
		src.Breakdown.DistributionTime(params), src.Breakdown.CompressionTime(params))

	// Phase 2: the next algorithm phase wants a mesh layout.
	tr.Reset()
	moved, stats, err := redist.Redistribute(m, row, src, mesh)
	if err != nil {
		log.Fatal(err)
	}
	if err := dist.Verify(g, mesh, moved); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("redistribution row -> mesh2x2: virtual %v, wall %v, verified OK\n",
		stats.Time(params), stats.Wall)

	// Alternative: round-trip through the root (gather is free here
	// because the root still holds g; a real system would pay a full
	// gather too, making this a *lower* bound for the naive path).
	m2, err := machine.New(p, machine.WithRecvTimeout(30*time.Second))
	if err != nil {
		log.Fatal(err)
	}
	defer m2.Close()
	again, err := dist.Run(m2, dist.Plan{Codec: dist.ED{}, Global: g, Partition: mesh})
	if err != nil {
		log.Fatal(err)
	}
	naive := again.Breakdown.DistributionTime(params) + again.Breakdown.CompressionTime(params)
	fmt.Printf("naive re-distribution from root (no gather cost):   %v\n", naive)
	fmt.Printf("direct redistribution moves only the %d nonzeros that change owner,\n", g.NNZ())
	fmt.Println("and spreads encode/decode over all processors instead of the root.")

	fmt.Println("\nall-to-all message chart (s=send r=recv x=both):")
	fmt.Print(tr.Gantt(p, 64))
}
