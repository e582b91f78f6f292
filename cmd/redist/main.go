// Command redist demonstrates sparse redistribution: it distributes an
// array under one partition, moves it directly to another partition via
// all-to-all triplet exchange (reference [3]'s problem), verifies the
// result, and compares against re-distributing from the root.
//
//	redist -n 600 -from "(Block,*)" -to "(Block,Block)" -procs 4
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cost"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/redist"
	"repro/internal/sparse"
)

func main() {
	var (
		n     = flag.Int("n", 600, "square array size")
		ratio = flag.Float64("ratio", 0.1, "sparse ratio")
		seed  = flag.Int64("seed", 1, "random seed")
		from  = flag.String("from", "(Block,*)", "source partition descriptor")
		to    = flag.String("to", "(Block,Block)", "target partition descriptor")
		procs = flag.Int("procs", 4, "number of processors")
	)
	flag.Parse()

	g := sparse.UniformExact(*n, *n, *ratio, *seed)
	src, err := partition.Parse(*from, *n, *n, *procs)
	if err != nil {
		fatal(err)
	}
	dst, err := partition.Parse(*to, *n, *n, *procs)
	if err != nil {
		fatal(err)
	}

	m, err := machine.New(*procs, machine.WithRecvTimeout(60*time.Second))
	if err != nil {
		fatal(err)
	}
	defer m.Close()

	params := cost.DefaultParams
	// Two reference distributions run one after the other: the initial
	// array under the source partition, and the root re-distribution
	// under the target that the direct move is compared against.
	initial, err := dist.Run(m, dist.Plan{Codec: dist.ED{}, Global: g, Partition: src})
	if err != nil {
		fatal(err)
	}
	again, err := dist.Run(m, dist.Plan{Codec: dist.ED{}, Global: g, Partition: dst})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("initial ED distribution onto %s: T_dist %v, T_comp %v\n", src.Name(),
		initial.Breakdown.DistributionTime(params), initial.Breakdown.CompressionTime(params))

	moved, stats, err := redist.Redistribute(m, src, initial, dst)
	if err != nil {
		fatal(err)
	}
	if err := dist.Verify(g, dst, moved); err != nil {
		fatal(fmt.Errorf("verification FAILED: %w", err))
	}
	fmt.Printf("redistribution %s -> %s: virtual %v, wall %v, verified OK\n",
		src.Name(), dst.Name(), stats.Time(params), stats.Wall)

	naive := again.Breakdown.DistributionTime(params) + again.Breakdown.CompressionTime(params)
	fmt.Printf("re-distribution from the root (no gather charged): %v\n", naive)
	if t := stats.Time(params); t < naive {
		fmt.Printf("direct redistribution is %.1fx cheaper\n", float64(naive)/float64(t))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "redist:", err)
	os.Exit(1)
}
