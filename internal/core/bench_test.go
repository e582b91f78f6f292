package core

import (
	"testing"

	"repro/internal/sparse"
)

// BenchmarkDistributeTCP is the tcp column of EXPERIMENTS.md "Remarks
// on the wall clock": the Table-3 array (n=1000, s=0.1, p=4, CRS)
// through Distribute over localhost sockets, per scheme and block
// partition. Every call builds and closes its own machine, as the CLI
// does, so each figure carries the same fixed set-up on top of
// internal/dist's BenchmarkRun (chan, machine reused).
func BenchmarkDistributeTCP(b *testing.B) {
	g := sparse.UniformExact(1000, 1000, 0.1, 7)
	for _, scheme := range []string{"SFC", "CFS", "ED"} {
		for _, part := range []string{"row", "col", "mesh"} {
			b.Run(scheme+"/"+part, func(b *testing.B) {
				cfg := Config{Scheme: scheme, Partition: part, Procs: 4, Method: "CRS", Transport: "tcp"}
				for i := 0; i < b.N; i++ {
					d, err := Distribute(g, cfg)
					if err != nil {
						b.Fatal(err)
					}
					if err := d.Close(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
