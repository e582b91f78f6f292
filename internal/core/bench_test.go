package core

import (
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/sparse"
)

// BenchmarkDistributeTCP is the tcp column of EXPERIMENTS.md "Remarks
// on the wall clock": the Table-3 array (n=1000, s=0.1, p=4, CRS)
// through Distribute over localhost sockets, per scheme and block
// partition. Every call builds and closes its own machine, as the CLI
// does, so each figure carries the same fixed set-up on top of
// internal/dist's BenchmarkRun (chan, machine reused).
//
// ED/mesh-p16-reliable is the bench workload dist_wire's configuration
// (n=240, p=16, reliable tcp, mesh network model) taken apart into the
// three steps of one Distribute + Close: build_us builds the machine
// stack, run_us is dist.Run on it, close_us tears it down.
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
	b.Run("ED/mesh-p16-reliable", func(b *testing.B) {
		wire := sparse.UniformExact(240, 240, 0.1, 7)
		cfg, _, err := Config{Scheme: "ED", Partition: "mesh", Procs: 16, Method: "CRS",
			Transport: "tcp", Reliable: true, Topology: "mesh"}.concrete(wire)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := NewPlan(wire, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var build, run, closing time.Duration
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			st, err := newMachineStack(cfg)
			if err != nil {
				b.Fatal(err)
			}
			t1 := time.Now()
			if _, err := dist.Run(st.m, plan); err != nil {
				b.Fatal(err)
			}
			t2 := time.Now()
			if err := st.m.Close(); err != nil {
				b.Fatal(err)
			}
			build, run, closing = build+t1.Sub(t0), run+t2.Sub(t1), closing+time.Since(t2)
		}
		perOp := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(b.N) }
		b.ReportMetric(perOp(build), "build_us")
		b.ReportMetric(perOp(run), "run_us")
		b.ReportMetric(perOp(closing), "close_us")
	})
}
