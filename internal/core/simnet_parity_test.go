package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// TestSimnetUniformParity is the parity contract of the network model:
// under the uniform topology the replayed timeline's paper breakdown
// must equal the legacy counter totals *exactly* — same Distribution,
// same Compression, for every scheme × partition × method combination.
// The uniform topology prices every (sender, receiver) pair, including
// self-delivery, at Latency = T_Startup and PerWord = T_Data on a
// dedicated link, so wire time is Messages·T_Startup + Elements·T_Data
// per sender and compute charges price via the same cost.Params — both
// in exact integer nanoseconds, hence bit-for-bit equality.
func TestSimnetUniformParity(t *testing.T) {
	g := sparse.Uniform(24, 24, 0.15, 2)
	// One worker runs the root alone, four the root with three helpers;
	// either way the root charges the recorder in its merge, in part order.
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, scheme := range []string{"SFC", "CFS", "ED"} {
				for _, part := range []string{"row", "col", "mesh", "cyclic-row", "cyclic-col", "brs", "cyclic-mesh"} {
					for _, method := range []string{"CRS", "CCS", "JDS"} {
						d, err := Distribute(g, Config{
							Scheme: scheme, Partition: part, Method: method,
							Procs: 4, BlockSize: 2, Topology: "uniform", Workers: workers,
						})
						if err != nil {
							t.Fatalf("%s/%s/%s: %v", scheme, part, method, err)
						}
						tl := d.NetTimeline()
						if tl == nil {
							t.Fatalf("%s/%s/%s: no timeline despite Topology", scheme, part, method)
						}
						if tl.Unmatched != 0 {
							t.Errorf("%s/%s/%s: %d unmatched receives", scheme, part, method, tl.Unmatched)
						}
						pb := tl.PaperBreakdown()
						if want := d.DistributionTime(); pb.Distribution != want {
							t.Errorf("%s/%s/%s: sim T_Distribution %v != counter %v",
								scheme, part, method, pb.Distribution, want)
						}
						if want := d.CompressionTime(); pb.Compression != want {
							t.Errorf("%s/%s/%s: sim T_Compression %v != counter %v",
								scheme, part, method, pb.Compression, want)
						}
						if q := tl.TotalQueue(); q != 0 {
							t.Errorf("%s/%s/%s: uniform topology queued %v, want 0", scheme, part, method, q)
						}
						d.Close()
					}
				}
			}
		})
	}
}

// TestSimnetTimelineDeterministic is the end-to-end determinism check
// (run in CI under -race): two identical distributions — and a third
// with a different worker count, which reorders the real encode
// goroutines but not the recorded program order — produce timelines
// with identical hashes.
func TestSimnetTimelineDeterministic(t *testing.T) {
	g := sparse.Uniform(32, 32, 0.12, 7)
	run := func(workers int) uint64 {
		d, err := Distribute(g, Config{
			Scheme: "CFS", Partition: "row", Procs: 4,
			Topology: "star", LinkBW: 2e6, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		return d.NetTimeline().Hash()
	}
	a, b := run(1), run(1)
	if a != b {
		t.Fatalf("two identical runs hash differently: %x vs %x", a, b)
	}
	if c := run(4); c != a {
		t.Fatalf("worker count changed the virtual timeline: %x vs %x", c, a)
	}
}

// TestSimnetContentionVisible: a congested star root link must show up
// as non-zero queueing and a longer distribution time than uniform.
func TestSimnetContentionVisible(t *testing.T) {
	g := sparse.Uniform(32, 32, 0.2, 3)
	dist := func(topology string, bw float64) (*Distribution, error) {
		return Distribute(g, Config{Scheme: "ED", Partition: "row", Procs: 4, Topology: topology, LinkBW: bw})
	}
	uni, err := dist("uniform", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer uni.Close()
	star, err := dist("star", 1e5) // 10µs/word, ~111x T_Data: a congested root link
	if err != nil {
		t.Fatal(err)
	}
	defer star.Close()

	ub := uni.NetTimeline().PaperBreakdown()
	sb := star.NetTimeline().PaperBreakdown()
	if sb.Distribution <= ub.Distribution {
		t.Errorf("congested star distribution %v not above uniform %v", sb.Distribution, ub.Distribution)
	}
	if star.NetTimeline().MaxLinkUtilization() <= 0 {
		t.Error("no link utilization recorded on star")
	}
	// The counter-side books are topology-blind and must be unchanged.
	if uni.DistributionTime() != star.DistributionTime() {
		t.Errorf("counters changed with topology: %v vs %v", uni.DistributionTime(), star.DistributionTime())
	}
}

// TestSimnetReportInReport: Config.Topology adds the network section to
// the run report.
func TestSimnetReportInReport(t *testing.T) {
	g := sparse.Uniform(16, 16, 0.2, 5)
	d, err := Distribute(g, Config{Procs: 2, Topology: "mesh"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rep := d.Report()
	for _, want := range []string{"network model: topology=mesh p=2", "sim T_Distribution"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
