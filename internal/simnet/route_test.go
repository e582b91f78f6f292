package simnet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"repro/internal/cost"
	"repro/internal/partition"
)

var topologyNames = []string{"uniform", "bus", "star", "mesh", "fattree"}

// routeDumpSHA256 is the SHA-256 of writeRouteDump's text as the per-pair
// route table produced it at commit 26de627, the last one with the
// table. There the loop below, with each line's hops read from
// `top.Route(from, to)` instead of the rule, ran as a test writing the
// dump to a file, and
//
//	go test -count=1 -run TestDumpRoutes ./internal/simnet && sha256sum routes.txt
//
// printed this hash over 447,200 lines (five topologies, p = 1..64,
// every ordered pair).
const routeDumpSHA256 = "1e7946d4a0d26990b367300d5c5d4f7ac4e9800eb4c36d9231eac569cffbd759"

// writeRouteDump writes one line per ordered rank pair of every
// topology at p = 1..maxP: the pair, then each hop's link index and
// name.
func writeRouteDump(t *testing.T, w io.Writer, maxP int) {
	for _, name := range topologyNames {
		for p := 1; p <= maxP; p++ {
			top := mustBuild(t, name, p, 0, 0)
			for from := 0; from < p; from++ {
				for to := 0; to < p; to++ {
					fmt.Fprintf(w, "%s %d %d>%d", name, p, from, to)
					_, hops := top.route(from, to, 0)
					for h := 0; h < hops; h++ {
						li, _ := top.route(from, to, h)
						fmt.Fprintf(w, " %d:%s", li, top.Links[li].Name)
					}
					fmt.Fprintln(w)
				}
			}
		}
	}
}

// TestRoutesByRule: the routing rules name, hop for hop, the links the
// per-pair route table they replaced named, and a mesh route is as
// long as the Manhattan distance on partition.SquareGrid's grid, prime
// p (a 1 × p line) included.
func TestRoutesByRule(t *testing.T) {
	h := sha256.New()
	writeRouteDump(t, h, 64)
	if got := hex.EncodeToString(h.Sum(nil)); got != routeDumpSHA256 {
		t.Errorf("route dump SHA-256 = %s, want %s", got, routeDumpSHA256)
	}
	for p := 1; p <= 64; p++ {
		top := mustBuild(t, "mesh", p, 0, 0)
		_, pc := partition.SquareGrid(p)
		for from := 0; from < p; from++ {
			for to := 0; to < p; to++ {
				want := abs(to%pc-from%pc) + abs(to/pc-from/pc)
				if _, hops := top.route(from, to, 0); hops != want {
					t.Fatalf("mesh p=%d %d->%d: %d hops, want Manhattan %d", p, from, to, hops, want)
				}
			}
		}
	}
}

// TestReplayHopsAllocateNothing: a replayed hop allocates nothing, so 32
// messages across an 8 × 8 mesh's diagonal (14 hops each) cost the
// replay no more than 32 messages between neighbours.
func TestReplayHopsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	replayAllocs := func(to int) float64 {
		net := NewNetwork(mustBuild(t, "mesh", 64, 0, 0), testParams)
		for i := 0; i < 32; i++ {
			net.Send(0, to, 1, 100)
		}
		for i := 0; i < 32; i++ {
			net.Recv(to, 0, 1)
		}
		return testing.AllocsPerRun(20, func() {
			net.tl = nil
			net.Finalize()
		})
	}
	corner, neighbour := replayAllocs(63), replayAllocs(1)
	t.Logf("replay allocs: %v across the diagonal, %v between neighbours", corner, neighbour)
	if corner > neighbour+8 {
		t.Errorf("replay allocs: %v across the diagonal, %v between neighbours; want at most 8 more", corner, neighbour)
	}
}

// TestBuildAllocatesPerLink: Build allocates each link's name and a
// constant beyond it, no route per rank pair. For uniform, whose p²
// links are all named, this pins that no route slices are built.
func TestBuildAllocatesPerLink(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	for _, name := range topologyNames {
		links := len(mustBuild(t, name, 64, 0, 0).Links)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Build(name, 64, testParams, 0, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > float64(links+16) {
			t.Errorf("Build(%s, 64): %v allocs for %d links, want at most %d", name, allocs, links, links+16)
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	for _, name := range topologyNames {
		for _, p := range []int{16, 64} {
			b.Run(fmt.Sprintf("%s/%d", name, p), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Build(name, p, testParams, 0, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReplay replays the recording of one 16-rank distribution on
// the mesh — the root encodes, packs and sends each rank its part, each
// rank receives and decodes it — and reports the replay's events/s.
func BenchmarkReplay(b *testing.B) {
	const p = 16
	top, err := Build("mesh", p, testParams, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	net := NewNetwork(top, testParams)
	for k := 0; k < p; k++ {
		net.Charge(0, ClassRootComp, cost.Counter{Ops: int64(4000 + 100*k)})
		net.Charge(0, ClassRootDist, cost.Counter{Elements: int64(800 + 10*k)})
		net.Send(0, k, 1, 800+10*k)
	}
	for k := 0; k < p; k++ {
		net.Recv(k, 0, 1)
		net.Charge(k, ClassRankDist, cost.Counter{Ops: int64(800 + 10*k)})
		net.Charge(k, ClassRankComp, cost.Counter{Ops: int64(3000 + 50*k)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		net.tl = nil
		events += len(net.Finalize().Events)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
