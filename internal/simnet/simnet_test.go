package simnet

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cost"
)

var testParams = cost.DefaultParams

func mustBuild(t *testing.T, name string, p int, bw float64, lat time.Duration) *Topology {
	t.Helper()
	top, err := Build(name, p, testParams, bw, lat)
	if err != nil {
		t.Fatalf("Build(%s, %d): %v", name, p, err)
	}
	return top
}

// TestUniformParity pins the parity contract on a hand-built workload:
// under the uniform topology the replayed wire time per sender is
// exactly Messages·T_Startup + Elements·T_Data, and compute charges
// price via cost.Params.Time, so PaperBreakdown equals the counter
// totals bit for bit.
func TestUniformParity(t *testing.T) {
	const p = 4
	net := NewNetwork(mustBuild(t, "uniform", p, 0, 0), testParams)

	// Root: encode part k (comp), pack part k (dist), send part k.
	var rootComp, rootDist, rootWire cost.Counter
	rankRecv := make([]cost.Counter, p)
	for k := 0; k < p; k++ {
		comp := cost.Counter{Ops: int64(100 * (k + 1))}
		dist := cost.Counter{Ops: int64(10 * (k + 1)), Elements: int64(5 * k)}
		words := 50 + 10*k
		net.Charge(0, ClassRootComp, comp)
		net.Charge(0, ClassRootDist, dist)
		net.Send(0, k, 7, words)
		rootComp.Add(comp)
		rootDist.Add(dist)
		rootWire.AddSend(words)
	}
	for k := 0; k < p; k++ {
		net.Recv(k, 0, 7)
		dec := cost.Counter{Ops: int64(200 * (k + 1))}
		net.Charge(k, ClassRankComp, dec)
		rankRecv[k] = dec
	}

	tl := net.Finalize()
	if tl.Unmatched != 0 {
		t.Fatalf("unmatched receives: %d", tl.Unmatched)
	}
	pb := tl.PaperBreakdown()

	wantDist := testParams.Time(rootWire) + testParams.Time(rootDist)
	var maxComp time.Duration
	for k := 0; k < p; k++ {
		if d := testParams.Time(rankRecv[k]); d > maxComp {
			maxComp = d
		}
	}
	wantComp := testParams.Time(rootComp) + maxComp
	if pb.Distribution != wantDist {
		t.Errorf("Distribution = %v, want %v", pb.Distribution, wantDist)
	}
	if pb.Compression != wantComp {
		t.Errorf("Compression = %v, want %v", pb.Compression, wantComp)
	}
	if q := tl.TotalQueue(); q != 0 {
		t.Errorf("uniform topology queued %v, want 0", q)
	}
}

// TestUniformSelfSendCharged pins the legacy behaviour the parity
// contract depends on: a uniform self-send pays the full wire charge.
func TestUniformSelfSendCharged(t *testing.T) {
	net := NewNetwork(mustBuild(t, "uniform", 2, 0, 0), testParams)
	const words = 100
	net.Send(0, 0, 1, words)
	net.Recv(0, 0, 1)
	tl := net.Finalize()
	want := testParams.TStartup + words*testParams.TData
	if got := tl.Busy[0][ClassWire]; got != want {
		t.Errorf("self-send wire busy = %v, want %v", got, want)
	}
}

// TestNonUniformSelfSendFree: every routed topology delivers self-sends
// locally at zero cost (empty route).
func TestNonUniformSelfSendFree(t *testing.T) {
	for _, name := range []string{"bus", "star", "mesh", "fattree"} {
		net := NewNetwork(mustBuild(t, name, 4, 0, 0), testParams)
		net.Send(2, 2, 1, 1000)
		net.Recv(2, 2, 1)
		tl := net.Finalize()
		if got := tl.Busy[2][ClassWire]; got != 0 {
			t.Errorf("%s: self-send wire busy = %v, want 0", name, got)
		}
		if tl.Makespan != 0 {
			t.Errorf("%s: makespan = %v, want 0", name, tl.Makespan)
		}
	}
}

// TestBusContention: two senders share the bus, so the second transfer
// queues behind the first and the link reports the queueing delay.
func TestBusContention(t *testing.T) {
	net := NewNetwork(mustBuild(t, "bus", 3, 0, 0), testParams)
	const words = 1000
	xfer := testParams.TStartup + words*testParams.TData
	net.Send(0, 2, 1, words)
	net.Send(1, 2, 2, words)
	net.Recv(2, 0, 1)
	net.Recv(2, 1, 2)
	tl := net.Finalize()

	if got := tl.TotalQueue(); got != xfer {
		t.Errorf("queued = %v, want %v (one transfer blocked behind the other)", got, xfer)
	}
	if want := 2 * xfer; tl.Makespan != want {
		t.Errorf("makespan = %v, want %v", tl.Makespan, want)
	}
	// The queued sender's wire busy includes the wait (sender blocks on
	// the first link).
	if got := tl.Busy[1][ClassWire]; got != 2*xfer {
		t.Errorf("queued sender wire busy = %v, want %v", got, 2*xfer)
	}
	if got := tl.Busy[0][ClassWire]; got != xfer {
		t.Errorf("first sender wire busy = %v, want %v", got, xfer)
	}
}

// TestStarCongestedRootLink: overriding the bandwidth prices rank 0's
// access pair hot while leaf links stay at base, so a root-to-leaf
// transfer slows down by exactly the up-link difference. Each route is
// priced by replaying one recorded message alone on the network, so
// its delivery time is the sum of its hops' Latency + words·PerWord.
func TestStarCongestedRootLink(t *testing.T) {
	const bw = 1e6 // words/s => 1µs per word, ~11x T_Data
	hotPerWord := time.Duration(float64(time.Second) / bw)
	top := mustBuild(t, "star", 4, bw, 0)
	const words = 500
	replayOne := func(from, to int) time.Duration {
		net := NewNetwork(top, testParams)
		net.Send(from, to, 1, words)
		net.Recv(to, from, 1)
		return net.Finalize().Makespan
	}

	// Route 0→1 crosses hot up0 then base down1.
	want := (testParams.TStartup + words*hotPerWord) + (testParams.TStartup + words*testParams.TData)
	if got := replayOne(0, 1); got != want {
		t.Errorf("replayed 0→1 = %v, want %v", got, want)
	}
	// Leaf-to-leaf traffic avoids the hot pair entirely.
	wantLeaf := 2 * (testParams.TStartup + words*testParams.TData)
	if got := replayOne(2, 3); got != wantLeaf {
		t.Errorf("replayed 2→3 = %v, want %v", got, wantLeaf)
	}
}

// TestMeshRoutes checks XY routing hop counts on a 2x2 grid.
func TestMeshRoutes(t *testing.T) {
	top := mustBuild(t, "mesh", 4, 0, 0) // 2x2: ranks 0 1 / 2 3
	cases := []struct{ from, to, hops int }{
		{0, 1, 1}, {0, 2, 1}, {0, 3, 2}, {3, 0, 2}, {1, 2, 2}, {2, 2, 0},
	}
	for _, c := range cases {
		if _, got := top.route(c.from, c.to, 0); got != c.hops {
			t.Errorf("mesh route %d->%d: %d hops, want %d", c.from, c.to, got, c.hops)
		}
	}
}

// TestFatTreeRoutes: same-group traffic stays on the edge switch (2
// hops); cross-group traffic crosses the core (4 hops).
func TestFatTreeRoutes(t *testing.T) {
	top := mustBuild(t, "fattree", 4, 0, 0) // g=2: groups {0,1} {2,3}
	if _, got := top.route(0, 1, 0); got != 2 {
		t.Errorf("same-group route: %d hops, want 2", got)
	}
	if _, got := top.route(0, 3, 0); got != 4 {
		t.Errorf("cross-group route: %d hops, want 4", got)
	}
}

// TestBuildValidation covers the flag-facing error cases.
func TestBuildValidation(t *testing.T) {
	if _, err := Build("uniform", 0, testParams, 0, 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := Build("uniform", 4, testParams, -1, 0); err == nil {
		t.Error("negative bandwidth accepted")
	}
	if _, err := Build("uniform", 4, testParams, 0, -time.Second); err == nil {
		t.Error("negative latency accepted")
	}
	if _, err := Build("hypercube", 4, testParams, 0, 0); err == nil {
		t.Error("unknown topology accepted")
	}
	for _, name := range []string{"uniform", "bus", "star", "mesh", "fattree"} {
		if !ValidTopology(name) {
			t.Errorf("ValidTopology(%q) = false", name)
		}
		if _, err := Build(name, 7, testParams, 0, 0); err != nil {
			t.Errorf("Build(%s, 7): %v", name, err)
		}
	}
	if !ValidTopology("") {
		t.Error(`ValidTopology("") = false`)
	}
	if ValidTopology("ring") {
		t.Error(`ValidTopology("ring") = true`)
	}
}

// TestUnmatchedRecv: a receive with no recorded send charges nothing
// and is surfaced in the timeline.
func TestUnmatchedRecv(t *testing.T) {
	net := NewNetwork(mustBuild(t, "uniform", 2, 0, 0), testParams)
	net.Recv(1, 0, 9)
	tl := net.Finalize()
	if tl.Unmatched != 1 {
		t.Errorf("unmatched = %d, want 1", tl.Unmatched)
	}
	if tl.Makespan != 0 {
		t.Errorf("makespan = %v, want 0", tl.Makespan)
	}
}

// TestFinalizeCacheAndReset: Finalize caches until new recordings or
// Reset invalidate it; Reset yields an empty timeline.
func TestFinalizeCacheAndReset(t *testing.T) {
	net := NewNetwork(mustBuild(t, "uniform", 2, 0, 0), testParams)
	net.Send(0, 1, 1, 10)
	net.Recv(1, 0, 1)
	tl1 := net.Finalize()
	if tl2 := net.Finalize(); tl2 != tl1 {
		t.Error("repeated Finalize did not return the cached timeline")
	}
	net.Charge(0, ClassRootComp, cost.Counter{Ops: 5})
	tl3 := net.Finalize()
	if tl3 == tl1 {
		t.Error("recording after Finalize did not invalidate the cache")
	}
	if tl3.Busy[0][ClassRootComp] == 0 {
		t.Error("post-cache recording missing from new timeline")
	}
	net.Reset()
	tl4 := net.Finalize()
	if len(tl4.Events) != 0 || tl4.Makespan != 0 {
		t.Errorf("after Reset: %d events, makespan %v; want empty", len(tl4.Events), tl4.Makespan)
	}
}

// recordWorkload drives a fixed multi-rank workload against net with
// the rank goroutines interleaving however the scheduler (plus seeded
// jitter) decides. Causality matches the real machine: a receive is
// recorded only after its send has been recorded.
func recordWorkload(net *Network, p int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	jitters := make([]time.Duration, p)
	for i := range jitters {
		jitters[i] = time.Duration(rng.Intn(200)) * time.Microsecond
	}
	sent := make([]chan struct{}, p)
	for i := range sent {
		sent[i] = make(chan struct{})
	}
	var wg sync.WaitGroup
	for q := 0; q < p; q++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			time.Sleep(jitters[rank])
			if rank == 0 {
				for k := 0; k < p; k++ {
					net.Charge(0, ClassRootComp, cost.Counter{Ops: int64(50 + k)})
					net.Send(0, k, 3, 20+k)
					if k > 0 {
						close(sent[k])
					}
				}
				net.Recv(0, 0, 3)
				return
			}
			<-sent[rank]
			net.Recv(rank, 0, 3)
			net.Charge(rank, ClassRankDist, cost.Counter{Ops: int64(30 * rank)})
			net.Send(rank, 0, 4, 5)
		}(q)
	}
	wg.Wait()
	// Rank 0 drains the acks after every sender is done (FIFO per
	// (from,to,tag) keeps the matching deterministic).
	for q := 1; q < p; q++ {
		net.Recv(0, q, 4)
	}
}

// TestNetworkInsertionOrderInvariance is the determinism property test:
// the replayed timeline is a pure function of the per-rank operation
// sequences, so recording the same workload under different goroutine
// interleavings must hash identically.
func TestNetworkInsertionOrderInvariance(t *testing.T) {
	const p = 5
	var want uint64
	for trial := 0; trial < 8; trial++ {
		net := NewNetwork(mustBuild(t, "star", p, 0, 0), testParams)
		recordWorkload(net, p, int64(trial)*7919)
		got := net.Finalize().Hash()
		if trial == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("trial %d: timeline hash %x != %x — replay depends on recording interleaving", trial, got, want)
		}
	}
}

// TestReplayTwiceIdentical: two independent replays of identical
// recordings agree event for event (the -race determinism check).
func TestReplayTwiceIdentical(t *testing.T) {
	mk := func() *Timeline {
		net := NewNetwork(mustBuild(t, "mesh", 6, 0, 0), testParams)
		for k := 1; k < 6; k++ {
			net.Send(0, k, 1, 100*k)
		}
		for k := 1; k < 6; k++ {
			net.Recv(k, 0, 1)
			net.Charge(k, ClassRankComp, cost.Counter{Ops: int64(k * 1000)})
		}
		return net.Finalize()
	}
	a, b := mk(), mk()
	if a.Hash() != b.Hash() {
		t.Fatalf("two identical runs hash differently: %x vs %x", a.Hash(), b.Hash())
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
}

// TestReportDeterministic: the rendered network section is
// byte-identical across runs — what sim-smoke diffs.
func TestReportDeterministic(t *testing.T) {
	mk := func() string {
		net := NewNetwork(mustBuild(t, "bus", 4, 0, 0), testParams)
		for k := 1; k < 4; k++ {
			net.Send(0, k, 1, 64)
			net.Recv(k, 0, 1)
		}
		return net.Finalize().Report()
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("reports differ:\n%s\n---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("empty report")
	}
}
