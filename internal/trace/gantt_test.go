package trace

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/simnet"
)

// The per-rank Gantt chart that run reports print beside the phase
// table is drawn by simnet's Timeline. Its bytes are part of the
// deterministic reporting surface (sim-smoke diffs them across runs),
// so they are pinned here with the phase table's.

// goldenTimeline is a fixed virtual schedule: the root computes, sends
// to two ranks (the second send queued behind the first), the ranks
// receive and decode. Several events share a Start.
func goldenTimeline() *simnet.Timeline {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return &simnet.Timeline{P: 3, Events: []simnet.TimedEvent{
		{Kind: simnet.EvCompute, Rank: 0, Peer: -1, Class: simnet.ClassRootComp, Start: 0, End: ms(2)},
		{Kind: simnet.EvSend, Rank: 0, Peer: 1, Tag: 1, Words: 100, Start: ms(2), End: ms(5)},
		{Kind: simnet.EvSend, Rank: 0, Peer: 2, Tag: 2, Words: 100, Start: ms(5), End: ms(8)},
		{Kind: simnet.EvRecv, Rank: 1, Peer: 0, Tag: 1, Words: 100, Start: ms(5), End: ms(5)},
		{Kind: simnet.EvRecv, Rank: 2, Peer: 0, Tag: 2, Words: 100, Start: ms(8), End: ms(8)},
		{Kind: simnet.EvCompute, Rank: 1, Peer: -1, Class: simnet.ClassRankComp, Start: ms(5), End: ms(9)},
		{Kind: simnet.EvCompute, Rank: 2, Peer: -1, Class: simnet.ClassRankComp, Start: ms(8), End: ms(12)},
	}}
}

// A deliberate format change must update this string.
const goldenGantt = `time ->  (12ms total; s=send r=recv c=compute x=mixed)
P0   cccccccxsssssssssssssssssssss...............
P1   .................xccccccccccccccc...........
P2   ............................xccccccccccccccc
`

func TestRenderGanttGolden(t *testing.T) {
	if got := goldenTimeline().Gantt(44); got != goldenGantt {
		t.Errorf("gantt drifted:\n got:\n%s\nwant:\n%s", got, goldenGantt)
	}
}

// TestRenderOrderInvariant: the chart is a pure function of the event
// set; shuffling the events changes nothing.
func TestRenderOrderInvariant(t *testing.T) {
	tl := goldenTimeline()
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		rng.Shuffle(len(tl.Events), func(i, j int) { tl.Events[i], tl.Events[j] = tl.Events[j], tl.Events[i] })
		if got := tl.Gantt(44); got != goldenGantt {
			t.Fatalf("trial %d: shuffled events draw another chart:\n%s", trial, got)
		}
	}
}

// replayed builds a uniform network of p ranks, lets record fill it,
// and returns the replayed chart's lines.
func replayed(t *testing.T, p, width int, record func(*simnet.Network)) []string {
	t.Helper()
	top, err := simnet.Build("uniform", p, cost.DefaultParams, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.NewNetwork(top, cost.DefaultParams)
	record(net)
	lines := strings.Split(strings.TrimSpace(net.Finalize().Gantt(width)), "\n")
	if len(lines) != p+1 {
		t.Fatalf("gantt lines = %d, want a legend and %d ranks:\n%s", len(lines), p, strings.Join(lines, "\n"))
	}
	return lines
}

// TestGanttMarks: on a replayed exchange, the sender's row carries `s`
// and the rank that receives and then answers collapses to `x` where
// the receive and its own send share a bucket.
func TestGanttMarks(t *testing.T) {
	lines := replayed(t, 2, 20, func(net *simnet.Network) {
		net.Send(0, 1, 0, 1000)
		net.Recv(1, 0, 0)
		net.Send(1, 0, 1, 1000)
		net.Recv(0, 1, 1)
	})
	if !strings.Contains(lines[1], "s") {
		t.Errorf("rank 0 row missing send mark: %q", lines[1])
	}
	if !strings.Contains(lines[2], "x") {
		t.Errorf("rank 1 row missing mixed mark: %q", lines[2])
	}
}

// TestGanttSpanGlyph: compute draws `c`, not the send glyph `s`; sends
// draw `s`, receives `r`, and a bucket that holds two kinds collapses
// to `x`.
func TestGanttSpanGlyph(t *testing.T) {
	lines := replayed(t, 3, 20, func(net *simnet.Network) {
		ms := cost.Counter{Ops: 13_333} // ≈ 1 ms at T_Operation
		net.Charge(0, simnet.ClassRankComp, ms)
		net.Send(1, 2, 0, 1000)
		net.Charge(1, simnet.ClassRankComp, ms)
		net.Recv(2, 1, 0)
	})
	if !strings.Contains(lines[0], "c=compute") {
		t.Errorf("legend missing the compute glyph: %q", lines[0])
	}
	if row := lines[1]; !strings.Contains(row, "c") || strings.ContainsAny(row, "srx") {
		t.Errorf("rank 0 computes only, drawn %q", row)
	}
	if row := lines[2]; !strings.Contains(row, "s") || !strings.Contains(row, "x") || !strings.Contains(row, "c") {
		t.Errorf("rank 1 sends, then computes from the send's end: want s, x and c, drawn %q", row)
	}
	if row := lines[3]; !strings.Contains(row, "r") || strings.ContainsAny(row, "scx") {
		t.Errorf("rank 2 only receives, drawn %q", row)
	}
}
