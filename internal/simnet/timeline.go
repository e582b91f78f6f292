package simnet

// Timeline: the replayed run. Everything here is virtual time — a pure
// function of the recorded operation sequences and the topology — so
// two identical runs produce byte-identical reports and equal hashes.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"time"
)

// EvKind classifies a timeline event.
type EvKind uint8

const (
	// EvSend is a message leaving its sender (End includes first-link
	// serialisation and any queueing, charged to the sender).
	EvSend EvKind = iota
	// EvRecv is a matched receive completing at the receiver.
	EvRecv
	// EvCompute is a compute charge span.
	EvCompute
)

// TimedEvent is one virtually timed occurrence.
type TimedEvent struct {
	Kind  EvKind
	Rank  int
	Peer  int // destination (send) or source (recv); -1 for computes
	Tag   int
	Words int
	Class Class // computes only
	Start time.Duration
	End   time.Duration
	Queue time.Duration // sends: time spent waiting for the first link
}

// LinkStat is one link's replayed occupancy.
type LinkStat struct {
	Name      string
	Transfers int
	Words     int64
	Busy      time.Duration // time the link was serialising payload
	Queue     time.Duration // total arrival-to-start queueing delay
	LastEnd   time.Duration // when the link's last transfer completed
}

// Utilization returns Busy as a fraction of the makespan.
func (l LinkStat) Utilization(makespan time.Duration) float64 {
	if makespan <= 0 {
		return 0
	}
	return float64(l.Busy) / float64(makespan)
}

// Timeline is the replayed virtual schedule of one run.
type Timeline struct {
	Topology string
	P        int
	Events   []TimedEvent
	Links    []LinkStat
	// Clock is each rank's completion time; Busy its per-class busy
	// time (indexed by Class); Wait its total blocked-receive idle.
	Clock []time.Duration
	Busy  [][]time.Duration
	Wait  []time.Duration
	// Makespan is the end of the last event anywhere — clocks, message
	// deliveries and link drains included.
	Makespan time.Duration
	// Unmatched counts receives the replay could not pair with a
	// recorded send (reordering faults); zero on clean runs.
	Unmatched int
}

// Breakdown is the paper-shaped account of a replayed distribution:
// the root works sequentially (its wire and compute charges add up)
// while receivers work in parallel (max over ranks) — the same
// combination rule as dist.Breakdown, but priced under the topology.
type Breakdown struct {
	Distribution time.Duration
	Compression  time.Duration
	Makespan     time.Duration
}

// PaperBreakdown folds the per-class busy times with the paper's rule:
//
//	T_Distribution = wire(root) + root-dist(root) + max_k rank-dist(k)
//	T_Compression  = root-comp(root) + max_k rank-comp(k)
//
// Receive-side idle waiting is excluded, matching the model's
// convention of counting each transfer once at the sender. Under the
// uniform topology these totals equal the legacy counter totals
// exactly; under contended topologies the wire term grows by the
// queueing delay the root actually suffered.
func (t *Timeline) PaperBreakdown() Breakdown {
	b := Breakdown{Makespan: t.Makespan}
	if len(t.Busy) == 0 {
		return b
	}
	root := t.Busy[0]
	b.Distribution = root[ClassWire] + root[ClassRootDist]
	b.Compression = root[ClassRootComp]
	var maxDist, maxComp time.Duration
	for _, busy := range t.Busy {
		if d := busy[ClassRankDist]; d > maxDist {
			maxDist = d
		}
		if c := busy[ClassRankComp]; c > maxComp {
			maxComp = c
		}
	}
	b.Distribution += maxDist
	b.Compression += maxComp
	return b
}

// Hash returns a 64-bit FNV-1a digest of the whole timeline — events,
// per-rank clocks and per-link stats — for cheap determinism checks:
// two runs of the same workload must hash identically.
func (t *Timeline) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	w(int64(t.P))
	w(int64(len(t.Events)))
	for _, e := range t.Events {
		w(int64(e.Kind))
		w(int64(e.Rank))
		w(int64(e.Peer))
		w(int64(e.Tag))
		w(int64(e.Words))
		w(int64(e.Class))
		w(int64(e.Start))
		w(int64(e.End))
		w(int64(e.Queue))
	}
	for _, l := range t.Links {
		h.Write([]byte(l.Name))
		w(int64(l.Transfers))
		w(l.Words)
		w(int64(l.Busy))
		w(int64(l.Queue))
		w(int64(l.LastEnd))
	}
	for _, c := range t.Clock {
		w(int64(c))
	}
	for _, d := range t.Wait {
		w(int64(d))
	}
	return h.Sum64()
}

// Gantt renders a fixed-width per-rank activity chart of the timeline:
// one row per rank, virtual time bucketed into width columns, `s`/`r`/`c`
// marking buckets with sends, receives or compute, `x` buckets mixing
// kinds. An event marks every bucket from its Start to its End, so a
// send's link occupancy, queueing included, shows as a solid run of `s`
// on the sender's row. Like the rest of the timeline it is a pure
// function of the recording: two identical runs draw the same bytes.
func (t *Timeline) Gantt(width int) string {
	if len(t.Events) == 0 || t.P <= 0 || width <= 0 {
		return "(no events)\n"
	}
	first, last := t.Events[0].Start, t.Events[0].End
	for _, e := range t.Events {
		first, last = min(first, e.Start), max(last, e.End)
	}
	total := max(last-first, time.Nanosecond)
	grid := make([][]byte, t.P)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(".", width))
	}
	bucket := func(at time.Duration) int {
		return min(max(int(float64(at-first)/float64(total)*float64(width-1)), 0), width-1)
	}
	for _, e := range t.Events {
		if e.Rank < 0 || e.Rank >= t.P {
			continue
		}
		mark := byte('c')
		switch e.Kind {
		case EvSend:
			mark = 's'
		case EvRecv:
			mark = 'r'
		}
		for col := bucket(e.Start); col <= bucket(e.End); col++ {
			switch cell := &grid[e.Rank][col]; *cell {
			case '.':
				*cell = mark
			case mark:
			default:
				*cell = 'x'
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time ->  (%v total; s=send r=recv c=compute x=mixed)\n", total)
	for r, row := range grid {
		fmt.Fprintf(&b, "P%-3d %s\n", r, row)
	}
	return b.String()
}

// LinkReport renders the per-link occupancy table: one row per link
// that carried traffic, in link creation order, with utilization
// relative to the makespan. Fully virtual, hence deterministic.
func (t *Timeline) LinkReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %9s %12s %14s %14s %6s\n", "link", "transfers", "words", "busy", "queued", "util")
	for _, l := range t.Links {
		if l.Transfers == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-12s %9d %12d %14v %14v %5.1f%%\n",
			l.Name, l.Transfers, l.Words, l.Busy, l.Queue, 100*l.Utilization(t.Makespan))
	}
	return b.String()
}

// MaxLinkUtilization returns the highest per-link utilization.
func (t *Timeline) MaxLinkUtilization() float64 {
	var m float64
	for _, l := range t.Links {
		if u := l.Utilization(t.Makespan); u > m {
			m = u
		}
	}
	return m
}

// TotalQueue returns the summed queueing delay across all links — the
// scalar congestion signal (zero on the uniform topology).
func (t *Timeline) TotalQueue() time.Duration {
	var q time.Duration
	for _, l := range t.Links {
		q += l.Queue
	}
	return q
}

// Report renders the deterministic network section of a run report:
// the paper-shaped totals, the makespan, and the link table.
func (t *Timeline) Report() string {
	var b strings.Builder
	pb := t.PaperBreakdown()
	fmt.Fprintf(&b, "network model: topology=%s p=%d\n", t.Topology, t.P)
	fmt.Fprintf(&b, "sim T_Distribution %v, T_Compression %v, makespan %v, queued %v\n",
		pb.Distribution, pb.Compression, pb.Makespan, t.TotalQueue())
	if t.Unmatched > 0 {
		fmt.Fprintf(&b, "unmatched receives: %d\n", t.Unmatched)
	}
	b.WriteString(t.LinkReport())
	return b.String()
}
