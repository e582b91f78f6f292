// Package trace records message events on the emulated multicomputer
// and renders them as a per-rank timeline — a debugging aid for the
// communication patterns of the distribution schemes (who sent what to
// whom, when, and how big it was).
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind classifies an event.
type Kind int

const (
	// Send is a message leaving a rank.
	Send Kind = iota
	// Recv is a message arriving at a rank.
	Recv
	// Span is a user-recorded compute span.
	Span
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Send:
		return "send"
	case Recv:
		return "recv"
	default:
		return "span"
	}
}

// Event is one recorded occurrence. Wall events carry At/Dur; events
// exported from the network simulator instead carry virtual timestamps
// (VAt/VDur with Virtual set) measured from the run's virtual epoch,
// which makes their rendering deterministic across runs.
type Event struct {
	Kind  Kind
	Rank  int
	Peer  int // destination (Send) or source (Recv); -1 for spans
	Tag   int
	Words int
	Label string // span label
	At    time.Time
	Dur   time.Duration // spans only

	// Virtual marks a simulator-timed event: VAt is its start on the
	// virtual clock and VDur its extent (sends include serialisation
	// and queueing). At is zero for virtual events.
	Virtual bool
	VAt     time.Duration
	VDur    time.Duration
}

// Tracer collects events; safe for concurrent use. The zero value is
// ready. Besides timeline events, a tracer carries named counters so
// infrastructure layers (reliable transport retries) can surface
// occurrence counts without their own reporting channel.
type Tracer struct {
	mu       sync.Mutex
	events   []Event
	start    time.Time
	counters map[string]int64
}

// New returns an empty tracer with the epoch set to now.
func New() *Tracer {
	return &Tracer{start: time.Now()}
}

// Record appends an event, stamping it with the current time if At is
// zero.
func (t *Tracer) Record(e Event) {
	if t == nil {
		return
	}
	if e.At.IsZero() {
		e.At = time.Now()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.start.IsZero() || e.At.Before(t.start) {
		t.start = e.At
	}
	t.events = append(t.events, e)
}

// Events returns a copy of the recorded events sorted by time with a
// stable (time, rank, tag) tiebreak: events recorded at the same
// instant — common when a fast transport timestamps several records in
// one clock tick — always come out in the same order, so two identical
// runs render byte-identical timelines and charts.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	SortEvents(out)
	return out
}

// SortEvents orders events by (time, rank, tag), stably. Wall events
// compare on At, virtual events on VAt; the mixed case orders virtual
// events first (their At is zero, which sorts before any wall stamp).
func SortEvents(events []Event) {
	sort.SliceStable(events, func(a, b int) bool {
		ea, eb := events[a], events[b]
		if ea.Virtual && eb.Virtual {
			if ea.VAt != eb.VAt {
				return ea.VAt < eb.VAt
			}
		} else if !ea.At.Equal(eb.At) {
			return ea.At.Before(eb.At)
		}
		if ea.Rank != eb.Rank {
			return ea.Rank < eb.Rank
		}
		return ea.Tag < eb.Tag
	})
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Reset clears all events and counters.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = nil
	t.counters = nil
	t.start = time.Now()
}

// Count adds delta to the named counter. Nil-safe, like Record, so
// layers can count unconditionally whether or not a tracer is attached.
func (t *Tracer) Count(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.counters == nil {
		t.counters = make(map[string]int64)
	}
	t.counters[name] += delta
}

// Counters returns a copy of all counters.
func (t *Tracer) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counters))
	for k, v := range t.counters {
		out[k] = v
	}
	return out
}

// CountersString renders the counters one per line, sorted by name, for
// CLI reports; empty string when nothing was counted.
func (t *Tracer) CountersString() string {
	cs := t.Counters()
	if len(cs) == 0 {
		return ""
	}
	names := make([]string, 0, len(cs))
	for k := range cs {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%-28s %d\n", k, cs[k])
	}
	return b.String()
}

// Timeline renders the events as one line each, relative to the first
// event:
//
//   - 12.3µs  P0 send -> P2  tag 1  40000 words
//   - 94.1µs  P2 recv <- P0  tag 1  40000 words
func (t *Tracer) Timeline() string { return RenderTimeline(t.Events()) }

// Gantt renders a fixed-width per-rank activity chart: each rank one
// row, time bucketed into width columns, `s`/`r`/`c` marking buckets
// with sends, receives or compute spans, `x` buckets mixing kinds.
func (t *Tracer) Gantt(ranks, width int) string { return RenderGantt(t.Events(), ranks, width) }

// eventWindow returns an event's [start, start+dur) on whichever clock
// it carries, as offsets from the given epoch.
func (e Event) window(epoch time.Time) (start, dur time.Duration) {
	if e.Virtual {
		return e.VAt, e.VDur
	}
	return e.At.Sub(epoch), e.Dur
}

// epochOf returns the wall epoch of a mixed event slice (zero time when
// every event is virtual — virtual offsets need no epoch).
func epochOf(events []Event) time.Time {
	for _, e := range events {
		if !e.Virtual {
			return e.At
		}
	}
	return time.Time{}
}

// RenderTimeline renders sorted events one line each, using virtual
// offsets for simulator events and wall offsets (from the first wall
// event) otherwise. A purely virtual slice renders identically on
// every run.
func RenderTimeline(events []Event) string {
	if len(events) == 0 {
		return "(no events)\n"
	}
	SortEvents(events)
	epoch := epochOf(events)
	var b strings.Builder
	for _, e := range events {
		off, dur := e.window(epoch)
		switch e.Kind {
		case Send:
			fmt.Fprintf(&b, "+%12v  P%d send -> P%d  tag %d  %d words\n", off, e.Rank, e.Peer, e.Tag, e.Words)
		case Recv:
			fmt.Fprintf(&b, "+%12v  P%d recv <- P%d  tag %d  %d words\n", off, e.Rank, e.Peer, e.Tag, e.Words)
		default:
			fmt.Fprintf(&b, "+%12v  P%d %-14s (%v)\n", off, e.Rank, e.Label, dur)
		}
	}
	return b.String()
}

// RenderGantt renders the per-rank activity chart for sorted events.
// Events with a duration (virtual sends, compute spans) mark every
// bucket their window covers, so link occupancy is visible as solid
// runs of `s` on the sender's row.
func RenderGantt(events []Event, ranks, width int) string {
	if len(events) == 0 || ranks <= 0 || width <= 0 {
		return "(no events)\n"
	}
	SortEvents(events)
	epoch := epochOf(events)
	first, _ := events[0].window(epoch)
	last := first
	for _, e := range events {
		s, d := e.window(epoch)
		if s < first {
			first = s
		}
		if s+d > last {
			last = s + d
		}
	}
	total := last - first
	if total <= 0 {
		total = time.Nanosecond
	}
	grid := make([][]byte, ranks)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(".", width))
	}
	bucket := func(off time.Duration) int {
		col := int(float64(off-first) / float64(total) * float64(width-1))
		if col < 0 {
			col = 0
		}
		if col >= width {
			col = width - 1
		}
		return col
	}
	for _, e := range events {
		if e.Rank < 0 || e.Rank >= ranks {
			continue
		}
		var mark byte
		switch e.Kind {
		case Send:
			mark = 's'
		case Recv:
			mark = 'r'
		default: // compute spans are not sends; they get their own glyph
			mark = 'c'
		}
		s, d := e.window(epoch)
		for col := bucket(s); col <= bucket(s+d); col++ {
			cell := &grid[e.Rank][col]
			switch {
			case *cell == '.':
				*cell = mark
			case *cell != mark:
				*cell = 'x'
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time ->  (%v total; s=send r=recv c=compute x=mixed)\n", total)
	for r := range grid {
		fmt.Fprintf(&b, "P%-3d %s\n", r, grid[r])
	}
	return b.String()
}
