package simnet

// The replay engine: a discrete-event simulation over the recorded
// per-rank operation sequences. The loop always executes the globally
// earliest pending event — either a rank's next operation or an
// in-flight message's next hop — with stable tiebreaks, so the
// timeline is a pure function of the recorded sequences:
//
//   - events are ordered by virtual time first;
//   - at equal times, in-flight hops run before rank operations (they
//     were caused by strictly earlier sends, so they are physically
//     already on the wire);
//   - equal-time hops order by (sender rank, sender op index, hop);
//   - equal-time rank operations order by rank.
//
// Executing the global minimum is safe because no event can create
// work in another event's past: a rank's later operations start at or
// after its current candidate time, a hop's successor starts at or
// after the hop completes, and a blocked receive becomes runnable no
// earlier than its sender's current candidate time.

import "time"

// hopEvent is one in-flight message arriving at its next link.
type hopEvent struct {
	at   time.Duration
	msg  int
	hop  int // index into the message's route
	from int // tiebreak identity: sender rank...
	seq  int // ...and sender op index
}

// hopLess orders hop events by (at, from, seq, hop).
func hopLess(a, b hopEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.from != b.from {
		return a.from < b.from
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.hop < b.hop
}

// push adds ev to the binary min-heap of in-flight hops.
func (r *replay) push(ev hopEvent) {
	h := append(r.hops, ev)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !hopLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	r.hops = h
}

// pop removes and returns the earliest in-flight hop.
func (r *replay) pop() hopEvent {
	h := r.hops
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			if hopLess(h[c], h[least]) {
				least = c
			}
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	r.hops = h
	return top
}

// replay executes the DES over a snapshot of the recorded state.
type replay struct {
	top  *Topology
	ops  [][]op
	msgs []message

	clock     []time.Duration
	cursor    []int
	free      []time.Duration // link occupied-until times
	busy      [][numClasses]time.Duration
	wait      []time.Duration
	deliver   []time.Duration
	delivered []bool
	hops      []hopEvent // binary min-heap under hopLess
	links     []LinkStat
	events    []TimedEvent
	unmatched int
}

// Finalize replays the recorded operations and returns the timeline.
// The result is cached until the next recording call or Reset, so
// repeated reads are free. Recording more operations after Finalize
// invalidates the cache and a later Finalize sees the full history.
func (n *Network) Finalize() *Timeline {
	if n == nil {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.tl != nil {
		return n.tl
	}
	r := &replay{top: n.top, ops: n.ops, msgs: n.msgs}
	n.tl = r.run()
	n.tl.Topology = n.top.Name
	n.tl.P = n.top.Ranks()
	return n.tl
}

func (r *replay) run() *Timeline {
	p := r.top.Ranks()
	r.clock = make([]time.Duration, p)
	r.cursor = make([]int, p)
	r.busy = make([][numClasses]time.Duration, p)
	r.wait = make([]time.Duration, p)
	r.free = make([]time.Duration, len(r.top.Links))
	r.deliver = make([]time.Duration, len(r.msgs))
	r.delivered = make([]bool, len(r.msgs))
	r.links = make([]LinkStat, len(r.top.Links))
	for i, l := range r.top.Links {
		r.links[i].Name = l.Name
	}

	for {
		rank, rankAt, rankOK := r.nextRank()
		hopOK := len(r.hops) > 0
		switch {
		case hopOK && (!rankOK || r.hops[0].at <= rankAt):
			r.runHop(r.pop())
		case rankOK:
			r.runOp(rank)
		default:
			if !r.unstick() {
				return r.timeline()
			}
		}
	}
}

// nextRank returns the lowest-ranked runnable rank with the earliest
// candidate time, or ok=false when every rank is finished or blocked.
func (r *replay) nextRank() (rank int, at time.Duration, ok bool) {
	for q := 0; q < len(r.ops); q++ {
		c := r.cursor[q]
		if c >= len(r.ops[q]) {
			continue
		}
		o := r.ops[q][c]
		t := r.clock[q]
		if o.kind == opRecv && o.msg >= 0 {
			if !r.delivered[o.msg] {
				continue // blocked
			}
			if d := r.deliver[o.msg]; d > t {
				t = d
			}
		}
		if !ok || t < at {
			rank, at, ok = q, t, true
		}
	}
	return rank, at, ok
}

// runHop advances one in-flight message across its next link.
func (r *replay) runHop(ev hopEvent) { r.cross(ev.msg, ev.hop, ev.at) }

// cross moves message id over hop h of its route, arriving at the link
// at time at: the transfer waits until the link is free, occupies it,
// then delivers the message or queues its next hop. An empty route is
// local delivery and costs nothing.
func (r *replay) cross(id, h int, at time.Duration) (start, end time.Duration) {
	m := r.msgs[id]
	li, hops := r.top.route(m.from, m.to, h)
	if hops == 0 {
		r.deliver[id], r.delivered[id] = at, true
		return at, at
	}
	start = max(at, r.free[li])
	end = start + r.top.Links[li].Transfer(m.words)
	r.free[li] = end
	st := &r.links[li]
	st.Transfers++
	st.Words += int64(m.words)
	st.Busy += end - start
	st.Queue += start - at
	st.LastEnd = max(st.LastEnd, end)
	if h < hops-1 {
		r.push(hopEvent{at: end, msg: id, hop: h + 1, from: m.from, seq: m.srcOp})
	} else {
		r.deliver[id], r.delivered[id] = end, true
	}
	return start, end
}

// runOp executes the rank's next recorded operation.
func (r *replay) runOp(rank int) {
	o := r.ops[rank][r.cursor[rank]]
	r.cursor[rank]++
	switch o.kind {
	case opCompute:
		start := r.clock[rank]
		r.clock[rank] += o.dur
		r.busy[rank][o.class] += o.dur
		r.events = append(r.events, TimedEvent{
			Kind: EvCompute, Rank: rank, Peer: -1, Class: o.class,
			Start: start, End: r.clock[rank],
		})
	case opSend:
		r.runSend(rank, o)
	case opRecv:
		if o.msg < 0 {
			r.unmatched++
			return
		}
		m := r.msgs[o.msg]
		start := r.clock[rank]
		at := r.deliver[o.msg]
		if at > start {
			r.wait[rank] += at - start
			r.clock[rank] = at
		}
		r.events = append(r.events, TimedEvent{
			Kind: EvRecv, Rank: rank, Peer: m.from, Tag: m.tag, Words: m.words,
			Start: r.clock[rank], End: r.clock[rank],
		})
	}
}

// runSend serialises the message onto the first link of its route: the
// sender blocks until the link is free and the payload has crossed it
// (queueing delay is the sender's problem — that is the contention
// signal). Later hops propagate as heap events.
func (r *replay) runSend(rank int, o op) {
	m := r.msgs[o.msg]
	before := r.clock[rank]
	start, end := r.cross(o.msg, 0, before)
	r.clock[rank] = end
	r.busy[rank][ClassWire] += end - before
	r.events = append(r.events, TimedEvent{
		Kind: EvSend, Rank: rank, Peer: m.to, Tag: m.tag, Words: m.words,
		Start: before, End: end, Queue: start - before,
	})
}

// unstick breaks a receive that can never be satisfied — possible only
// when the runtime matched messages in a different order than the
// recorded FIFOs (a reordering fault). The lowest-ranked blocked
// receive is released in place, uncharged, and counted as unmatched.
// Returns false when nothing is blocked (the replay is complete).
func (r *replay) unstick() bool {
	for q := 0; q < len(r.ops); q++ {
		if r.cursor[q] < len(r.ops[q]) {
			r.cursor[q]++
			r.unmatched++
			return true
		}
	}
	return false
}

func (r *replay) timeline() *Timeline {
	tl := &Timeline{
		Events:    r.events,
		Links:     r.links,
		Clock:     r.clock,
		Wait:      r.wait,
		Unmatched: r.unmatched,
	}
	tl.Busy = make([][]time.Duration, len(r.busy))
	for q := range r.busy {
		tl.Busy[q] = append([]time.Duration(nil), r.busy[q][:]...)
	}
	for _, c := range r.clock {
		if c > tl.Makespan {
			tl.Makespan = c
		}
	}
	for i := range r.delivered {
		if r.delivered[i] && r.deliver[i] > tl.Makespan {
			tl.Makespan = r.deliver[i]
		}
	}
	for _, l := range r.links {
		if l.LastEnd > tl.Makespan {
			tl.Makespan = l.LastEnd
		}
	}
	return tl
}
