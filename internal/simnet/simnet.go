// Package simnet is a deterministic discrete-event network simulator
// for the emulated multicomputer: messages travel hop by hop over
// Links with per-message latency and per-word serialisation time,
// links are occupied while a transfer crosses them (later transfers
// queue), and every charge lands on a virtual timeline with per-rank
// clocks and per-link occupancy statistics.
//
// The simulator is record-replay. While a run executes, each rank
// records its operations — compute charges, sends, receives — in its
// own program order (the only order that is deterministic under the Go
// scheduler); Finalize then replays the recorded operations as a
// discrete-event simulation, always advancing the globally earliest
// pending event with stable tiebreaks. The resulting timeline is a
// pure function of the per-rank operation sequences: it is invariant
// under the real-time interleaving of the recording goroutines (see
// TestNetworkInsertionOrderInvariance).
//
// The `uniform` topology — a dedicated link per (sender, receiver)
// pair priced at Latency = T_Startup, PerWord = T_Data — makes the
// replayed wire time exactly Messages·T_Startup + Elements·T_Data per
// sender, so the timeline's PaperBreakdown reproduces the legacy
// cost.Params.Time totals bit for bit (the parity contract pinned by
// core's TestSimnetUniformParity). Every other topology prices the
// same recorded traffic under contention, which is where the paper's
// Remark orderings start to move (costmodel.RemarksUnder).
package simnet

import (
	"sync"
	"time"

	"repro/internal/cost"
)

// Class labels where a compute charge lands in the paper's books. Wire
// time needs no class: sends are always distribution-phase work charged
// to the sending rank.
type Class uint8

const (
	// ClassWire is transport occupancy: serialisation plus queueing,
	// charged to the sender (the model counts each transfer once).
	ClassWire Class = iota
	// ClassRootDist is the root's distribution-side compute
	// (pack/convert/extract).
	ClassRootDist
	// ClassRootComp is the root's compression-side compute
	// (compress/encode).
	ClassRootComp
	// ClassRankDist is a receiver's distribution-side compute
	// (unpack/convert).
	ClassRankDist
	// ClassRankComp is a receiver's compression-side compute
	// (compress/decode).
	ClassRankComp

	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassWire:
		return "wire"
	case ClassRootDist:
		return "root-dist"
	case ClassRootComp:
		return "root-comp"
	case ClassRankDist:
		return "rank-dist"
	case ClassRankComp:
		return "rank-comp"
	default:
		return "class?"
	}
}

// Link is one directed communication channel. A transfer of w words
// occupies the link for Latency + w·PerWord; transfers arriving while
// the link is busy queue in arrival order (FCFS, deterministic ties).
type Link struct {
	Name    string
	Latency time.Duration // per message crossing the link
	PerWord time.Duration // serialisation time per payload word
}

// Transfer returns the time w words occupy the link.
func (l Link) Transfer(w int) time.Duration {
	return l.Latency + time.Duration(w)*l.PerWord
}

// opKind discriminates recorded operations.
type opKind uint8

const (
	opCompute opKind = iota
	opSend
	opRecv
)

// op is one recorded operation of a rank, in that rank's program order.
type op struct {
	kind  opKind
	class Class         // opCompute
	dur   time.Duration // opCompute
	msg   int           // opSend/opRecv: index into Network.msgs; -1 = unmatched recv
}

// message is one recorded point-to-point transfer.
type message struct {
	from, to, tag, words int
	// srcOp is the send's index in ops[from] — with the sender rank it
	// forms the deterministic identity used for every tiebreak.
	srcOp int
}

// fifoKey matches receives to sends the way the machine's transports
// deliver them: FIFO per (sender, receiver, tag).
type fifoKey struct{ from, to, tag int }

// Network records one run's operations against a topology and replays
// them into a Timeline. Recording methods are safe for concurrent use
// from the rank goroutines; each rank's operations must be recorded
// from a single goroutine at a time (true by construction in the
// machine's SPMD Run).
type Network struct {
	mu     sync.Mutex
	top    *Topology
	params cost.Params
	ops    [][]op
	msgs   []message
	fifos  map[fifoKey][]int
	tl     *Timeline // Finalize cache; cleared by Reset
}

// NewNetwork returns an empty recorder over the topology. params price
// compute charges (Charge) via cost.Params.Time.
func NewNetwork(top *Topology, params cost.Params) *Network {
	return &Network{
		top:    top,
		params: params,
		ops:    make([][]op, top.Ranks()),
		fifos:  make(map[fifoKey][]int),
	}
}

// Send records rank `from` transmitting words payload words to rank
// `to` on tag. Out-of-range ranks are ignored (defensive: the machine
// validates destinations before sending).
func (n *Network) Send(from, to, tag, words int) {
	if n == nil || from < 0 || from >= n.top.Ranks() || to < 0 || to >= n.top.Ranks() {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tl = nil
	id := len(n.msgs)
	n.msgs = append(n.msgs, message{from: from, to: to, tag: tag, words: words, srcOp: len(n.ops[from])})
	n.ops[from] = append(n.ops[from], op{kind: opSend, msg: id})
	k := fifoKey{from: from, to: to, tag: tag}
	n.fifos[k] = append(n.fifos[k], id)
}

// Recv records rank `rank` receiving the next message from `from` on
// tag. Matching is FIFO per (from, rank, tag), the delivery order of
// the machine's transports. A receive with no recorded send (control
// traffic that slipped through, or a reordering fault) is kept as an
// unmatched receive: it blocks nothing and charges nothing.
func (n *Network) Recv(rank, from, tag int) {
	if n == nil || rank < 0 || rank >= n.top.Ranks() {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tl = nil
	id := -1
	k := fifoKey{from: from, to: rank, tag: tag}
	if q := n.fifos[k]; len(q) > 0 {
		id = q[0]
		if len(q) == 1 {
			delete(n.fifos, k)
		} else {
			n.fifos[k] = q[1:]
		}
	}
	n.ops[rank] = append(n.ops[rank], op{kind: opRecv, msg: id})
}

// Charge records compute work on a rank, priced by the network's
// params: Messages·T_Startup + Elements·T_Data + Ops·T_Operation. Wire
// classes belong to Send; Charge is for compute (encode, decode, pack,
// convert). Zero charges are dropped.
func (n *Network) Charge(rank int, class Class, c cost.Counter) {
	if n == nil || rank < 0 || rank >= n.top.Ranks() {
		return
	}
	d := n.params.Time(c)
	if d <= 0 {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tl = nil
	n.ops[rank] = append(n.ops[rank], op{kind: opCompute, class: class, dur: d})
}

// Reset clears every recorded operation so the network (and the pooled
// machine holding it) can be reused for another run.
func (n *Network) Reset() {
	if n == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for r := range n.ops {
		n.ops[r] = n.ops[r][:0]
	}
	n.msgs = n.msgs[:0]
	n.fifos = make(map[fifoKey][]int)
	n.tl = nil
}
