package spops

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/simnet"
)

// Tag offsets within the range a plan execution allocates via
// machine.AllocTags. All plan traffic rides tags >= 0, so it is
// charged to cost counters and recorded into the simnet recorder
// exactly like distribution traffic.
const (
	tagScatter = iota // IO -> owners: x (or b, or B-block) segments
	tagHalo           // owner -> consumer: needed x values
	tagYRoute         // contributor -> owner: partial y sums
	tagGather         // owner -> IO: owned y segments / C rows
	tagRedUp          // rank -> IO: scalar reduction operands
	tagRedDown        // IO -> rank: reduced scalars
	tagFetch          // B-row owner -> consumer: fetched B rows
	tagCount
)

// ioRank sources and sinks global vectors: the root, which held the
// global array the plan's distribution came from.
const ioRank = 0

// OpStats reports what one plan execution moved and did.
type OpStats struct {
	// Op names the operation ("spmv", "spgemm", "jacobi").
	Op string
	// Iterations is the number of sweeps an iterative solver ran (1
	// for one-shot SpMV / SpGEMM).
	Iterations int
	// Converged reports whether an iterative solver met its
	// tolerance before hitting the iteration cap.
	Converged bool
	// Messages and WireWords are the charged point-to-point traffic
	// actually moved, summed over ranks.
	Messages, WireWords int
	// HaloWords is the plan's per-sweep halo payload.
	HaloWords int
	// BcastWords is the per-sweep broadcast-equivalent payload the
	// halo exchange replaced (Cols values to each non-root rank).
	BcastWords int
	// Ops counts local floating-point work, in the paper's
	// element-operation unit.
	Ops int
}

// rankState is one rank's execution-time scratch. Buffers are sized
// from the plan once and reused across calls: the plan keeps its exec.
type rankState struct {
	xlo, xhi   int
	ylo, yhi   int
	xSeg       []float64  // resident owned x values
	ySeg       []float64  // owned y accumulation
	bSeg       []float64  // Jacobi's resident right-hand side
	needVal    []float64  // x values this rank's nonzeros reference
	contribVal []float64  // partial sums for contributed rows
	red        [2]float64 // allreduce operand, then the reduced scalars
	acc        spa        // SpGEMM's accumulator, over B's columns
	wire       cost.Counter
	comp       cost.Counter
}

// exec is the execution state of the plan's ops: per-rank state and
// counters, bound to one machine and one tag range for each call. The
// plan keeps one (CommPlan.execs); m is nil while it is not in use.
type exec struct {
	pl    *CommPlan
	m     *machine.Machine
	base  int
	st    []*rankState
	sweep []sweepPart // the plan's sweep view (SpMV-family ops only)
}

// takeExec returns the plan's exec bound to m and fresh tags, with
// its counters cleared, or a new exec when a concurrent call holds the
// plan's. Every buffer a call reads, it writes first, so a call that
// failed midway leaves nothing the next one sees.
func (pl *CommPlan) takeExec(m *machine.Machine) *exec {
	var e *exec
	select {
	case e = <-pl.execs:
	default:
		e = &exec{pl: pl, st: make([]*rankState, pl.P)}
		for r := range e.st {
			xlo, xhi := pl.xRange(r)
			ylo, yhi := pl.yRange(r)
			e.st[r] = &rankState{xlo: xlo, xhi: xhi, ylo: ylo, yhi: yhi,
				xSeg: make([]float64, xhi-xlo), ySeg: make([]float64, yhi-ylo), bSeg: make([]float64, yhi-ylo),
				needVal: make([]float64, len(pl.Need[r])), contribVal: make([]float64, len(pl.Contrib[r]))}
		}
	}
	e.m, e.base = m, m.AllocTags(tagCount)
	for _, st := range e.st {
		st.wire, st.comp = cost.Counter{}, cost.Counter{}
	}
	return e
}

// putExec hands e back to its plan, without its machine; it is dropped
// when the plan already holds one.
func (pl *CommPlan) putExec(e *exec) {
	e.m = nil
	select {
	case pl.execs <- e:
	default:
	}
}

// tag returns the wire tag for a phase offset.
func (e *exec) tag(off int) int { return e.base + off }

// scatterX places x's owned segments at their owners from the IO
// rank: the one-time setup the halo exchange then amortises.
func (e *exec) scatterX(pr *machine.Proc, x []float64) error {
	pl, st := e.pl, e.st[pr.Rank]
	if pr.Rank == ioRank {
		for r := 0; r < pl.P; r++ {
			lo, hi := pl.xRange(r)
			if r == ioRank {
				copy(st.xSeg, x[lo:hi])
				continue
			}
			if hi-lo == 0 {
				continue
			}
			if err := pr.Send(r, e.tag(tagScatter), [4]int64{int64(lo)}, x[lo:hi], &st.wire); err != nil {
				return fmt.Errorf("spops: scatter x to %d: %w", r, err)
			}
		}
		return nil
	}
	if st.xhi-st.xlo == 0 {
		return nil
	}
	msg, err := pr.RecvFrom(ioRank, e.tag(tagScatter))
	if err != nil {
		return fmt.Errorf("spops: rank %d scatter recv: %w", pr.Rank, err)
	}
	copy(st.xSeg, msg.Data)
	return nil
}

// halo runs one halo exchange: every x-owner sends each consumer the
// owned values that consumer's nonzeros reference, and each rank
// assembles its need-value buffer from its own segment plus the
// received payloads. Payloads follow the wire-buffer ownership protocol
// (DESIGN §7): packed into a pooled buffer, handed over with the
// message, released by the receiver once copied out.
func (e *exec) halo(pr *machine.Proc) error {
	pl, st := e.pl, e.st[pr.Rank]
	me := pr.Rank
	// Own values first (no wire).
	ownDst := pl.ownDst[me]
	for i, src := range pl.ownSrc[me] {
		st.needVal[ownDst[i]] = st.xSeg[src]
	}
	// Sends: pack owned values for each consumer.
	for r := 0; r < pl.P; r++ {
		idx := pl.SendIdx[me][r]
		if len(idx) == 0 || r == me {
			continue
		}
		buf := machine.GetBuf(len(idx))[:len(idx)]
		for i, j := range idx {
			buf[i] = st.xSeg[j-st.xlo]
		}
		if err := pr.SendBuf(r, e.tag(tagHalo), [4]int64{int64(len(idx))}, buf, true, &st.wire); err != nil {
			return fmt.Errorf("spops: halo send %d->%d: %w", me, r, err)
		}
	}
	// Receives: exactly the senders the plan says will ship to us.
	for s := 0; s < pl.P; s++ {
		pos := pl.recvPos[me][s]
		if len(pos) == 0 || s == me {
			continue
		}
		msg, err := pr.RecvFrom(s, e.tag(tagHalo))
		if err != nil {
			return fmt.Errorf("spops: halo recv %d<-%d: %w", me, s, err)
		}
		if len(msg.Data) != len(pos) {
			return fmt.Errorf("spops: halo %d<-%d: %d values, want %d", me, s, len(msg.Data), len(pos))
		}
		for i, p := range pos {
			st.needVal[p] = msg.Data[i]
		}
		machine.ReleaseMessage(&msg)
	}
	return nil
}

// compute runs the local multiply of this rank's part, accumulating
// partial row sums into contribVal.
func (e *exec) compute(pr *machine.Proc) {
	st := e.st[pr.Rank]
	for i := range st.contribVal {
		st.contribVal[i] = 0
	}
	delta := cost.Counter{Ops: 2 * int64(e.computePart(pr.Rank, st.needVal, st.contribVal))}
	pr.Charge(&st.comp, simnet.ClassRankComp, delta)
}

// computePart multiplies part k against the assembled need values in
// its format's natural storage order, through the plan's sweep view,
// and returns the number of nonzeros it multiplied. Every inner loop
// runs over sub-slices cut to one length, so only the gather from need
// (and the CCS and JDS scatter into contrib) is bounds-checked.
func (e *exec) computePart(k int, need, contrib []float64) int {
	pl := e.pl
	pc, sp := &pl.parts[k], &e.sweep[k]
	switch pl.Res.Method {
	case dist.CRS:
		a := pl.Res.LocalCRS[k]
		for _, i := range sp.lines {
			lo, hi := a.RowPtr[i], a.RowPtr[i+1]
			val, slot := a.Val[lo:hi], sp.slot[lo:hi]
			// Two accumulators halve the serial add chain a row sum is;
			// the order of additions differs from ops.SpMV's, which
			// every comparison against it allows for.
			var s0, s1 float64
			for len(val) >= 2 && len(slot) >= 2 {
				s0 += val[0] * need[slot[0]]
				s1 += val[1] * need[slot[1]]
				val, slot = val[2:], slot[2:]
			}
			if len(val) > 0 && len(slot) > 0 {
				s0 += val[0] * need[slot[0]]
			}
			contrib[pc.rowOut[i]] += s0 + s1
		}
		return a.NNZ()
	case dist.CCS:
		a := pl.Res.LocalCCS[k]
		for _, j := range sp.lines {
			lo, hi := a.ColPtr[j], a.ColPtr[j+1]
			val, slot := a.Val[lo:hi], sp.slot[lo:hi]
			xv := need[pc.colNeed[j]]
			for q, v := range val {
				contrib[slot[q]] += v * xv
			}
		}
		return a.NNZ()
	case dist.JDS:
		a := pl.Res.LocalJDS[k]
		for d := 0; d < a.MaxRowNNZ(); d++ {
			lo, hi := a.JDPtr[d], a.JDPtr[d+1]
			val, slot, perm := a.Val[lo:hi], sp.slot[lo:hi], a.Perm[:hi-lo]
			for q, v := range val {
				contrib[pc.rowOut[perm[q]]] += v * need[slot[q]]
			}
		}
		return a.NNZ()
	}
	return 0
}

// yRoute ships each rank's partial sums to the rows' owners and
// accumulates the owned y segment. Payloads are pooled like halo's.
func (e *exec) yRoute(pr *machine.Proc) error {
	pl, st := e.pl, e.st[pr.Rank]
	me := pr.Rank
	for i := range st.ySeg {
		st.ySeg[i] = 0
	}
	// Own contributions.
	selfDst := pl.selfDst[me]
	for i, src := range pl.selfSrc[me] {
		st.ySeg[selfDst[i]] += st.contribVal[src]
	}
	// Sends to other owners.
	for o := 0; o < pl.P; o++ {
		pos := pl.ySendPos[me][o]
		if len(pos) == 0 || o == me {
			continue
		}
		buf := machine.GetBuf(len(pos))[:len(pos)]
		for i, p := range pos {
			buf[i] = st.contribVal[p]
		}
		if err := pr.SendBuf(o, e.tag(tagYRoute), [4]int64{int64(len(pos))}, buf, true, &st.wire); err != nil {
			return fmt.Errorf("spops: y route %d->%d: %w", me, o, err)
		}
	}
	// Receives from contributing ranks.
	for r := 0; r < pl.P; r++ {
		rows := pl.ySendRows[r][me]
		if len(rows) == 0 || r == me {
			continue
		}
		msg, err := pr.RecvFrom(r, e.tag(tagYRoute))
		if err != nil {
			return fmt.Errorf("spops: y route recv %d<-%d: %w", me, r, err)
		}
		if len(msg.Data) != len(rows) {
			return fmt.Errorf("spops: y route %d<-%d: %d values, want %d", me, r, len(msg.Data), len(rows))
		}
		for i, g := range rows {
			st.ySeg[g-st.ylo] += msg.Data[i]
		}
		machine.ReleaseMessage(&msg)
	}
	return nil
}

// gatherY collects the owned y segments at the IO rank into y.
func (e *exec) gatherY(pr *machine.Proc, y []float64) error {
	pl, st := e.pl, e.st[pr.Rank]
	if pr.Rank != ioRank {
		if st.yhi-st.ylo == 0 {
			return nil
		}
		return pr.Send(ioRank, e.tag(tagGather), [4]int64{int64(st.ylo)}, st.ySeg, &st.wire)
	}
	copy(y[st.ylo:st.yhi], st.ySeg)
	for r := 0; r < pl.P; r++ {
		lo, hi := pl.yRange(r)
		if r == ioRank || hi-lo == 0 {
			continue
		}
		msg, err := pr.RecvFrom(r, e.tag(tagGather))
		if err != nil {
			return fmt.Errorf("spops: gather y from %d: %w", r, err)
		}
		copy(y[lo:hi], msg.Data)
	}
	return nil
}

// allreduce folds each rank's operand vector with op at the IO rank
// and redistributes the result into vals, in place — a tiny
// point-to-point reduction on plan tags, so its messages are charged
// to the op's counters like the rest of its traffic, which the
// built-in collectives' control messages are not.
//
// vals is the caller's rankState.red, reused every sweep. It goes up
// as it is: its rank does not touch it again before the reply, which
// the IO rank sends only after folding it. The reply goes down as one
// pooled copy per peer (a pooled buffer has exactly one receiver),
// which the peer copies into vals and releases.
func (e *exec) allreduce(pr *machine.Proc, vals []float64, op func(acc, in []float64)) error {
	pl, st := e.pl, e.st[pr.Rank]
	if pr.Rank != ioRank {
		if err := pr.Send(ioRank, e.tag(tagRedUp), [4]int64{}, vals, &st.wire); err != nil {
			return err
		}
		msg, err := pr.RecvFrom(ioRank, e.tag(tagRedDown))
		if err != nil {
			return err
		}
		if len(msg.Data) != len(vals) {
			return fmt.Errorf("spops: allreduce: rank %d got %d values back, want %d", pr.Rank, len(msg.Data), len(vals))
		}
		copy(vals, msg.Data)
		machine.ReleaseMessage(&msg)
		return nil
	}
	for r := 0; r < pl.P; r++ {
		if r == ioRank {
			continue
		}
		msg, err := pr.RecvFrom(r, e.tag(tagRedUp))
		if err != nil {
			return err
		}
		if len(msg.Data) != len(vals) {
			return fmt.Errorf("spops: allreduce: rank %d sent %d values, want %d", r, len(msg.Data), len(vals))
		}
		op(vals, msg.Data)
		machine.ReleaseMessage(&msg)
	}
	for r := 0; r < pl.P; r++ {
		if r == ioRank {
			continue
		}
		down := append(machine.GetBuf(len(vals)), vals...)
		if err := pr.SendBuf(r, e.tag(tagRedDown), [4]int64{}, down, true, &st.wire); err != nil {
			return err
		}
	}
	return nil
}

// stats sums the per-rank counters into an OpStats.
func (e *exec) stats(op string, iters int) OpStats {
	out := OpStats{Op: op, Iterations: iters,
		HaloWords: e.pl.Stats.HaloWords, BcastWords: e.pl.Stats.BcastWords}
	for _, st := range e.st {
		out.Messages += int(st.wire.Messages)
		out.WireWords += int(st.wire.Elements)
		out.Ops += int(st.comp.Ops)
	}
	return out
}

// SpMV computes y = A·x for the plan's distributed array: x is
// scattered from the IO rank to its block owners, one halo exchange
// assembles each rank's needed values, every rank multiplies its
// part locally, partial sums are routed to the row owners,
// and the owned y segments are gathered back. Total traffic is
// O(n + halo) instead of the broadcast path's O(n·p).
func SpMV(m *machine.Machine, pl *CommPlan, x []float64) ([]float64, OpStats, error) {
	if len(x) != pl.Cols {
		return nil, OpStats{}, fmt.Errorf("spops: SpMV: x has %d entries, want %d", len(x), pl.Cols)
	}
	e := pl.takeExec(m)
	defer pl.putExec(e)
	e.sweep = pl.sweepView()
	y := make([]float64, pl.Rows)
	err := e.m.Run(func(pr *machine.Proc) error {
		if err := e.scatterX(pr, x); err != nil {
			return err
		}
		if err := e.halo(pr); err != nil {
			return err
		}
		e.compute(pr)
		if err := e.yRoute(pr); err != nil {
			return err
		}
		return e.gatherY(pr, y)
	})
	if err != nil {
		return nil, OpStats{}, err
	}
	return y, e.stats("spmv", 1), nil
}
