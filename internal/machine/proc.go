package machine

import (
	"context"
	"fmt"

	"repro/internal/cost"
)

// Send transmits data words (with a small integer header) to rank `to`,
// charging one message and len(data) elements to ctr (nil-safe). This is
// the paper's T_Startup + words*T_Data accounting; receive time is not
// charged separately, matching the analysis in Tables 1-2 which counts
// each transfer once.
func (p *Proc) Send(to, tag int, meta [4]int64, data []float64, ctr *cost.Counter) error {
	return p.SendBuf(to, tag, meta, data, false, ctr)
}

// SendBuf is Send for payloads drawn from the wire-buffer pool: pooled
// marks the message so the receiver may return msg.Data to the pool
// (ReleaseMessage) once it has fully decoded it. Ownership of a pooled
// buffer transfers with the message — the sender must not touch it
// after SendBuf returns. The mark is stripped when the transport may
// retain or re-deliver payloads (fault injection), where a
// receiver-side release could recycle a buffer a duplicate still reads.
func (p *Proc) SendBuf(to, tag int, meta [4]int64, data []float64, pooled bool, ctr *cost.Counter) error {
	if to < 0 || to >= p.m.p {
		return fmt.Errorf("machine: rank %d sending to invalid rank %d of %d", p.Rank, to, p.m.p)
	}
	ctr.AddSend(len(data))
	if p.m.net != nil && tag >= 0 {
		// Recorded before the transport attempt, like the counter charge:
		// a send the reliability layer later gives up on still cost its
		// wire time. Control traffic (negative tags) stays off the books.
		p.m.net.Send(p.Rank, to, tag, len(data))
	}
	return p.m.transport.Send(Message{From: p.Rank, To: to, Tag: tag, Data: data, Meta: meta,
		Pooled: pooled && !p.m.retains})
}

// recordRecv records a matched receive into the network model: every
// data message, and the data-bearing collectives too. Their hops
// occupy links like any other transfer, so the topology replay shows
// every word that moves, although the paper's flat analysis and the
// cost counters leave collectives out.
func (p *Proc) recordRecv(msg Message) {
	if p.m.net != nil && (msg.Tag >= 0 || collectiveRecorded(msg.Tag)) {
		p.m.net.Recv(p.Rank, msg.From, msg.Tag)
	}
}

// recvMatch returns the oldest message in this rank's inbox that w
// matches, waiting up to the machine's receive timeout. A non-nil ctx
// aborts the wait when cancelled (the ctx variants of the receive
// methods).
func (p *Proc) recvMatch(ctx context.Context, w want) (Message, error) {
	msg, err := p.m.transport.inbox(p.Rank).recv(ctx, w, p.m.timeout)
	if err != nil {
		return Message{}, fmt.Errorf("machine: rank %d waiting for %s: %w", p.Rank, w, err)
	}
	p.recordRecv(msg)
	return msg, nil
}

// RecvFrom returns the next message from the given source with the given
// tag, leaving any other messages that arrive first in the inbox (MPI_Recv
// semantics with explicit source and tag). A negative source or tag
// matches anything (MPI_ANY_SOURCE / MPI_ANY_TAG).
func (p *Proc) RecvFrom(from, tag int) (Message, error) {
	return p.RecvFromCtx(nil, from, tag)
}

// RecvFromCtx is RecvFrom with cancellation: a non-nil ctx that is
// cancelled aborts the wait with an error wrapping ctx.Err(), so a
// caller (a job server, a request handler) can abandon a distribution
// mid-flight instead of waiting out the machine's receive timeout.
func (p *Proc) RecvFromCtx(ctx context.Context, from, tag int) (Message, error) {
	return p.recvMatch(ctx, want{kind: wantTag, from: from, tag: tag})
}

// P returns the machine's processor count.
func (p *Proc) P() int { return p.m.p }

// Tags below 0 are reserved for collectives' control traffic, which is
// deliberately not charged to any cost counter: the paper's analysis
// does not include synchronisation overhead.
const (
	tagBarrier = -2
	tagBcast   = -3
	tagGather  = -4
)

// Barrier blocks until every rank has entered it. Implemented as a
// gather-to-0 followed by a broadcast release.
func (p *Proc) Barrier() error {
	if p.Rank == 0 {
		for i := 1; i < p.m.p; i++ {
			if _, err := p.RecvFrom(-1, tagBarrier); err != nil {
				return fmt.Errorf("machine: barrier collect: %w", err)
			}
		}
		for i := 1; i < p.m.p; i++ {
			if err := p.control(i, tagBarrier, nil); err != nil {
				return fmt.Errorf("machine: barrier release: %w", err)
			}
		}
		return nil
	}
	if err := p.control(0, tagBarrier, nil); err != nil {
		return fmt.Errorf("machine: barrier enter: %w", err)
	}
	_, err := p.RecvFrom(0, tagBarrier)
	return err
}

// Bcast distributes root's data to all ranks and returns each rank's
// copy. Control traffic is uncharged; callers model broadcast costs
// explicitly if they need them.
func (p *Proc) Bcast(root int, data []float64) ([]float64, error) {
	if root < 0 || root >= p.m.p {
		return nil, fmt.Errorf("machine: Bcast from invalid root %d", root)
	}
	if p.Rank == root {
		for i := 0; i < p.m.p; i++ {
			if i == root {
				continue
			}
			if err := p.control(i, tagBcast, data); err != nil {
				return nil, fmt.Errorf("machine: bcast to %d: %w", i, err)
			}
		}
		return data, nil
	}
	msg, err := p.RecvFrom(root, tagBcast)
	if err != nil {
		return nil, err
	}
	return msg.Data, nil
}

// Gather collects each rank's contribution at root. On root it returns a
// slice indexed by rank; elsewhere it returns nil.
func (p *Proc) Gather(root int, data []float64) ([][]float64, error) {
	if root < 0 || root >= p.m.p {
		return nil, fmt.Errorf("machine: Gather to invalid root %d", root)
	}
	if p.Rank != root {
		return nil, p.control(root, tagGather, data)
	}
	out := make([][]float64, p.m.p)
	out[root] = data
	for i := 0; i < p.m.p-1; i++ {
		msg, err := p.RecvFrom(-1, tagGather)
		if err != nil {
			return nil, fmt.Errorf("machine: gather: %w", err)
		}
		out[msg.From] = msg.Data
	}
	return out, nil
}

// collectiveRecorded reports whether a reserved control tag carries a
// payload that should appear in the network model: the data-bearing
// collectives (Bcast/Gather/Reduce/Allreduce), not barrier
// synchronisation, whose messages move no array data.
func collectiveRecorded(tag int) bool {
	switch tag {
	case tagBcast, tagGather, tagReduce:
		return true
	}
	return false
}

// control sends an uncharged message on a reserved tag. Data-bearing
// collective hops are still recorded into the attached simnet
// recorder so kernels built on Bcast/Gather/Reduce show up in the
// contention timeline (they remain invisible to cost counters,
// matching the paper's flat accounting).
func (p *Proc) control(to, tag int, data []float64) error {
	if p.m.net != nil && collectiveRecorded(tag) {
		p.m.net.Send(p.Rank, to, tag, len(data))
	}
	return p.m.transport.Send(Message{From: p.Rank, To: to, Tag: tag, Data: data})
}
