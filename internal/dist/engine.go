package dist

// The distribution engine: one scheme-agnostic SPMD driver executing a
// Plan. Planning decides what moves where — codec, partition, wire
// tags, degrade policy — and execution runs the root encode pipeline,
// the transport exchange and the per-rank decode. SFC, CFS and ED
// differ only in the Codec they plug in; Options.Degrade selects the
// failure-recovery protocol as a plan option, not a separate driver.
//
// Degradable execution: the root encodes every part up front and
// *retains* each payload until the owning rank has acknowledged it
// (the machine's ReliableTransport makes Send block until ACK,
// retransmitting lost or damaged frames itself). When a rank exhausts
// the retry budget — it is dead, not just lossy — the root remaps the
// parts it hosted onto surviving ranks via partition.Remap and
// re-sends the retained payloads to the new hosts. Parts travel on
// per-part tags (base+k) so a survivor can tell foreign parts apart;
// after every part is delivered the root sends each survivor an
// assignment message listing the parts it must commit. Receivers
// decode parts as they arrive but publish into the Result only at
// assignment time, so a rank that crashes mid-run never commits half a
// distribution; a crashed rank's Recv fails with ErrRankDead and its
// goroutine exits quietly, exactly like a vanished process. Degrade
// mode needs the transport to be (or wrap) a ReliableTransport:
// without acknowledgements a dead rank is indistinguishable from a
// slow one and sends to it "succeed" silently.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/compress"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Plan describes one distribution before it runs: what to distribute
// (the global array over a partition), how (codec, options including
// method, workers and degrade policy), and — resolved at Run time —
// which wire tags its frames travel on.
type Plan struct {
	Codec     Codec
	Global    *sparse.Dense
	Partition partition.Partition
	Options   Options
}

// tagSet is a plan's wire addressing. Direct runs put every data frame
// on base (rank k receives part k there); degradable runs give part k
// its own tag base+k and commit assignments on assign = base+p, so the
// whole protocol stays inside [base, assign].
type tagSet struct {
	base   int
	assign int
}

// planTags draws a plan's tag range from the machine's allocator, so
// concurrent plans on one machine can never steal each other's frames.
func planTags(m *machine.Machine, opts Options, p int) tagSet {
	n := 1
	if opts.Degrade {
		n = p + 1
	}
	base := m.AllocTags(n)
	return tagSet{base: base, assign: base + p}
}

// Run executes one distribution plan on the machine. part.NumParts()
// must equal m.P(); rank 0 acts as the root holding the global array.
func Run(m *machine.Machine, plan Plan) (*Result, error) {
	c := plan.Codec
	if c == nil {
		return nil, fmt.Errorf("dist: Run: plan has no codec")
	}
	if err := checkSetup(m, plan.Global, plan.Partition); err != nil {
		return nil, err
	}
	f, err := formatFor(plan.Options.Method)
	if err != nil {
		return nil, err
	}
	run := &runState{codec: c, global: plan.Global, part: plan.Partition, opts: plan.Options, format: f}
	// Resolve the network recorder: an explicit plan network wins, else
	// the machine's own. Wire recording happens in the machine layer, so
	// a plan-supplied network must be attached there too.
	if run.opts.Net == nil {
		run.opts.Net = m.Network()
	} else if m.Network() == nil {
		m.SetNetwork(run.opts.Net)
	}
	if err := c.Prepare(run); err != nil {
		return nil, fmt.Errorf("dist: %s prepare: %w", c.Name(), err)
	}
	p := m.P()
	bd := newBreakdown(p)
	res := &Result{Scheme: c.Name(), Partition: plan.Partition.Name(), Method: plan.Options.Method, Breakdown: bd}
	res.allocLocals(p)
	tags := planTags(m, plan.Options, p)
	if plan.Options.Degrade {
		return runDegradable(m, run, res, bd, tags)
	}
	return runDirect(m, run, res, bd, tags)
}

// runDirect is the fault-free path: the root encodes and sends each
// part to its own rank (pipeline.go), every rank receives exactly its
// part and decodes it on the side the codec's policy books it.
func runDirect(m *machine.Machine, run *runState, res *Result, bd *Breakdown, tags tagSet) (*Result, error) {
	c, p := run.codec, m.P()
	ctx := run.opts.Ctx
	stallToComp := c.Policy().RootEncode == PhaseCompression
	err := m.Run(func(pr *machine.Proc) error {
		if pr.Rank == 0 {
			err := rootSendParts(p, run.opts, bd, stallToComp,
				cancellableEncode(ctx, func(k int, pp *partPayload) error { return c.EncodePart(run, k, pp) }),
				sendTo(pr, tags.base, bd))
			if err != nil {
				return fmt.Errorf("dist: %s root: %w", c.Name(), err)
			}
		}
		msg, err := pr.RecvFromCtx(ctx, 0, tags.base)
		if err != nil {
			return fmt.Errorf("dist: %s rank %d receive: %w", c.Name(), pr.Rank, err)
		}
		a, err := decodeTimed(run, bd, pr.Rank, pr.Rank, msg.Data, msg.Meta)
		if err != nil {
			return err
		}
		machine.ReleaseMessage(&msg) // decoder copied everything out
		res.setLocal(pr.Rank, a)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runDegradable is the failure-recovery path (see the package comment
// above).
func runDegradable(m *machine.Machine, run *runState, res *Result, bd *Breakdown, tags tagSet) (*Result, error) {
	p := m.P()
	remap := partition.NewRemap(p)
	err := m.Run(func(pr *machine.Proc) error {
		if pr.Rank == 0 {
			if err := rootDegradable(pr, p, run, remap, bd, m.Tracer(), tags); err != nil {
				return err
			}
		}
		return recvDegradable(pr, run, res, bd, tags)
	})
	if err != nil {
		return nil, err
	}
	res.Degraded = remap.AnyDead()
	res.DeadRanks = remap.Dead()
	res.Reassigned = remap.Moves()
	return res, nil
}

// rootDegradable encodes, delivers and (on rank death) re-homes every
// part, then commits the final assignment to each survivor.
func rootDegradable(pr *machine.Proc, p int, run *runState, remap *partition.Remap, bd *Breakdown, tr *trace.Tracer, tags tagSet) error {
	c := run.codec
	// Encode everything first — through the shared pipeline, so
	// Options.Workers parallelises this phase too — and retain every
	// payload for the whole run so any part can be re-sent when its host
	// dies. Retention is also why delivery below never marks payloads
	// poolable: a buffer on a survivor must stay valid for re-sending.
	retained := make([]partPayload, p)
	err := rootSendParts(p, run.opts, bd, c.Policy().RootEncode == PhaseCompression,
		cancellableEncode(run.opts.Ctx, func(k int, pp *partPayload) error { return c.EncodePart(run, k, pp) }),
		func(pp *partPayload) error {
			retained[pp.k] = *pp
			return nil
		})
	if err != nil {
		return err
	}

	start := time.Now()
	defer func() { bd.WallRootDist += time.Since(start) }()

	// Delivery phase: each part goes to its current owner; a failed
	// owner is declared dead, its parts re-homed, and any of them that
	// had already been delivered to it are queued for re-sending.
	delivered := make([]bool, p)
	queue := make([]int, p)
	for k := range queue {
		queue[k] = k
	}
	for len(queue) > 0 {
		if ctx := run.opts.Ctx; ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("dist: %s root delivery: %w", c.Name(), err)
			}
		}
		k := queue[0]
		queue = queue[1:]
		for !delivered[k] {
			dst := remap.Owner(k)
			err := pr.Send(dst, tags.base+k, retained[k].meta, retained[k].buf, &bd.RootDist)
			if err == nil {
				delivered[k] = true
				break
			}
			if !errors.Is(err, machine.ErrRetriesExhausted) {
				return fmt.Errorf("dist: %s send part %d to rank %d: %w", c.Name(), k, dst, err)
			}
			moved, ferr := remap.Fail(dst)
			if ferr != nil {
				return fmt.Errorf("dist: %s: rank %d unreachable and no survivors left: %v (send: %w)", c.Name(), dst, ferr, err)
			}
			tr.Count("dist.dead_ranks", 1)
			tr.Count("dist.degraded_parts", int64(len(moved)))
			// Part k retries in this loop against its new owner. Parts
			// the dead rank had already received must be re-sent; parts
			// still queued will reach the new owner on their own turn.
			for _, mk := range moved {
				if mk != k && delivered[mk] {
					delivered[mk] = false
					queue = append(queue, mk)
					tr.Count("dist.resends", 1)
				}
			}
		}
	}

	// Commit phase: tell every survivor which parts it hosts, non-root
	// ranks first. A rank that dies here has its parts forced onto the
	// root (always alive, always the last to commit), so ranks that
	// already committed are never handed new parts.
	for rank := 1; rank < p; rank++ {
		if !remap.Alive(rank) {
			continue
		}
		if err := sendAssignment(pr, remap, rank, tags.assign, bd); err == nil {
			continue
		} else if !errors.Is(err, machine.ErrRetriesExhausted) {
			return fmt.Errorf("dist: %s assign to rank %d: %w", c.Name(), rank, err)
		}
		moved, ferr := remap.FailTo(rank, 0)
		if ferr != nil {
			return fmt.Errorf("dist: %s: rank %d died at commit: %v", c.Name(), rank, ferr)
		}
		tr.Count("dist.dead_ranks", 1)
		tr.Count("dist.degraded_parts", int64(len(moved)))
		for _, k := range moved {
			tr.Count("dist.resends", 1)
			if err := pr.Send(0, tags.base+k, retained[k].meta, retained[k].buf, &bd.RootDist); err != nil {
				return fmt.Errorf("dist: %s re-home part %d to root: %w", c.Name(), k, err)
			}
		}
	}
	return sendAssignment(pr, remap, 0, tags.assign, bd)
}

// cancellableEncode wraps an encodePartFunc with a per-part context
// check: once ctx is cancelled no further part is encoded, so the root
// pipeline fails fast and drains. A nil ctx adds nothing.
func cancellableEncode(ctx context.Context, encode encodePartFunc) encodePartFunc {
	if ctx == nil {
		return encode
	}
	return func(k int, pp *partPayload) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return encode(k, pp)
	}
}

// sendAssignment tells rank which parts to commit.
func sendAssignment(pr *machine.Proc, remap *partition.Remap, rank, assignTag int, bd *Breakdown) error {
	parts := remap.Hosted(rank)
	buf := make([]float64, len(parts))
	for i, id := range parts {
		buf[i] = float64(id)
	}
	return pr.Send(rank, assignTag, [4]int64{int64(len(parts))}, buf, &bd.RootDist)
}

// recvDegradable is every rank's receive loop: decode parts as they
// arrive, commit the assigned set, and vanish quietly if this rank has
// been declared dead. Receives are bounded to the plan's own tag range
// — never a bare wildcard — so concurrent plans on one machine cannot
// steal each other's frames.
func recvDegradable(pr *machine.Proc, run *runState, res *Result, bd *Breakdown, tags tagSet) error {
	c := run.codec
	got := make(map[int]compress.PartArray)
	for {
		msg, err := pr.RecvRangeCtx(run.opts.Ctx, 0, tags.base, tags.assign+1)
		if err != nil {
			if errors.Is(err, machine.ErrRankDead) {
				return nil // crashed: contribute nothing, fail nothing
			}
			return fmt.Errorf("dist: %s rank %d receive: %w", c.Name(), pr.Rank, err)
		}
		if msg.Tag == tags.assign {
			if int(msg.Meta[0]) != len(msg.Data) {
				return fmt.Errorf("dist: %s rank %d: malformed assignment (%d ids, header says %d)", c.Name(), pr.Rank, len(msg.Data), msg.Meta[0])
			}
			for _, w := range msg.Data {
				k := int(w)
				la, ok := got[k]
				if !ok {
					return fmt.Errorf("dist: %s rank %d assigned part %d it never received", c.Name(), pr.Rank, k)
				}
				res.setLocal(k, la)
			}
			return nil
		}
		k := msg.Tag - tags.base
		a, err := decodeTimed(run, bd, pr.Rank, k, msg.Data, msg.Meta)
		if err != nil {
			return err
		}
		got[k] = a
	}
}
