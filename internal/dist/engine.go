package dist

// The distribution engine: one scheme-agnostic SPMD driver executing a
// Plan. Planning decides what moves where — codec, partition, wire
// tag — and execution runs the root encode pipeline, the transport
// exchange and the per-rank decode. SFC, CFS and ED differ only in the
// Codec they plug in.
//
// Failure model. The paper's schemes assume MPI's lossless fabric, and
// so does the engine: a part is sent once, to its own rank. Over a
// lossy link the machine's ReliableTransport plays MPI's role,
// retransmitting lost or damaged frames itself; when it spends a
// frame's retry budget the link fails with ErrRetriesExhausted and the
// job fails with that error, promptly (see runRanks).

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/sparse"
)

// Plan describes one distribution before it runs: what to distribute
// (the global array over a partition) and how (codec, and options
// including method and workers).
type Plan struct {
	Codec     Codec
	Global    *sparse.Dense
	Partition partition.Partition
	Options   Options
}

// Run executes one distribution plan on the machine. part.NumParts()
// must equal m.P(); rank 0 acts as the root holding the global array.
// The root encodes and sends each part to its own rank (pipeline.go) on
// a tag drawn from the machine's allocator, so concurrent plans on one
// machine never steal each other's frames; every rank receives exactly
// its part and decodes it on the side the codec's policy books it.
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
	p := m.P()
	bd := newBreakdown(p)
	res := &Result{Scheme: c.Name(), Partition: plan.Partition.Name(), Method: plan.Options.Method, Breakdown: bd}
	res.allocLocals(p)
	tag := m.AllocTags(1)
	stallToComp := c.Policy().RootEncode == simnet.ClassRootComp
	err = runRanks(m, run, func(pr *machine.Proc) error {
		ctx := run.opts.Ctx
		if pr.Rank == 0 {
			err := rootSendParts(pr, tag, run, bd, stallToComp,
				cancellableEncode(ctx, func(k int, pp *partPayload) error { return c.EncodePart(run, k, pp) }))
			if err != nil {
				return fmt.Errorf("dist: %s root: %w", c.Name(), err)
			}
		}
		msg, err := pr.RecvFromCtx(ctx, 0, tag)
		if err != nil {
			return fmt.Errorf("dist: %s rank %d receive: %w", c.Name(), pr.Rank, err)
		}
		a, err := decodeTimed(pr, run, bd, msg.Data, msg.Meta)
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

// errRankFailed is the cause runRanks cancels a run's context with.
var errRankFailed = errors.New("dist: another rank failed")

// runRanks runs body on every rank of m. A rank that fails leaves the
// others waiting on receives that will never be matched, and so does a
// frame the ARQ gives up on once its retry budget is spent. When the
// machine's sends can fail (Machine.LinkFailed is not nil), the first
// rank or the first link to fail therefore cancels run.opts.Ctx:
// the others' pending receives return at once instead of on the
// receive watchdog, and the run fails with that first error alone. A
// link's error reaches the run through its sender's flush at the end
// of Machine.Run. Elsewhere runRanks is m.Run and allocates nothing
// more.
func runRanks(m *machine.Machine, run *runState, body func(pr *machine.Proc) error) error {
	failed := m.LinkFailed()
	if failed == nil {
		return m.Run(body)
	}
	parent := run.opts.Ctx
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancelCause(parent)
	defer cancel(nil)
	defer context.AfterFunc(failed, func() { cancel(context.Cause(failed)) })()
	run.opts.Ctx = ctx
	return m.Run(func(pr *machine.Proc) error {
		err := body(pr)
		if err != nil {
			if context.Cause(ctx) != nil && parent.Err() == nil {
				return nil // released by a failure reported elsewhere
			}
			cancel(errRankFailed)
		}
		return err
	})
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
