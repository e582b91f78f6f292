package dist

// Out-of-core streaming distribution: RunStream executes a plan whose
// input is a sparse.ChunkReader instead of a materialized global array,
// so the root's memory stays bounded by a configurable budget while
// encode and send overlap the read.
//
// Protocol. The root routes each streamed entry to its owning part via
// a partition.Locator and buffers it in a per-part accumulator. An
// accumulator that reaches the flush threshold — or the largest one,
// when the total buffered bytes reach the memory budget — is flushed as
// a COO-triplet *frame* to the part's owning rank on tag base+k.
// Receivers copy each frame's entries, in arrival order, into fixed-
// size staging blocks (compress.Entries); at the root's *finalize*
// message they build the codec's canonical payload from them in
// O(nnz + rows + cols) (Codec.EncodeEntries: two counting sorts for CFS
// and ED, a dense scatter for SFC), decode it exactly as the
// materializing path would, and store the canonical root-side charges
// in the part's slot (runState.reports). Duplicate coordinates resolve
// keep-last and explicit zeros erase, exactly like writing the stream
// into a dense array, and an entry outside the part is an error.
// Backpressure is credit-based: each frame a receiver consumes returns
// one credit, and the root blocks once MaxInflight frames are
// unacknowledged, bounding transport-queue memory too.
//
// Virtual-counter parity. Frames, credits and finalizes are physical
// transport of the streaming implementation, not part of the paper's
// model, so they charge nothing. Instead RunStream folds in, per part
// and in part order once the ranks have joined: the finalize encode's
// charges into RootComp/RootDist and one AddSend of the canonical
// payload length into RootDist — exactly what mergePart plus the root's
// SendBuf charge on the materializing path. Counters are additive sums,
// so the totals are identical by construction; the parity table test
// (stream_test.go) asserts it for every scheme × partition × method ×
// transport stack.

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// StreamOptions bound the root's memory and the pipeline depth.
type StreamOptions struct {
	// FlushEntries is the per-part accumulator flush threshold, in
	// entries; a part's buffer ships as soon as it holds this many.
	// Default 8192 (~192 KiB of entries per part).
	FlushEntries int
	// MemBudget caps the root's routing-accumulator memory in bytes
	// (24 bytes per buffered entry); when the total reaches it the
	// largest accumulator is flushed early. The reader's chunk buffer
	// and parts the root itself hosts (receiver-side storage, same as
	// on any other rank) are outside the budget. Default 32 MiB.
	MemBudget int
	// MaxInflight bounds unacknowledged frames on the wire — the
	// backpressure window. Default max(8, 2·p).
	MaxInflight int
}

// withDefaults resolves zero fields and floors degenerate values.
func (o StreamOptions) withDefaults(p int) StreamOptions {
	if o.FlushEntries <= 0 {
		o.FlushEntries = 8192
	}
	if o.MemBudget <= 0 {
		o.MemBudget = 32 << 20
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 2 * p
		if o.MaxInflight < 8 {
			o.MaxInflight = 8
		}
	}
	return o
}

// budgetEntries converts the byte budget to an entry count, flooring at
// one entry per part so routing can always make progress.
func (o StreamOptions) budgetEntries(p int) int {
	n := o.MemBudget / 24
	if n < p {
		n = p
	}
	return n
}

// StreamPlan describes one streaming distribution: the chunked source
// standing in for Plan.Global, plus the usual codec/partition/options
// and the streaming bounds.
type StreamPlan struct {
	Codec     Codec
	Source    sparse.ChunkReader
	Partition partition.Partition
	Options   Options
	Stream    StreamOptions
}

// Frame kinds on the per-part data tags.
const (
	streamFrame    = 1 // meta[1] = entry count; data = row,col,val triplets
	streamFinalize = 2 // meta[1] = frames delivered to the part's rank
)

// streamTags is the streaming wire layout: part k's frames and
// finalize on base+k, credits on base+p.
type streamTags struct {
	base   int
	credit int
}

func planStreamTags(m *machine.Machine, p int) streamTags {
	base := m.AllocTags(p + 1)
	return streamTags{base: base, credit: base + p}
}

// RunStream executes one streaming distribution plan on the machine.
// The partition's shape must match the source's; rank 0 acts as the
// root reading the stream. The source is consumed to EOF and left
// positioned there. A machine that records a network model
// (machine.WithNetwork) is refused.
func RunStream(m *machine.Machine, plan StreamPlan) (*Result, error) {
	c := plan.Codec
	if c == nil {
		return nil, fmt.Errorf("dist: RunStream: plan has no codec")
	}
	if m == nil || plan.Source == nil || plan.Partition == nil {
		return nil, fmt.Errorf("dist: RunStream: nil machine, source or partition")
	}
	// Frames, credits and finalizes are not the paper's messages: a
	// replay of what the machine recorded would not be this
	// distribution.
	if m.Network() != nil {
		return nil, fmt.Errorf("dist: RunStream: the machine records a network model, which replays only the materializing engine's messages; stream on a machine without one")
	}
	p := m.P()
	if plan.Partition.NumParts() != p {
		return nil, fmt.Errorf("dist: partition has %d parts but machine has %d processors", plan.Partition.NumParts(), p)
	}
	rows, cols := plan.Source.Shape()
	sr, sc := plan.Partition.Shape()
	if sr != rows || sc != cols {
		return nil, fmt.Errorf("dist: partition shape %dx%d does not match stream %dx%d", sr, sc, rows, cols)
	}
	f, err := formatFor(plan.Options.Method)
	if err != nil {
		return nil, err
	}
	run := &runState{codec: c, part: plan.Partition, opts: plan.Options, format: f,
		finalizing: make(chan struct{}, runtime.GOMAXPROCS(0)), reports: make([]streamReport, p)}
	loc, err := partition.NewLocator(plan.Partition)
	if err != nil {
		return nil, err
	}
	bd := newBreakdown(p)
	res := &Result{Scheme: c.Name(), Partition: plan.Partition.Name(), Method: plan.Options.Method, Breakdown: bd}
	res.allocLocals(p)
	tags := planStreamTags(m, p)
	sopts := plan.Stream.withDefaults(p)
	err = runRanks(m, run, func(pr *machine.Proc) error {
		if pr.Rank == 0 {
			return newStreamRoot(pr, run, bd, res, plan.Source, loc, tags, sopts).rootRun()
		}
		return recvStream(pr, run, res, bd, tags)
	})
	if err != nil {
		return nil, err
	}
	for _, rep := range run.reports {
		bd.RootComp.Add(rep.comp)
		bd.RootDist.Add(rep.dist)
		bd.RootDist.AddSend(rep.wire)
	}
	return res, nil
}

// streamIngester routes entries to per-part accumulators and flushes
// them through emit under the flush threshold and the global budget. It
// is transport-agnostic so the bounded-memory guard test can drive it
// with a discarding sink.
type streamIngester struct {
	loc           *partition.Locator
	acc           [][]sparse.Entry
	flushEntries  int
	budgetEntries int
	buffered      int
	emit          func(k int, entries []sparse.Entry) error
}

func newStreamIngester(loc *partition.Locator, p, flushEntries, budgetEntries int, emit func(int, []sparse.Entry) error) *streamIngester {
	return &streamIngester{loc: loc, acc: make([][]sparse.Entry, p),
		flushEntries: flushEntries, budgetEntries: budgetEntries, emit: emit}
}

// run consumes src to EOF, routing every entry to its part.
func (si *streamIngester) run(src sparse.ChunkReader, opts Options) error {
	for {
		if ctx := opts.Ctx; ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("dist: stream ingest: %w", err)
			}
		}
		ch, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("dist: stream read: %w", err)
		}
		for _, e := range ch.Entries {
			k, err := si.loc.Owner(e.Row, e.Col)
			if err != nil {
				return fmt.Errorf("dist: stream route: %w", err)
			}
			si.acc[k] = append(si.acc[k], e)
			si.buffered++
			if len(si.acc[k]) >= si.flushEntries {
				if err := si.flush(k); err != nil {
					return err
				}
			} else if si.buffered >= si.budgetEntries {
				if err := si.flushLargest(); err != nil {
					return err
				}
			}
		}
	}
}

// flush ships part k's accumulator through emit and recycles it. emit
// must copy the entries out — the slice is reused for the next batch.
func (si *streamIngester) flush(k int) error {
	n := len(si.acc[k])
	if n == 0 {
		return nil
	}
	err := si.emit(k, si.acc[k])
	si.buffered -= n
	if cap(si.acc[k]) > 2*si.flushEntries {
		// A budget sweep can overgrow one accumulator; don't let that
		// capacity stick around for the rest of the run.
		si.acc[k] = nil
	} else {
		si.acc[k] = si.acc[k][:0]
	}
	return err
}

// flushLargest relieves budget pressure where it helps most.
func (si *streamIngester) flushLargest() error {
	best, bestLen := -1, 0
	for k, a := range si.acc {
		if len(a) > bestLen {
			best, bestLen = k, len(a)
		}
	}
	if best < 0 {
		return nil
	}
	return si.flush(best)
}

// drain flushes every non-empty accumulator (end of the stream).
func (si *streamIngester) drain() error {
	for k := range si.acc {
		if err := si.flush(k); err != nil {
			return err
		}
	}
	return nil
}

// streamRoot is rank 0's driver state for one streaming run. Part k
// lives on rank k, so part 0's entries stay at the root.
type streamRoot struct {
	pr    *machine.Proc
	run   *runState
	bd    *Breakdown
	res   *Result
	src   sparse.ChunkReader
	tags  streamTags
	sopts StreamOptions
	p     int

	ing        *streamIngester
	selfAcc    *compress.Entries // part 0: local store, no wire
	framesSent []int             // frames delivered to each part's rank
	inflight   int               // frames sent minus credits received
}

func newStreamRoot(pr *machine.Proc, run *runState, bd *Breakdown, res *Result,
	src sparse.ChunkReader, loc *partition.Locator, tags streamTags, sopts StreamOptions) *streamRoot {
	p := pr.P()
	sr := &streamRoot{pr: pr, run: run, bd: bd, res: res, src: src,
		tags: tags, sopts: sopts, p: p,
		framesSent: make([]int, p),
	}
	sr.ing = newStreamIngester(loc, p, sopts.FlushEntries, sopts.budgetEntries(p), sr.emit)
	return sr
}

// rootRun is the root's whole streaming protocol: ingest+deliver (wall
// booked to the distribution phase — this is the root's wire work),
// then finalize part 0 exactly as a receiver would.
func (sr *streamRoot) rootRun() error {
	start := time.Now()
	err := sr.distribute()
	sr.bd.WallRootDist += time.Since(start)
	if err != nil {
		return err
	}
	acc := sr.selfAcc
	sr.selfAcc = nil // consumed by the finalize; release before decode
	a, err := finalizeStreamPart(sr.pr, sr.run, sr.bd, acc)
	if err != nil {
		return err
	}
	sr.res.setLocal(0, a)
	return nil
}

// distribute streams the source through the ingester, finalizes every
// wire-delivered part, and drains outstanding credits.
func (sr *streamRoot) distribute() error {
	if err := sr.ing.run(sr.src, sr.run.opts); err != nil {
		return err
	}
	if err := sr.ing.drain(); err != nil {
		return err
	}
	if err := sr.sendFinalizes(); err != nil {
		return err
	}
	for sr.inflight > 0 {
		if err := sr.recvCredit(); err != nil {
			return err
		}
	}
	return nil
}

// emit delivers one flushed batch to part k's rank: part 0 appends to
// the local store, everything else ships as a frame (uncharged —
// physical transport, not the paper's model) under the credit window.
func (sr *streamRoot) emit(k int, entries []sparse.Entry) error {
	if k == 0 {
		if sr.selfAcc == nil {
			sr.selfAcc = compress.NewEntries(sr.run.part.Shape())
		}
		for _, e := range entries {
			sr.selfAcc.Add(e.Row, e.Col, e.Val)
		}
		return nil
	}
	if err := sr.waitCredits(); err != nil {
		return err
	}
	buf := machine.GetBuf(3 * len(entries))
	for _, e := range entries {
		buf = append(buf, float64(e.Row), float64(e.Col), e.Val)
	}
	meta := [4]int64{streamFrame, int64(len(entries))}
	if err := sr.pr.SendBuf(k, sr.tags.base+k, meta, buf, true, nil); err != nil {
		return fmt.Errorf("dist: %s stream part %d to rank %d: %w", sr.run.codec.Name(), k, k, err)
	}
	sr.framesSent[k]++
	sr.inflight++
	return nil
}

// waitCredits blocks until the in-flight window has room.
func (sr *streamRoot) waitCredits() error {
	for sr.inflight >= sr.sopts.MaxInflight {
		if err := sr.recvCredit(); err != nil {
			return err
		}
	}
	return nil
}

func (sr *streamRoot) recvCredit() error {
	if _, err := sr.pr.RecvFromCtx(sr.run.opts.Ctx, -1, sr.tags.credit); err != nil {
		return fmt.Errorf("dist: %s stream credit: %w", sr.run.codec.Name(), err)
	}
	sr.inflight--
	return nil
}

// sendFinalizes tells each wire part's rank how many frames to expect
// and that the part is complete.
func (sr *streamRoot) sendFinalizes() error {
	for k := 1; k < sr.p; k++ {
		err := sr.pr.Send(k, sr.tags.base+k, [4]int64{streamFinalize, int64(sr.framesSent[k])}, nil, nil)
		if err != nil {
			return fmt.Errorf("dist: %s stream finalize part %d to rank %d: %w", sr.run.codec.Name(), k, k, err)
		}
	}
	return nil
}

// streamReport is one part's canonical root-side charges, stored by
// the finalizing rank in run.reports[k] and folded in by RunStream.
type streamReport struct {
	comp, dist cost.Counter
	wire       int
}

// finalizeStreamPart turns the staged entries of part k = pr.Rank into
// its decoded local array on rank k: the codec builds the canonical
// payload from them (Codec.EncodeEntries), which is decoded with the
// usual receive-side charges. The encode's wall time lands on rank k's slot
// for the policy's root-encode phase — on the streaming path that work
// really does happen here, in parallel across receivers. The staging
// is consumed, each block released as the encode reads it for the last
// time, so no part holds its staging, its sort scratch and its payload
// at once.
//
// The ranks share one process, so at most GOMAXPROCS finalizes run at
// a time (run.finalizing): a finalize is local CPU work, and more of
// them than there are Ps only interleave — every one holding its
// scratch, payload and decoded array together — without finishing
// sooner. The waiting parts hold nothing but their staging.
func finalizeStreamPart(pr *machine.Proc, run *runState, bd *Breakdown, st *compress.Entries) (compress.PartArray, error) {
	k := pr.Rank
	if st == nil {
		st = compress.NewEntries(run.part.Shape())
	}
	run.finalizing <- struct{}{}
	defer func() { <-run.finalizing }()
	pp := &partPayload{k: k}
	if err := run.codec.EncodeEntries(run, k, st, pp); err != nil {
		return nil, fmt.Errorf("dist: %s rank %d stream encode: %w", run.codec.Name(), k, err)
	}
	bd.addRankWall(run.codec.Policy().RootEncode, k, pp.wallComp+pp.wallDist)
	run.reports[k] = streamReport{comp: pp.comp, dist: pp.dist, wire: len(pp.buf)}
	a, err := decodeTimed(pr, run, bd, pp.buf, pp.meta)
	if pp.pooled {
		machine.PutBuf(pp.buf)
	}
	return a, err
}

// recvStream is every non-root rank's streaming receive loop: buffer
// the frames of its own part (crediting each) and finalize it on the
// root's word.
func recvStream(pr *machine.Proc, run *runState, res *Result, bd *Breakdown, tags streamTags) error {
	c, k := run.codec, pr.Rank
	rows, cols := run.part.Shape()
	var acc *compress.Entries
	frames := 0
	for {
		msg, err := pr.RecvFromCtx(run.opts.Ctx, 0, tags.base+k)
		if err != nil {
			return fmt.Errorf("dist: %s rank %d stream receive: %w", c.Name(), k, err)
		}
		switch msg.Meta[0] {
		case streamFrame:
			n := int(msg.Meta[1])
			if n < 0 || len(msg.Data) != 3*n {
				return fmt.Errorf("dist: %s rank %d part %d: malformed frame (%d words for %d entries)", c.Name(), k, k, len(msg.Data), n)
			}
			if acc == nil {
				acc = compress.NewEntries(rows, cols)
			}
			for i := 0; i < 3*n; i += 3 {
				r, cc := int(msg.Data[i]), int(msg.Data[i+1])
				if r < 0 || r >= rows || cc < 0 || cc >= cols {
					return fmt.Errorf("dist: %s rank %d part %d: streamed entry (%d,%d) outside the %dx%d array", c.Name(), k, k, r, cc, rows, cols)
				}
				acc.Add(r, cc, msg.Data[i+2])
			}
			frames++
			machine.ReleaseMessage(&msg)
			if err := pr.Send(0, tags.credit, [4]int64{int64(k)}, nil, nil); err != nil {
				return fmt.Errorf("dist: %s rank %d stream credit: %w", c.Name(), k, err)
			}
		case streamFinalize:
			if frames != int(msg.Meta[1]) {
				return fmt.Errorf("dist: %s rank %d part %d: finalize expects %d frames, received %d", c.Name(), k, k, msg.Meta[1], frames)
			}
			a, err := finalizeStreamPart(pr, run, bd, acc)
			if err != nil {
				return err
			}
			res.setLocal(k, a)
			return nil
		default:
			return fmt.Errorf("dist: %s rank %d part %d: unknown stream frame kind %d", c.Name(), k, k, msg.Meta[0])
		}
	}
}
