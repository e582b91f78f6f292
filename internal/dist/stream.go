package dist

// Out-of-core streaming distribution: RunStream executes a plan whose
// input is a sparse.ChunkReader instead of a materialized global array,
// so the root's memory stays bounded by a configurable budget while
// encode and send overlap the read.
//
// Protocol. The root routes each streamed entry to its owning part via
// a partition.Locator. Part 0's entries go straight into the root's own
// staging; every other part's are written as (row, col, value) triplets
// into the part's open *frame*, a wire-pool buffer sized so that the
// open frames fit the memory budget together, which ships as is to the
// part's owning rank on tag base+k once full. Receivers copy each
// frame's entries, in arrival order, into fixed-size staging blocks
// (compress.Entries) and return the frame to the pool; at the root's
// *finalize* message they build the codec's canonical payload from them
// in O(nnz + rows + cols) (Codec.EncodeEntries: two counting sorts for
// CFS and ED, in the scratch that is the finalize's token; a dense
// scatter for SFC), decode it exactly as the materializing path would,
// and store the canonical root-side charges in the part's slot
// (runState.reports). Duplicate coordinates resolve
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
// payload length into RootDist — exactly what the root loop's merge
// plus its SendBuf charge on the materializing path. Counters are additive sums,
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
	// FlushEntries is a frame's size in entries: a part's open frame
	// ships as soon as it holds this many. Default 8192 (192 KiB of
	// triplets).
	FlushEntries int
	// MemBudget caps the capacity of the root's open frames in bytes
	// (24 bytes per entry): with p-1 parts on other ranks, a frame
	// holds at most MemBudget/(24·(p-1)) entries and ships at that
	// size when FlushEntries is larger. The reader's chunk buffer and
	// parts the root itself hosts (receiver-side storage, same as on
	// any other rank) are outside the budget. Default 32 MiB.
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

// frameEntries is an open frame's capacity in entries: FlushEntries,
// cut so that the p-1 wire parts' frames fit MemBudget together, and
// at least one entry so routing can always make progress.
func (o StreamOptions) frameEntries(p int) int {
	return max(min(o.FlushEntries, o.MemBudget/24/max(p-1, 1)), 1)
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
		finalizing: newFinalizeTokens(runtime.GOMAXPROCS(0)), reports: make([]streamReport, p)}
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

// streamIngester routes entries to their parts: part 0's into the
// root's own staging, every other part's as (row, col, value) triplets
// into the part's open frame, a wire buffer that ships through emit as
// it fills. It is transport-agnostic so the bounded-memory guard test
// can drive it with a sink.
type streamIngester struct {
	loc        *partition.Locator
	self       *compress.Entries                  // part 0: the root hosts it, outside the budget
	frames     [][]float64                        // each wire part's open frame, nil until its first entry
	frameWords int                                // a frame's capacity, 3 words per entry
	emit       func(k int, frame []float64) error // takes the frame
}

func newStreamIngester(loc *partition.Locator, p int, o StreamOptions, self *compress.Entries, emit func(int, []float64) error) *streamIngester {
	return &streamIngester{loc: loc, self: self, frames: make([][]float64, p),
		frameWords: 3 * o.frameEntries(p), emit: emit}
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
			if err := si.add(e); err != nil {
				return err
			}
		}
	}
}

// add routes one entry, flushing its part's frame once it is full.
func (si *streamIngester) add(e sparse.Entry) error {
	k, err := si.loc.Owner(e.Row, e.Col)
	if err != nil {
		return fmt.Errorf("dist: stream route: %w", err)
	}
	if k == 0 {
		si.self.Add(e.Row, e.Col, e.Val)
		return nil
	}
	f := si.frames[k]
	if f == nil {
		f = machine.GetBuf(si.frameWords)[:0:si.frameWords]
	}
	f = append(f, float64(e.Row), float64(e.Col), e.Val)
	si.frames[k] = f
	if len(f) == si.frameWords {
		return si.flush(k)
	}
	return nil
}

// flush hands part k's open frame, if any, to emit.
func (si *streamIngester) flush(k int) error {
	f := si.frames[k]
	if f == nil {
		return nil
	}
	si.frames[k] = nil
	return si.emit(k, f)
}

// drain flushes every open frame (end of the stream).
func (si *streamIngester) drain() error {
	for k := range si.frames {
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
	framesSent []int // frames delivered to each part's rank
	inflight   int   // frames sent minus credits received
}

func newStreamRoot(pr *machine.Proc, run *runState, bd *Breakdown, res *Result,
	src sparse.ChunkReader, loc *partition.Locator, tags streamTags, sopts StreamOptions) *streamRoot {
	p := pr.P()
	sr := &streamRoot{pr: pr, run: run, bd: bd, res: res, src: src,
		tags: tags, sopts: sopts, p: p,
		framesSent: make([]int, p),
	}
	sr.ing = newStreamIngester(loc, p, sopts, compress.NewEntries(run.part.Shape()), sr.emit)
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
	st := sr.ing.self
	sr.ing.self = nil // consumed by the finalize; release before decode
	a, err := finalizeStreamPart(sr.pr, sr.run, sr.bd, st)
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

// emit ships part k's full or drained frame to the part's rank as is
// (uncharged — physical transport, not the paper's model) under the
// credit window; the receiver returns the buffer to the wire pool.
func (sr *streamRoot) emit(k int, frame []float64) error {
	if err := sr.waitCredits(); err != nil {
		return err
	}
	meta := [4]int64{streamFrame, int64(len(frame) / 3)}
	if err := sr.pr.SendBuf(k, sr.tags.base+k, meta, frame, true, nil); err != nil {
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

// newFinalizeTokens returns n finalize tokens: empty scratches, which
// grow to the largest part each finalizes in the run.
func newFinalizeTokens(n int) chan *compress.EntryScratch {
	c := make(chan *compress.EntryScratch, n)
	for range n {
		c <- new(compress.EntryScratch)
	}
	return c
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
// sooner. The token a finalize takes is the scratch it sorts in and
// writes its payload to, so the run's parts share GOMAXPROCS of them.
// The waiting parts hold nothing but their staging.
func finalizeStreamPart(pr *machine.Proc, run *runState, bd *Breakdown, st *compress.Entries) (compress.PartArray, error) {
	k := pr.Rank
	if st == nil {
		st = compress.NewEntries(run.part.Shape())
	}
	s := <-run.finalizing
	defer func() { run.finalizing <- s }()
	pp := &partPayload{}
	if err := run.codec.EncodeEntries(run, k, st, s, pp); err != nil {
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
				acc = compress.NewEntries(run.part.Shape())
			}
			if err := acc.AddTriplets(msg.Data); err != nil {
				return fmt.Errorf("dist: %s rank %d part %d: %w", c.Name(), k, k, err)
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
