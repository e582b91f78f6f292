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
// materializing path would, and report the canonical root-side charges
// back on the stats tag. Duplicate coordinates resolve keep-last and
// explicit zeros erase, exactly like writing the stream into a dense
// array, and an entry outside the part is an error. Backpressure is
// credit-based: each frame a receiver consumes returns one credit, and
// the root blocks once MaxInflight frames are unacknowledged, bounding
// transport-queue memory too.
//
// Virtual-counter parity. Frames, credits, finalizes and stats are
// physical transport of the streaming implementation, not part of the
// paper's model, so they charge nothing. Instead the root merges, per
// part: the finalize encode's charges into RootComp/RootDist and one
// AddSend of the canonical payload length into RootDist — exactly what
// mergePart plus sendTo charge on the materializing path. Counters are
// additive sums, so the totals are identical by construction; the
// parity table test (stream_test.go) asserts it for every scheme ×
// partition × method × engine path.
//
// Degrade mode mirrors the materializing protocol: frames travel on
// per-part tags, a dead rank's parts are re-homed via partition.Remap,
// and assignments commit on base+p. The root cannot re-send retained
// payloads — it never held them — so it instead *rescans* the source
// (ChunkReader.Reset) routing only the parts whose frames died with
// their host; receivers dedup re-streamed duplicates for free. A source
// with duplicate coordinates therefore reassembles identically even
// under recovery, because dedup is keep-last over a re-streamed prefix
// of identical entries.

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/trace"
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
	streamFinalize = 2 // meta[1] = frames delivered to the current owner
)

// streamTags is the streaming wire layout: frames and finalizes on
// base+k, assignment commits on base+p (degrade only), credits on
// base+p+1 and stats reports on base+p+2.
type streamTags struct {
	base   int
	assign int
	credit int
	stats  int
}

func planStreamTags(m *machine.Machine, p int) streamTags {
	base := m.AllocTags(p + 3)
	return streamTags{base: base, assign: base + p, credit: base + p + 1, stats: base + p + 2}
}

// RunStream executes one streaming distribution plan on the machine.
// The partition's shape must match the source's; rank 0 acts as the
// root reading the stream. The source is consumed to EOF (and rescanned
// via Reset under degrade recovery); it is left positioned at EOF.
func RunStream(m *machine.Machine, plan StreamPlan) (*Result, error) {
	c := plan.Codec
	if c == nil {
		return nil, fmt.Errorf("dist: RunStream: plan has no codec")
	}
	if m == nil || plan.Source == nil || plan.Partition == nil {
		return nil, fmt.Errorf("dist: RunStream: nil machine, source or partition")
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
	// No codec.Prepare: SFC's Prepare extracts dense locals from the
	// global array, which a streamed run never materializes — the
	// finalize builds locals from staged entries instead.
	run := &runState{codec: c, part: plan.Partition, opts: plan.Options, format: f,
		finalizing: make(chan struct{}, runtime.GOMAXPROCS(0))}
	loc, err := partition.NewLocator(plan.Partition)
	if err != nil {
		return nil, err
	}
	bd := newBreakdown(p)
	res := &Result{Scheme: c.Name(), Partition: plan.Partition.Name(), Method: plan.Options.Method, Breakdown: bd}
	res.allocLocals(p)
	tags := planStreamTags(m, p)
	sopts := plan.Stream.withDefaults(p)
	var remap *partition.Remap
	if plan.Options.Degrade {
		remap = partition.NewRemap(p)
	}
	err = m.Run(func(pr *machine.Proc) error {
		if pr.Rank == 0 {
			root := newStreamRoot(pr, run, bd, res, plan.Source, loc, remap, tags, sopts, m.Tracer())
			return root.rootRun()
		}
		return recvStream(pr, run, res, bd, tags)
	})
	if err != nil {
		return nil, err
	}
	if remap != nil {
		res.Degraded = remap.AnyDead()
		res.DeadRanks = remap.Dead()
		res.Reassigned = remap.Moves()
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

// run consumes src to EOF, routing every entry whose part passes filter
// (nil accepts all — the recovery pass narrows it to re-homed parts).
func (si *streamIngester) run(src sparse.ChunkReader, opts Options, filter func(k int) bool) error {
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
			if filter != nil && !filter(k) {
				continue
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

// drain flushes every non-empty accumulator (end of a pass).
func (si *streamIngester) drain() error {
	for k := range si.acc {
		if err := si.flush(k); err != nil {
			return err
		}
	}
	return nil
}

// streamRoot is rank 0's driver state for one streaming run.
type streamRoot struct {
	pr    *machine.Proc
	run   *runState
	bd    *Breakdown
	res   *Result
	src   sparse.ChunkReader
	remap *partition.Remap // nil on the direct path
	tags  streamTags
	sopts StreamOptions
	tr    *trace.Tracer
	p     int

	ing        *streamIngester
	selfAcc    []*compress.Entries // parts the root hosts: local store, no wire
	framesSent []int               // frames delivered to the part's *current* owner
	finalized  []bool
	needRescan []bool
	uncredited []int // frames sent to each rank minus credits received
	inflight   int
	statsSeen  []bool
}

func newStreamRoot(pr *machine.Proc, run *runState, bd *Breakdown, res *Result,
	src sparse.ChunkReader, loc *partition.Locator, remap *partition.Remap,
	tags streamTags, sopts StreamOptions, tr *trace.Tracer) *streamRoot {
	p := pr.P()
	sr := &streamRoot{pr: pr, run: run, bd: bd, res: res, src: src, remap: remap,
		tags: tags, sopts: sopts, tr: tr, p: p,
		selfAcc:    make([]*compress.Entries, p),
		framesSent: make([]int, p),
		finalized:  make([]bool, p),
		needRescan: make([]bool, p),
		uncredited: make([]int, p),
		statsSeen:  make([]bool, p),
	}
	sr.ing = newStreamIngester(loc, p, sopts.FlushEntries, sopts.budgetEntries(p), sr.emit)
	return sr
}

// owner is part k's current host.
func (sr *streamRoot) owner(k int) int {
	if sr.remap == nil {
		return k
	}
	return sr.remap.Owner(k)
}

// rootRun is the root's whole streaming protocol: ingest+deliver (wall
// booked to the distribution phase — this is the root's wire work),
// finalize self-hosted parts, merge receiver stats, and commit
// assignments under degrade.
func (sr *streamRoot) rootRun() error {
	start := time.Now()
	err := sr.distribute()
	sr.bd.WallRootDist += time.Since(start)
	if err != nil {
		return err
	}
	if err := sr.finishSelfParts(); err != nil {
		return err
	}
	if err := sr.collectStats(); err != nil {
		return err
	}
	if sr.remap != nil {
		return sr.commitAssignments()
	}
	return nil
}

// distribute streams the source through the ingester, runs recovery
// passes until no rank death leaves data unhomed, finalizes every
// wire-delivered part, and drains outstanding credits.
func (sr *streamRoot) distribute() error {
	if err := sr.ing.run(sr.src, sr.run.opts, nil); err != nil {
		return err
	}
	if err := sr.ing.drain(); err != nil {
		return err
	}
	for {
		if sr.anyRescan() {
			if err := sr.recoveryPass(); err != nil {
				return err
			}
			continue
		}
		if err := sr.sendFinalizes(); err != nil {
			return err
		}
		if !sr.anyRescan() {
			break
		}
	}
	for sr.inflight > 0 {
		if err := sr.recvCredit(); err != nil {
			return err
		}
	}
	return nil
}

func (sr *streamRoot) anyRescan() bool {
	for _, b := range sr.needRescan {
		if b {
			return true
		}
	}
	return false
}

// recoveryPass re-streams the source, routing only the parts whose
// frames died with their host. Receivers dedup the duplicates a partial
// earlier delivery may have left. Deaths during the pass re-mark parts;
// the caller loops until quiescent (each iteration kills at least one
// more rank, so it terminates).
func (sr *streamRoot) recoveryPass() error {
	rescan := make([]bool, sr.p)
	copy(rescan, sr.needRescan)
	for k := range sr.needRescan {
		sr.needRescan[k] = false
	}
	if err := sr.src.Reset(); err != nil {
		return fmt.Errorf("dist: %s stream rescan: %w", sr.run.codec.Name(), err)
	}
	if err := sr.ing.run(sr.src, sr.run.opts, func(k int) bool { return rescan[k] }); err != nil {
		return err
	}
	return sr.ing.drain()
}

// emit delivers one flushed batch to part k's current owner: root-
// hosted parts append to the local store, everything else ships as a
// frame (uncharged — physical transport, not the paper's model) under
// the credit window. A dead owner re-homes the part and retries.
func (sr *streamRoot) emit(k int, entries []sparse.Entry) error {
	for {
		dst := sr.owner(k)
		if dst == 0 {
			a := sr.selfAcc[k]
			if a == nil {
				a = compress.NewEntries(sr.run.part.Shape())
				sr.selfAcc[k] = a
			}
			for _, e := range entries {
				a.Add(e.Row, e.Col, e.Val)
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
		err := sr.pr.SendBuf(dst, sr.tags.base+k, meta, buf, true, nil)
		if err == nil {
			sr.framesSent[k]++
			sr.uncredited[dst]++
			sr.inflight++
			return nil
		}
		if sr.remap == nil || !errors.Is(err, machine.ErrRetriesExhausted) {
			return fmt.Errorf("dist: %s stream part %d to rank %d: %w", sr.run.codec.Name(), k, dst, err)
		}
		if err := sr.rankDied(dst); err != nil {
			return err
		}
	}
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
	msg, err := sr.pr.RecvFromCtx(sr.run.opts.Ctx, -1, sr.tags.credit)
	if err != nil {
		return fmt.Errorf("dist: %s stream credit: %w", sr.run.codec.Name(), err)
	}
	// A credit from a rank already written off (its uncredited count was
	// zeroed when it died) must not unbalance the window.
	if sr.uncredited[msg.From] > 0 {
		sr.uncredited[msg.From]--
		sr.inflight--
	}
	return nil
}

// rankDied re-homes a dead rank's parts. Parts that already had frames
// delivered to the dead host lost data and are marked for rescan; parts
// re-homed onto the root will collect into the local store from now on.
func (sr *streamRoot) rankDied(dst int) error {
	moved, ferr := sr.remap.Fail(dst)
	if ferr != nil {
		return fmt.Errorf("dist: %s: rank %d unreachable and no survivors left: %v", sr.run.codec.Name(), dst, ferr)
	}
	sr.tr.Count("dist.dead_ranks", 1)
	sr.tr.Count("dist.degraded_parts", int64(len(moved)))
	sr.inflight -= sr.uncredited[dst]
	sr.uncredited[dst] = 0
	for _, mk := range moved {
		sr.finalized[mk] = false
		if sr.framesSent[mk] > 0 {
			sr.needRescan[mk] = true
			sr.tr.Count("dist.resends", 1)
		}
		sr.framesSent[mk] = 0
	}
	return nil
}

// sendFinalizes tells each wire part's owner how many frames to expect
// and that the part is complete. Parts awaiting rescan are skipped —
// their data hasn't been re-delivered yet.
func (sr *streamRoot) sendFinalizes() error {
	for k := 0; k < sr.p; k++ {
		if sr.finalized[k] || sr.needRescan[k] {
			continue
		}
		dst := sr.owner(k)
		if dst == 0 {
			sr.finalized[k] = true // local store; finalized in finishSelfParts
			continue
		}
		err := sr.pr.Send(dst, sr.tags.base+k, [4]int64{streamFinalize, int64(sr.framesSent[k])}, nil, nil)
		if err == nil {
			sr.finalized[k] = true
			continue
		}
		if sr.remap == nil || !errors.Is(err, machine.ErrRetriesExhausted) {
			return fmt.Errorf("dist: %s stream finalize part %d to rank %d: %w", sr.run.codec.Name(), k, dst, err)
		}
		if err := sr.rankDied(dst); err != nil {
			return err
		}
	}
	return nil
}

// finishSelfParts finalizes every part the root hosts, exactly as a
// receiver would: build the canonical payload, decode, and merge
// the canonical charges (plus the synthetic loopback send the
// materializing path performs for rank 0's part).
func (sr *streamRoot) finishSelfParts() error {
	for k := 0; k < sr.p; k++ {
		if sr.owner(k) != 0 {
			continue
		}
		if err := sr.finalizeSelf(k); err != nil {
			return err
		}
	}
	return nil
}

func (sr *streamRoot) finalizeSelf(k int) error {
	acc := sr.selfAcc[k]
	sr.selfAcc[k] = nil // consumed by the finalize; release before decode
	a, rep, err := finalizeStreamPart(sr.run, sr.bd, 0, k, acc)
	if err != nil {
		return err
	}
	sr.res.setLocal(k, a)
	sr.mergeReport(k, rep)
	return nil
}

// mergeReport folds one part's canonical root-side charges into the
// breakdown — the streaming twin of mergePart + sendTo's AddSend. First
// report per part wins; a re-finalized part (its first finalizer died
// at commit) charges nothing new, since the canonical charges are
// deterministic and already booked.
func (sr *streamRoot) mergeReport(k int, rep streamReport) {
	if sr.statsSeen[k] {
		return
	}
	sr.statsSeen[k] = true
	sr.bd.RootComp.Add(rep.comp)
	sr.bd.RootDist.Add(rep.dist)
	sr.bd.RootDist.AddSend(rep.wire)
}

// collectStats waits for every wire-finalized part's canonical charge
// report.
func (sr *streamRoot) collectStats() error {
	want := 0
	for k := 0; k < sr.p; k++ {
		if !sr.statsSeen[k] && sr.owner(k) != 0 {
			want++
		}
	}
	for want > 0 {
		msg, err := sr.pr.RecvFromCtx(sr.run.opts.Ctx, -1, sr.tags.stats)
		if err != nil {
			return fmt.Errorf("dist: %s stream stats: %w", sr.run.codec.Name(), err)
		}
		k := int(msg.Meta[0])
		if k < 0 || k >= sr.p || len(msg.Data) != 7 {
			return fmt.Errorf("dist: %s stream: malformed stats report (part %d, %d fields)", sr.run.codec.Name(), k, len(msg.Data))
		}
		if sr.statsSeen[k] {
			continue
		}
		sr.mergeReport(k, streamReport{
			comp: cost.Counter{Messages: int64(msg.Data[0]), Elements: int64(msg.Data[1]), Ops: int64(msg.Data[2])},
			dist: cost.Counter{Messages: int64(msg.Data[3]), Elements: int64(msg.Data[4]), Ops: int64(msg.Data[5])},
			wire: int(msg.Data[6]),
		})
		want--
	}
	return nil
}

// commitAssignments mirrors the materializing commit phase: survivors
// first, a commit-phase death forces the dead rank's parts onto the
// root (rescanned from the source into the local store), and the root
// commits last with the same synthetic charge sendAssignment books for
// a real rank.
func (sr *streamRoot) commitAssignments() error {
	for rank := 1; rank < sr.p; rank++ {
		if !sr.remap.Alive(rank) {
			continue
		}
		err := sendAssignment(sr.pr, sr.remap, rank, sr.tags.assign, sr.bd)
		if err == nil {
			continue
		}
		if !errors.Is(err, machine.ErrRetriesExhausted) {
			return fmt.Errorf("dist: %s stream assign to rank %d: %w", sr.run.codec.Name(), rank, err)
		}
		moved, ferr := sr.remap.FailTo(rank, 0)
		if ferr != nil {
			return fmt.Errorf("dist: %s: rank %d died at commit: %v", sr.run.codec.Name(), rank, ferr)
		}
		sr.tr.Count("dist.dead_ranks", 1)
		sr.tr.Count("dist.degraded_parts", int64(len(moved)))
		for _, mk := range moved {
			sr.tr.Count("dist.resends", 1)
			sr.needRescan[mk] = true
			sr.framesSent[mk] = 0
		}
		for sr.anyRescan() {
			if err := sr.recoveryPass(); err != nil {
				return err
			}
		}
		for _, mk := range moved {
			if err := sr.finalizeSelf(mk); err != nil {
				return err
			}
		}
	}
	// The root's own assignment needs no wire hop; charge it exactly
	// like sendAssignment for counter parity with the materializing path.
	sr.bd.RootDist.AddSend(len(sr.remap.Hosted(0)))
	return nil
}

// streamReport is one part's canonical root-side charges, computed at
// the finalizing rank and merged at the root.
type streamReport struct {
	comp, dist cost.Counter
	wire       int
}

// finalizeStreamPart turns a part's staged entries into its decoded
// local array: the codec builds the canonical payload from them
// (Codec.EncodeEntries), which is decoded with the usual receive-side
// charges. The encode's wall time lands on this rank's slot for the
// policy's root-encode phase — on the streaming path that work really
// does happen here, in parallel across receivers. The staging is
// consumed, each block released as the encode reads it for the last
// time, so no part holds its staging, its sort scratch and its payload
// at once.
//
// The ranks share one process, so at most GOMAXPROCS finalizes run at
// a time (run.finalizing): a finalize is local CPU work, and more of
// them than there are Ps only interleave — every one holding its
// scratch, payload and decoded array together — without finishing
// sooner. The waiting parts hold nothing but their staging.
func finalizeStreamPart(run *runState, bd *Breakdown, rank, k int, st *compress.Entries) (compress.PartArray, streamReport, error) {
	if st == nil {
		st = compress.NewEntries(run.part.Shape())
	}
	run.finalizing <- struct{}{}
	defer func() { <-run.finalizing }()
	pp := &partPayload{k: k}
	if err := run.codec.EncodeEntries(run, k, st, pp); err != nil {
		return nil, streamReport{}, fmt.Errorf("dist: %s rank %d stream encode part %d: %w", run.codec.Name(), rank, k, err)
	}
	bd.addRankWall(run.codec.Policy().RootEncode, rank, pp.wallComp+pp.wallDist)
	rep := streamReport{comp: pp.comp, dist: pp.dist, wire: len(pp.buf)}
	a, err := decodeTimed(run, bd, rank, k, pp.buf, pp.meta)
	if pp.pooled {
		machine.PutBuf(pp.buf)
	}
	if err != nil {
		return nil, streamReport{}, err
	}
	return a, rep, nil
}

// recvStream is every non-root rank's streaming receive loop: buffer
// frames (crediting each), finalize parts on demand, report canonical
// charges, and — under degrade — commit at assignment like the
// materializing path. A rank declared dead exits quietly.
func recvStream(pr *machine.Proc, run *runState, res *Result, bd *Breakdown, tags streamTags) error {
	c := run.codec
	rows, cols := run.part.Shape()
	acc := make(map[int]*compress.Entries)
	frames := make(map[int]int)
	done := make(map[int]compress.PartArray)
	for {
		msg, err := pr.RecvRangeCtx(run.opts.Ctx, 0, tags.base, tags.assign+1)
		if err != nil {
			if errors.Is(err, machine.ErrRankDead) {
				return nil // crashed: contribute nothing, fail nothing
			}
			return fmt.Errorf("dist: %s rank %d stream receive: %w", c.Name(), pr.Rank, err)
		}
		if msg.Tag == tags.assign {
			if int(msg.Meta[0]) != len(msg.Data) {
				return fmt.Errorf("dist: %s rank %d: malformed assignment (%d ids, header says %d)", c.Name(), pr.Rank, len(msg.Data), msg.Meta[0])
			}
			for _, w := range msg.Data {
				k := int(w)
				a, ok := done[k]
				if !ok {
					return fmt.Errorf("dist: %s rank %d assigned part %d it never finalized", c.Name(), pr.Rank, k)
				}
				res.setLocal(k, a)
			}
			return nil
		}
		k := msg.Tag - tags.base
		switch msg.Meta[0] {
		case streamFrame:
			n := int(msg.Meta[1])
			if n < 0 || len(msg.Data) != 3*n {
				return fmt.Errorf("dist: %s rank %d part %d: malformed frame (%d words for %d entries)", c.Name(), pr.Rank, k, len(msg.Data), n)
			}
			a, ok := acc[k]
			if !ok {
				a = compress.NewEntries(rows, cols)
				acc[k] = a
			}
			for i := 0; i < 3*n; i += 3 {
				r, cc := int(msg.Data[i]), int(msg.Data[i+1])
				if r < 0 || r >= rows || cc < 0 || cc >= cols {
					return fmt.Errorf("dist: %s rank %d part %d: streamed entry (%d,%d) outside the %dx%d array", c.Name(), pr.Rank, k, r, cc, rows, cols)
				}
				a.Add(r, cc, msg.Data[i+2])
			}
			frames[k]++
			machine.ReleaseMessage(&msg)
			if err := pr.Send(0, tags.credit, [4]int64{int64(k)}, nil, nil); err != nil {
				return fmt.Errorf("dist: %s rank %d stream credit: %w", c.Name(), pr.Rank, err)
			}
		case streamFinalize:
			if frames[k] != int(msg.Meta[1]) {
				return fmt.Errorf("dist: %s rank %d part %d: finalize expects %d frames, received %d", c.Name(), pr.Rank, k, msg.Meta[1], frames[k])
			}
			fa := acc[k]
			delete(acc, k) // consumed by the finalize; release before decode
			delete(frames, k)
			a, rep, err := finalizeStreamPart(run, bd, pr.Rank, k, fa)
			if err != nil {
				return err
			}
			report := []float64{
				float64(rep.comp.Messages), float64(rep.comp.Elements), float64(rep.comp.Ops),
				float64(rep.dist.Messages), float64(rep.dist.Elements), float64(rep.dist.Ops),
				float64(rep.wire),
			}
			if err := pr.Send(0, tags.stats, [4]int64{int64(k)}, report, nil); err != nil {
				return fmt.Errorf("dist: %s rank %d stream stats: %w", c.Name(), pr.Rank, err)
			}
			if !run.opts.Degrade {
				// Direct path: this rank hosts exactly its own part.
				res.setLocal(k, a)
				return nil
			}
			done[k] = a
		default:
			return fmt.Errorf("dist: %s rank %d part %d: unknown stream frame kind %d", c.Name(), pr.Rank, k, msg.Meta[0])
		}
	}
}
