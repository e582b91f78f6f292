package dist

// The root loop, shared by all three schemes.
//
// The root's work per part is encode (compress/pack/extract, CPU bound)
// followed by send (transport bound). The root walks parts 0..p-1 in
// order, as the paper's SP2 root does: encode part k, send it, move on.
// Up to Options.Workers-1 helper goroutines encode parts ahead of it,
// so that part k+1's encode overlaps part k's send. A shared counter of
// the next unclaimed part decides who encodes each part: at part k the
// root claims parts and encodes them itself until part k is encoded,
// by itself or by the helper that claimed it, and blocks only when no
// part is left to claim. With one worker no helper starts.
//
// Virtual costs do not depend on who encoded a part: an encode charges
// the part's own counters (partPayload.comp/.dist), and the root merges
// them into the run's Breakdown and sends the part, in part order, so
// the totals and the sequence of charges are the same for any worker
// count. Wall time is booked by who did the work: a part the root
// encoded books the encoder's own measurements, and time the root
// spends blocked on a helper books to the side of the scheme's encode
// step (PhasePolicy.RootEncode) — compression for ED and CFS,
// distribution for SFC. Send time books to WallRootDist.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/simnet"
)

// partPayload carries one encoded part to the root's send: the wire
// message plus the virtual and wall cost of producing it.
type partPayload struct {
	meta   [4]int64
	buf    []float64
	pooled bool // buf came from machine.GetBuf; receiver may release it

	comp cost.Counter // root compression charges for this part
	dist cost.Counter // root distribution charges (pack/convert/extract)

	wallComp time.Duration
	wallDist time.Duration

	err error // the encode's error, read by the root
}

// rootSendParts runs the root side of one scheme: it encodes parts
// 0..p-1, or takes them from the helpers that encoded them, and sends
// each to its own rank on tag, in part order. On any error no part is
// claimed after it, and every helper has returned before this does.
func rootSendParts(pr *machine.Proc, tag int, run *runState, bd *Breakdown) error {
	parts := make([]partPayload, pr.P())
	workers := run.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var h *helpers
	if n := min(workers, len(parts)) - 1; n > 0 {
		h = startHelpers(run, parts, n)
		defer func() {
			h.next.Store(int64(len(parts))) // claim nothing more
			h.wg.Wait()
		}()
	}
	waitWall := &bd.WallRootDist
	if run.codec.Policy().RootEncode == simnet.ClassRootComp {
		waitWall = &bd.WallRootComp
	}
	for k := range parts {
		pp := &parts[k]
		if h == nil {
			pp.err = encodePart(run, k, pp)
			bookEncode(bd, pp)
		} else {
			h.await(k, run, parts, bd, waitWall)
		}
		if pp.err != nil {
			return pp.err
		}
		// Merged here, in part order, the charges reach the breakdown and
		// the network recorder the same way whoever encoded the part.
		pr.Charge(&bd.RootComp, simnet.ClassRootComp, pp.comp)
		pr.Charge(&bd.RootDist, simnet.ClassRootDist, pp.dist)
		start := time.Now()
		err := pr.SendBuf(k, tag, pp.meta, pp.buf, pp.pooled, &bd.RootDist)
		bd.WallRootDist += time.Since(start)
		if err != nil {
			return err
		}
	}
	return nil
}

// encodePart produces part k's wire payload into pp, unless the run's
// context is done: a cancelled run encodes no further part.
func encodePart(run *runState, k int, pp *partPayload) error {
	if ctx := run.opts.Ctx; ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return run.codec.EncodePart(run, k, pp)
}

// bookEncode books the wall time of a part the root encoded itself.
func bookEncode(bd *Breakdown, pp *partPayload) {
	bd.WallRootComp += pp.wallComp
	bd.WallRootDist += pp.wallDist
}

// helpers is the state the root shares with the goroutines that encode
// parts ahead of it. It exists only while helpers run.
type helpers struct {
	next atomic.Int64    // the next unclaimed part; len(done) or more once claiming stops
	done []chan struct{} // done[k] is closed once part k is encoded
	wg   sync.WaitGroup
}

// startHelpers starts n goroutines that claim and encode parts into
// parts until none is left unclaimed.
func startHelpers(run *runState, parts []partPayload, n int) *helpers {
	h := &helpers{done: make([]chan struct{}, len(parts))}
	for k := range h.done {
		h.done[k] = make(chan struct{})
	}
	h.wg.Add(n)
	for range n {
		go func() {
			defer h.wg.Done()
			for h.encodeNext(run, parts) >= 0 {
			}
		}()
	}
	return h
}

// encodeNext claims the next unclaimed part and encodes it, returning
// its index, or -1 when no part is left to claim. An encode error stops
// all claiming; the root reads it from the part when it gets there.
func (h *helpers) encodeNext(run *runState, parts []partPayload) int {
	k := int(h.next.Add(1) - 1)
	if k >= len(parts) {
		return -1
	}
	pp := &parts[k]
	if pp.err = encodePart(run, k, pp); pp.err != nil {
		h.next.Store(int64(len(parts))) // claim nothing after it
	}
	close(h.done[k])
	return k
}

// await returns once part k is encoded. Until then the root claims and
// encodes parts itself — part k when no helper has claimed it yet, or
// parts after it — booking their encoder's wall time; only the time it
// blocks on the helper that holds part k books to waitWall.
func (h *helpers) await(k int, run *runState, parts []partPayload, bd *Breakdown, waitWall *time.Duration) {
	for {
		select {
		case <-h.done[k]:
			return
		default:
		}
		j := h.encodeNext(run, parts)
		if j < 0 {
			break
		}
		bookEncode(bd, &parts[j])
	}
	start := time.Now()
	<-h.done[k]
	*waitWall += time.Since(start)
}
