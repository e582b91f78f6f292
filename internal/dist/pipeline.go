package dist

// Root-side encode pipeline, shared by all three schemes.
//
// The root's work per part is encode (compress/pack/extract, CPU bound)
// followed by send (transport bound). The sequential path interleaves
// them strictly — encode part 0, send part 0, encode part 1, ... — and
// is the paper's SP2 behaviour as well as the virtual-cost reference.
// The pipelined path runs a bounded pool of Options.Workers encoder
// goroutines while a single consumer sends completed parts *in part
// order*, for every scheme and any worker count.
//
// Virtual costs are identical on both paths by construction: encoders
// charge per-part local counters (partPayload.comp/.dist) and the
// consumer merges them into the run's Breakdown in part order, so the
// additive totals — and the sequence of Send charges, which the
// consumer issues itself — are byte-identical to the sequential loop.
// Only wall-clock attribution differs: the pipeline charges measured
// send time to WallRootDist and the residual stall (elapsed minus send
// time — the encode critical path the consumer actually waited on) to
// WallRootComp for ED/CFS, whose encode step is compression-phase work,
// or to WallRootDist for SFC, whose extract/pack step is
// distribution-phase work (stallToComp selects the side).

import (
	"sync"
	"time"

	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/simnet"
)

// partPayload carries one encoded part from an encoder to the consumer:
// the wire message plus the virtual and wall cost of producing it.
type partPayload struct {
	k      int
	meta   [4]int64
	buf    []float64
	pooled bool // buf came from machine.GetBuf; receiver may release it

	comp cost.Counter // root compression charges for this part
	dist cost.Counter // root distribution charges (pack/convert/extract)

	wallComp time.Duration
	wallDist time.Duration

	err error
}

// encodePartFunc produces part k's wire payload at the root, charging
// the scheme's costs to pp's local counters. Implementations must be
// safe for concurrent calls with distinct k.
type encodePartFunc func(k int, pp *partPayload) error

// rootSendParts runs the root side of one scheme: encode parts 0..p-1
// and send each to its own rank on tag, in part order, from a single
// goroutine. One worker runs the strictly sequential legacy loop, more
// run the pipeline — same counts, encode overlapped with send.
func rootSendParts(pr *machine.Proc, tag int, run *runState, bd *Breakdown, stallToComp bool,
	encode encodePartFunc) error {
	send := func(pp *partPayload) error {
		return pr.SendBuf(pp.k, tag, pp.meta, pp.buf, pp.pooled, &bd.RootDist)
	}
	workers := run.opts.workerCount()
	if workers <= 1 {
		return runRootSequential(pr, bd, encode, send)
	}
	return runRootPipeline(pr, workers, bd, stallToComp, encode, send)
}

// runRootSequential is the reference loop: encode part k, merge its
// charges, send it, repeat. Per-part encode wall time lands on the side
// the encoder measured it (wallComp/wallDist), send wall on
// WallRootDist — exactly the legacy per-scheme loops.
func runRootSequential(pr *machine.Proc, bd *Breakdown, encode encodePartFunc, send func(*partPayload) error) error {
	for k := 0; k < pr.P(); k++ {
		pp := partPayload{k: k}
		if err := encode(k, &pp); err != nil {
			return err
		}
		mergePart(pr, bd, &pp)
		bd.WallRootComp += pp.wallComp
		bd.WallRootDist += pp.wallDist
		start := time.Now()
		if err := send(&pp); err != nil {
			return err
		}
		bd.WallRootDist += time.Since(start)
	}
	return nil
}

// runRootPipeline fans part encoding out over a bounded worker pool and
// sends completed parts in order from this goroutine. On any error —
// an encoder's or the sender's — the pool is stopped and fully drained
// before returning, so no goroutine outlives the call.
func runRootPipeline(pr *machine.Proc, workers int, bd *Breakdown, stallToComp bool,
	encode encodePartFunc, send func(*partPayload) error) error {
	p := pr.P()
	if workers > p {
		workers = p
	}
	jobs := make(chan int, p)
	for k := 0; k < p; k++ {
		jobs <- k
	}
	close(jobs)

	results := make(chan *partPayload, workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				select {
				case <-stop: // consumer failed; abandon remaining parts
					return
				default:
				}
				pp := &partPayload{k: k}
				pp.err = encode(k, pp)
				select {
				case results <- pp:
				case <-stop:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	pipeStart := time.Now()
	var sendWall time.Duration
	pending := make(map[int]*partPayload, workers)
	next := 0
	var firstErr error
	fail := func(err error) {
		firstErr = err
		close(stop)
	}
	for pp := range results {
		if firstErr != nil {
			continue // draining: let every worker exit
		}
		if pp.err != nil {
			fail(pp.err)
			continue
		}
		pending[pp.k] = pp
		for {
			q, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			mergePart(pr, bd, q)
			start := time.Now()
			err := send(q)
			sendWall += time.Since(start)
			if err != nil {
				fail(err)
				break
			}
			next++
		}
	}
	if firstErr != nil {
		return firstErr
	}
	bd.WallRootDist += sendWall
	if stall := time.Since(pipeStart) - sendWall; stall > 0 {
		if stallToComp {
			bd.WallRootComp += stall
		} else {
			bd.WallRootDist += stall
		}
	}
	return nil
}

// mergePart charges one part's virtual costs on the root's proc, into
// the run breakdown and the network recorder alike. It runs on rank
// 0's goroutine in part order on both paths, so totals and order match
// the sequential reference exactly, and the recorded compute is
// deterministic although the encoder goroutines complete in scheduler
// order. Wall charges are path-dependent: the sequential loop books the
// encoder's own measurements, the pipeline books stall time instead
// (see the package comment above).
func mergePart(pr *machine.Proc, bd *Breakdown, pp *partPayload) {
	pr.Charge(&bd.RootComp, simnet.ClassRootComp, pp.comp)
	pr.Charge(&bd.RootDist, simnet.ClassRootDist, pp.dist)
}
