package machine

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/trace"
)

// ReliableTransport wraps any Transport with an ARQ reliability layer,
// the role MPI's lossless fabric plays on the paper's SP2 when the
// underlying link is *not* lossless:
//
//   - every data message carries a per-(sender, receiver) sequence
//     number and a CRC32C checksum over header and payload;
//   - the receiver acknowledges intact messages (ACK) and rejects
//     damaged ones (NACK), deduplicates by sequence number, and releases
//     messages to the application strictly in per-pair send order;
//   - the sender retains the payload and retransmits on NACK or ACK
//     timeout with exponential backoff plus jitter, up to
//     RetryPolicy.MaxRetries retransmissions, then fails the Send with
//     ErrRetriesExhausted, which fails the job.
//
// Sends are stop-and-wait per message: Send returns once the receiver
// has acknowledged (or the retry budget is spent). Control traffic
// (negative tags) bypasses the layer untouched, mirroring
// FaultTransport's contract that control always passes.
//
// A goroutine per rank ("pump") drains the rank's inner inbox so that
// acknowledgements flow even while the application is busy computing —
// without it, a root looping over reliable sends to itself would
// deadlock waiting for its own ACK. The pump blocks on that inbox with
// no deadline: closing the inner transport fails the inbox and so ends
// the pump.
type ReliableTransport struct {
	inner  Transport
	policy RetryPolicy
	tracer *trace.Tracer

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu      sync.Mutex
	nextSeq map[pairKey]uint64
	waiters map[waitKey]chan int

	eps []*relEndpoint

	rngMu sync.Mutex
	rng   *rand.Rand

	statMu sync.Mutex
	stats  ReliableStats
}

// RetryPolicy bounds the retransmission behaviour of a reliable send.
type RetryPolicy struct {
	// MaxRetries is the number of retransmissions after the first
	// attempt before Send fails with ErrRetriesExhausted (default 4;
	// negative means no retries at all).
	MaxRetries int
	// BaseDelay is the first ACK wait; each retry doubles it (default
	// 5ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 250ms).
	MaxDelay time.Duration
}

// DefaultRetryPolicy is the policy used when fields are left zero.
var DefaultRetryPolicy = RetryPolicy{MaxRetries: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 250 * time.Millisecond}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRetries == 0 {
		p.MaxRetries = DefaultRetryPolicy.MaxRetries
	}
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultRetryPolicy.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultRetryPolicy.MaxDelay
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = p.BaseDelay
	}
	return p
}

// ReliableStats counts the layer's activity.
type ReliableStats struct {
	DataSent    int64 // logical data messages accepted by Send
	Retransmits int64 // extra wire copies due to NACK or ACK timeout
	Nacks       int64 // checksum rejections signalled back to senders
	Duplicates  int64 // received copies discarded by sequence dedup
	Reordered   int64 // messages held to restore per-pair order
	Corrupt     int64 // frames that failed the checksum
	Failed      int64 // sends that exhausted the retry budget
}

// ErrRetriesExhausted is wrapped by Send when a message stays
// unacknowledged after the full retry budget: the link to the
// destination rank loses everything. The distribution fails with it.
var ErrRetriesExhausted = errors.New("machine: reliable send retries exhausted")

// Reserved control tags for the reliability protocol; like the
// collective tags they are negative and therefore uncharged and exempt
// from fault injection.
const (
	tagAck  = -100
	tagNack = -101
	// tagSkip heals the sequence gap left by a permanently failed send:
	// without it every later message on that (sender, receiver) pair
	// would wait forever in the hold buffer for a frame nobody will
	// retransmit again.
	tagSkip = -102
)

const (
	relHeaderWords = 3
	ackOK          = 0
	ackRejected    = 1
)

// relMagicBits marks a framed reliable data message ("RELIABLE" in
// ASCII). It travels as the raw bit pattern of the first payload word.
const relMagicBits = 0x52454C4941424C45

type pairKey struct{ from, to int }

type waitKey struct {
	from, to int
	seq      uint64
}

// relEndpoint is one rank's receive side: the in-order delivery queue,
// which is the rank's inbox, plus per-source sequencing state, guarded
// by the queue's mutex. The queue fails with the inner inbox's error
// once the rank can never receive again.
type relEndpoint struct {
	msgQueue
	expected map[int]uint64
	hold     map[int]map[uint64]Message
}

// NewReliableTransport wraps inner with the given retry policy (zero
// fields take defaults) and starts one pump goroutine per rank. Close
// the returned transport to stop them.
func NewReliableTransport(inner Transport, policy RetryPolicy) *ReliableTransport {
	t := &ReliableTransport{
		inner:   inner,
		policy:  policy.withDefaults(),
		stop:    make(chan struct{}),
		nextSeq: make(map[pairKey]uint64),
		waiters: make(map[waitKey]chan int),
		eps:     make([]*relEndpoint, inner.Ranks()),
		rng:     rand.New(rand.NewSource(1)),
	}
	for i := range t.eps {
		t.eps[i] = &relEndpoint{
			expected: make(map[int]uint64),
			hold:     make(map[int]map[uint64]Message),
		}
	}
	for rank := range t.eps {
		t.wg.Add(1)
		go t.pump(rank)
	}
	return t
}

// SetTracer mirrors the layer's counters into tr (as
// "reliable.retransmits", "reliable.nacks", "reliable.duplicates",
// "reliable.corrupt", "reliable.failed"). Call before traffic flows.
func (t *ReliableTransport) SetTracer(tr *trace.Tracer) { t.tracer = tr }

// Stats returns a snapshot of the layer's counters.
func (t *ReliableTransport) Stats() ReliableStats {
	t.statMu.Lock()
	defer t.statMu.Unlock()
	return t.stats
}

// Policy returns the effective retry policy.
func (t *ReliableTransport) Policy() RetryPolicy { return t.policy }

// Ranks implements Transport.
func (t *ReliableTransport) Ranks() int { return t.inner.Ranks() }

func (t *ReliableTransport) count(field *int64, name string) {
	t.statMu.Lock()
	*field++
	t.statMu.Unlock()
	t.tracer.Count(name, 1)
}

// Send implements Transport. Data messages (tag >= 0) are framed,
// checksummed and retransmitted until acknowledged; control messages
// pass straight through.
func (t *ReliableTransport) Send(msg Message) error {
	if msg.Tag < 0 {
		return t.inner.Send(msg)
	}
	select {
	case <-t.stop:
		return fmt.Errorf("machine: reliable transport: send on closed transport")
	default:
	}

	t.mu.Lock()
	pk := pairKey{msg.From, msg.To}
	seq := t.nextSeq[pk]
	t.nextSeq[pk] = seq + 1
	wk := waitKey{msg.From, msg.To, seq}
	ch := make(chan int, 1)
	t.waiters[wk] = ch
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.waiters, wk)
		t.mu.Unlock()
	}()

	wire := msg
	wire.Data = encodeRel(msg, seq)
	t.statMu.Lock()
	t.stats.DataSent++
	t.statMu.Unlock()

	attempts := t.policy.MaxRetries + 1
	for a := 0; a < attempts; a++ {
		if a > 0 {
			t.count(&t.stats.Retransmits, "reliable.retransmits")
		}
		if err := t.inner.Send(wire); err != nil {
			return fmt.Errorf("machine: reliable send to rank %d: %w", msg.To, err)
		}
		timer := time.NewTimer(t.ackWait(a))
		select {
		case code := <-ch:
			timer.Stop()
			if code == ackOK {
				return nil
			}
			// NACK: the frame arrived damaged; retransmit immediately.
		case <-timer.C:
			// ACK timeout: the frame or its ACK was lost; retransmit.
		case <-t.stop:
			timer.Stop()
			return fmt.Errorf("machine: reliable transport: closed while sending to rank %d", msg.To)
		}
	}
	t.count(&t.stats.Failed, "reliable.failed")
	// Tell the receiver (if it is alive at all) to advance past this
	// sequence number; control traffic is exempt from data-loss faults,
	// so a merely-unlucky peer is not wedged by the abandoned seq.
	t.sendControl(msg.From, msg.To, tagSkip, seq)
	return fmt.Errorf("machine: reliable: message to rank %d (tag %d, seq %d) unacknowledged after %d attempts: %w",
		msg.To, msg.Tag, seq, attempts, ErrRetriesExhausted)
}

// ackWait returns the ACK timeout for the given attempt: exponential
// backoff from BaseDelay capped at MaxDelay, plus up to 25% jitter so
// synchronised retry storms decorrelate.
func (t *ReliableTransport) ackWait(attempt int) time.Duration {
	d := t.policy.BaseDelay
	for i := 0; i < attempt && d < t.policy.MaxDelay; i++ {
		d *= 2
	}
	if d > t.policy.MaxDelay {
		d = t.policy.MaxDelay
	}
	if jit := int64(d / 4); jit > 0 {
		t.rngMu.Lock()
		d += time.Duration(t.rng.Int63n(jit))
		t.rngMu.Unlock()
	}
	return d
}

// inbox is the rank's in-order delivery queue.
func (t *ReliableTransport) inbox(rank int) *msgQueue { return &t.eps[rank].msgQueue }

// Close implements Transport: closing the inner transport fails every
// inner inbox, which wakes each pump to fail its rank's queue and exit.
func (t *ReliableTransport) Close() error {
	t.stopOnce.Do(func() { close(t.stop) })
	err := t.inner.Close()
	t.wg.Wait()
	return err
}

var _ Transport = (*ReliableTransport)(nil)

// pump drains rank's inner inbox: verifying, acknowledging and ordering
// data frames, routing ACK/NACK to waiting senders, and passing other
// control traffic through to the delivery queue.
func (t *ReliableTransport) pump(rank int) {
	defer t.wg.Done()
	in := t.inner.inbox(rank)
	for {
		msg, err := in.recv(nil, want{}, forever)
		if err != nil {
			// The closed transport: the rank will never receive again;
			// surface the error to its receivers.
			t.eps[rank].fail(err)
			return
		}
		t.dispatch(rank, msg)
	}
}

func (t *ReliableTransport) dispatch(rank int, msg Message) {
	switch {
	case msg.Tag == tagAck || msg.Tag == tagNack:
		code := ackOK
		if msg.Tag == tagNack {
			code = ackRejected
		}
		t.mu.Lock()
		ch := t.waiters[waitKey{from: rank, to: msg.From, seq: uint64(msg.Meta[0])}]
		t.mu.Unlock()
		if ch != nil {
			select {
			case ch <- code:
			default:
			}
		}
	case msg.Tag == tagSkip:
		t.handleSkip(rank, msg)
	case msg.Tag < 0:
		// Collective control traffic: no sequencing, straight through.
		t.eps[rank].push(msg)
	default:
		t.handleData(rank, msg)
	}
}

// handleData verifies, acknowledges and orders one data frame.
func (t *ReliableTransport) handleData(rank int, msg Message) {
	payload, seq, ok := decodeRel(msg)
	if !ok {
		t.count(&t.stats.Corrupt, "reliable.corrupt")
		t.count(&t.stats.Nacks, "reliable.nacks")
		t.sendControl(rank, msg.From, tagNack, seq)
		return
	}
	// ACK before dedup: duplicates mean the sender missed the first ACK.
	t.sendControl(rank, msg.From, tagAck, seq)

	clean := msg
	clean.Data = payload

	ep := t.eps[rank]
	ep.mu.Lock()
	exp := ep.expected[msg.From]
	switch {
	case seq < exp:
		ep.mu.Unlock()
		t.count(&t.stats.Duplicates, "reliable.duplicates")
	case seq == exp:
		ep.pushLocked(clean)
		ep.advanceLocked(msg.From, exp+1)
		ep.mu.Unlock()
	default: // seq > exp: a gap — hold until the missing frames arrive
		if ep.hold[msg.From] == nil {
			ep.hold[msg.From] = make(map[uint64]Message)
		}
		if _, dup := ep.hold[msg.From][seq]; dup {
			ep.mu.Unlock()
			t.count(&t.stats.Duplicates, "reliable.duplicates")
			return
		}
		ep.hold[msg.From][seq] = clean
		ep.mu.Unlock()
		t.count(&t.stats.Reordered, "reliable.reordered")
	}
}

// handleSkip processes a sender's notice that it abandoned seq after
// exhausting its retries: if that is exactly the frame this endpoint is
// waiting for, skip it and release any held successors. If the frame
// did arrive (the sender only missed the ACKs), expected has already
// moved past seq and the notice is stale — ignore it.
func (t *ReliableTransport) handleSkip(rank int, msg Message) {
	ep := t.eps[rank]
	seq := uint64(msg.Meta[0])
	ep.mu.Lock()
	if ep.expected[msg.From] != seq {
		ep.mu.Unlock()
		return
	}
	ep.advanceLocked(msg.From, seq+1)
	ep.mu.Unlock()
}

// sendControl emits an ACK/NACK from rank back to peer; best effort —
// a lost ACK is recovered by the sender's retransmission.
func (t *ReliableTransport) sendControl(rank, peer, tag int, seq uint64) {
	_ = t.inner.Send(Message{From: rank, To: peer, Tag: tag, Meta: [4]int64{int64(seq)}})
}

// advanceLocked moves expected[from] to exp, releasing any directly-
// following held messages into the delivery queue. ep.mu must be held.
func (ep *relEndpoint) advanceLocked(from int, exp uint64) {
	for {
		held, ok := ep.hold[from][exp]
		if !ok {
			break
		}
		delete(ep.hold[from], exp)
		ep.pushLocked(held)
		exp++
	}
	ep.expected[from] = exp
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// relChecksum covers routing header, metadata, sequence number and the
// payload bit patterns, so damage anywhere in the frame is caught. The
// words reach the CRC as little-endian bytes, a chunk at a time.
func relChecksum(msg Message, seq uint64, payload []float64) uint32 {
	var crc uint32
	encodeWords(msg, seq, payload, func(b []byte) error {
		crc = crc32.Update(crc, crcTable, b)
		return nil
	})
	return crc
}

// encodeRel prepends the reliability header — magic, sequence number,
// checksum — to the payload. The words carry raw bit patterns (they are
// never used arithmetically), which both the channel transport (value
// copy) and the TCP transport (Float64bits round trip) preserve
// exactly.
func encodeRel(msg Message, seq uint64) []float64 {
	out := make([]float64, relHeaderWords+len(msg.Data))
	out[0] = math.Float64frombits(relMagicBits)
	out[1] = math.Float64frombits(seq)
	out[2] = math.Float64frombits(uint64(relChecksum(msg, seq, msg.Data)))
	copy(out[relHeaderWords:], msg.Data)
	return out
}

// decodeRel validates a framed data message, returning the stripped
// payload and sequence number. ok is false when the magic or checksum
// does not hold — the frame was damaged in flight. The seq is returned
// even then (best effort, for the NACK).
func decodeRel(msg Message) (payload []float64, seq uint64, ok bool) {
	if len(msg.Data) < relHeaderWords {
		return nil, 0, false
	}
	seq = math.Float64bits(msg.Data[1])
	if math.Float64bits(msg.Data[0]) != relMagicBits {
		return nil, seq, false
	}
	payload = msg.Data[relHeaderWords:]
	// Compare the full 64-bit pattern, not a uint32 truncation: encodeRel
	// stores the CRC with zero upper bits, so damage anywhere in the
	// checksum word itself must also fail the match.
	want := math.Float64bits(msg.Data[2])
	if uint64(relChecksum(msg, seq, payload)) != want {
		return nil, seq, false
	}
	return payload, seq, true
}
