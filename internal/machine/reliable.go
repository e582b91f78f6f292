package machine

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
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
//   - the sender retains each frame and retransmits it on NACK or ACK
//     timeout with exponential backoff plus jitter, up to
//     RetryPolicy.MaxRetries retransmissions, then gives the frame up
//     with ErrRetriesExhausted, which fails the job.
//
// Sends do not wait for their ACKs, like an MPI eager send: Send
// returns once its frame is encoded, retained and written. Each
// (sender, receiver) link keeps at most one frame unacknowledged — the
// window is one frame wide — so a second Send on the same link waits
// for the first frame's ACK, while sends to different links are all in
// flight at once. Each ACK wait therefore covers one round trip, as
// under stop-and-wait. A link whose budget is spent stays failed: its
// next Send, the sending rank's flush at the end of Machine.Run, and
// Machine.LinkFailed all report it. Control traffic (negative tags)
// bypasses the layer untouched, mirroring FaultTransport's contract
// that control always passes.
//
// A goroutine per rank ("pump") drains the rank's inner inbox so that
// acknowledgements flow even while the application is busy computing —
// without it, a root sending to itself would never see its own ACKs.
// The pump blocks on that inbox with no deadline: closing the inner
// transport fails the inbox and so ends the pump.
type ReliableTransport struct {
	inner  Transport
	policy RetryPolicy
	tracer *trace.Tracer
	wg     sync.WaitGroup // the pumps

	// mu guards the send side: the links and closed. cond (on mu) wakes
	// a Send waiting for its link's frame to be acknowledged and a flush
	// waiting for its rank's frames.
	mu      sync.Mutex
	cond    sync.Cond
	closed  bool
	links   []*relLink     // index from*p + to, built on the link's first Send
	sending sync.WaitGroup // retransmissions in progress; Close waits for them

	// failed is done once any link has spent its retry budget, with that
	// link's error as its cause; fail records it.
	failed context.Context
	fail   context.CancelCauseFunc

	eps []*relEndpoint

	rng *rand.Rand // the ACK waits' jitter, guarded by mu

	statMu sync.Mutex
	stats  ReliableStats
}

// relLink is the send side of one (sender, receiver) pair.
type relLink struct {
	next uint64    // the sequence number of the link's next frame
	cur  *relFrame // the unacknowledged frame; nil when the link is idle
	err  error     // the first frame that spent its retry budget; sticky
}

// relFrame is one retained frame: the wire message as it was first
// written, and its ACK wait.
type relFrame struct {
	link    *relLink
	msg     Message // the encoded frame; zero until it is written
	seq     uint64
	attempt int         // retransmissions so far
	timer   *time.Timer // the current ACK wait; nil until the first write
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
	Failed      int64 // frames that exhausted the retry budget
}

// ErrRetriesExhausted is wrapped by a link's error once one of its
// frames stays unacknowledged after the full retry budget: the link to
// the destination rank loses everything. The distribution fails with
// it.
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

// relTrailerWords is the framing a data message carries after its
// payload: magic, sequence number, checksum. A trailer, not a header,
// so the payload a receiver is handed starts where the frame does, and
// a pooled frame goes back to the pool whole.
const relTrailerWords = 3

// relMagicBits marks a framed reliable data message ("RELIABLE" in
// ASCII). It travels as the raw bit pattern of the first trailer word.
const relMagicBits = 0x52454C4941424C45

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
	p := inner.Ranks()
	t := &ReliableTransport{
		inner:  inner,
		policy: policy.withDefaults(),
		links:  make([]*relLink, p*p),
		eps:    make([]*relEndpoint, p),
		rng:    rand.New(rand.NewPCG(1, 0)),
	}
	t.cond.L = &t.mu
	t.failed, t.fail = context.WithCancelCause(context.Background())
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

var errRelClosed = errors.New("machine: reliable transport: closed")

// Send implements Transport. A data message (tag >= 0) is framed,
// checksummed, retained as its link's frame and written; Send returns
// then, without waiting for the ACK. It waits only while the link's
// previous frame is unacknowledged, and fails at once on a link that
// has spent a retry budget, with that link's error. The payload is
// copied into the frame, so a pooled one goes back to the pool here.
// Control messages pass straight through.
func (t *ReliableTransport) Send(msg Message) error {
	if msg.Tag < 0 {
		return t.inner.Send(msg)
	}
	p := len(t.eps)
	if msg.From < 0 || msg.From >= p || msg.To < 0 || msg.To >= p {
		return fmt.Errorf("machine: reliable send from rank %d to rank %d of %d", msg.From, msg.To, p)
	}
	t.mu.Lock()
	l := t.links[msg.From*p+msg.To]
	if l == nil {
		l = new(relLink)
		t.links[msg.From*p+msg.To] = l
	}
	for !t.closed && l.err == nil && l.cur != nil {
		t.cond.Wait()
	}
	err := l.err
	if t.closed {
		err = errRelClosed
	}
	if err != nil {
		t.mu.Unlock()
		return err
	}
	f := &relFrame{link: l, seq: l.next}
	l.cur = f
	l.next++
	t.mu.Unlock()

	wire := msg
	wire.Data = encodeRel(msg, f.seq)
	wire.Pooled = false // the ARQ's own frame: over chan the receiver aliases it
	if msg.Pooled {
		PutBuf(msg.Data)
	}
	t.statMu.Lock()
	t.stats.DataSent++
	t.statMu.Unlock()

	t.mu.Lock()
	if t.closed {
		t.retireLocked(f)
		t.mu.Unlock()
		return errRelClosed
	}
	f.msg = wire
	f.timer = time.AfterFunc(t.ackWait(0), func() { t.expire(f) })
	t.mu.Unlock()
	if err := t.inner.Send(wire); err != nil {
		t.mu.Lock()
		t.retireLocked(f)
		t.mu.Unlock()
		return fmt.Errorf("machine: reliable send to rank %d: %w", msg.To, err)
	}
	return nil
}

// flush waits until every frame rank has sent is acknowledged or given
// up, and returns the error of the first of rank's links (by receiver)
// that spent a retry budget. Machine.Run calls it as each rank's body
// returns, so a run ends with its sends settled. Close wakes it.
func (t *ReliableTransport) flush(rank int) error {
	p := len(t.eps)
	links := t.links[rank*p : (rank+1)*p]
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 0; i < len(links); {
		switch l := links[i]; {
		case l == nil || l.cur == nil:
			i++
		case t.closed:
			return fmt.Errorf("%w with a frame from rank %d to rank %d unacknowledged", errRelClosed, rank, i)
		default:
			t.cond.Wait()
		}
	}
	for _, l := range links {
		if l != nil && l.err != nil {
			return l.err
		}
	}
	return nil
}

// retireLocked drops f from its link — it was acknowledged, given up,
// or never written — and wakes the Sends and flushes waiting on the
// link. A frame already retired is left alone. Callers hold t.mu.
func (t *ReliableTransport) retireLocked(f *relFrame) {
	if f.link.cur != f {
		return
	}
	if f.timer != nil {
		f.timer.Stop()
	}
	f.link.cur = nil
	t.cond.Broadcast()
}

// frameLocked returns the retained frame seq of the link from → to, or
// nil if it is retired (a late or duplicate verdict) or not yet
// written. Callers hold t.mu.
func (t *ReliableTransport) frameLocked(from, to int, seq uint64) *relFrame {
	p := len(t.eps)
	if from < 0 || from >= p || to < 0 || to >= p {
		return nil
	}
	if l := t.links[from*p+to]; l != nil && l.cur != nil && l.cur.seq == seq && l.cur.timer != nil {
		return l.cur
	}
	return nil
}

// expire is f's retransmit timer: its ACK wait ended unanswered.
func (t *ReliableTransport) expire(f *relFrame) {
	t.mu.Lock()
	if t.closed || f.link.cur != f {
		t.mu.Unlock() // retired meanwhile, or the transport closed
		return
	}
	t.retryLocked(f)
}

// retryLocked resends f and arms its next ACK wait or, with the budget
// spent, gives f up: the link fails with ErrRetriesExhausted, which
// also marks the transport failed, and the receiver gets a skip notice
// so a merely unlucky peer is not wedged behind the abandoned number.
// Callers hold t.mu and have stopped or consumed f's timer; it returns
// with t.mu released, after the send.
func (t *ReliableTransport) retryLocked(f *relFrame) {
	out := f.msg
	if f.attempt < t.policy.MaxRetries {
		f.attempt++
		f.timer.Reset(t.ackWait(f.attempt))
		t.count(&t.stats.Retransmits, "reliable.retransmits")
	} else {
		err := fmt.Errorf("machine: reliable: message from rank %d to rank %d (tag %d, seq %d) unacknowledged after %d attempts: %w",
			out.From, out.To, out.Tag, f.seq, f.attempt+1, ErrRetriesExhausted)
		if f.link.err == nil {
			f.link.err = err
		}
		t.fail(err)
		t.retireLocked(f)
		t.count(&t.stats.Failed, "reliable.failed")
		out = Message{From: out.From, To: out.To, Tag: tagSkip, Meta: [4]int64{int64(f.seq)}}
	}
	t.sending.Add(1)
	t.mu.Unlock()
	_ = t.inner.Send(out) // best effort: a lost copy is the next ACK wait's to resend
	t.sending.Done()
}

// settle applies a receiver's verdict on frame seq of the link
// from → to: an ACK retires it, a NACK resends it at once.
func (t *ReliableTransport) settle(from, to int, seq uint64, ack bool) {
	t.mu.Lock()
	f := t.frameLocked(from, to, seq)
	switch {
	case f == nil || t.closed:
	case ack:
		t.retireLocked(f)
	case f.timer.Stop(): // else the timer has just fired, and expire resends f
		t.retryLocked(f)
		return
	}
	t.mu.Unlock()
}

// ackWait returns the ACK timeout for the given attempt: exponential
// backoff from BaseDelay capped at MaxDelay, plus up to 25% jitter so
// synchronised retry storms decorrelate. Callers hold t.mu.
func (t *ReliableTransport) ackWait(attempt int) time.Duration {
	d := t.policy.BaseDelay
	for i := 0; i < attempt && d < t.policy.MaxDelay; i++ {
		d *= 2
	}
	if d > t.policy.MaxDelay {
		d = t.policy.MaxDelay
	}
	if jit := int64(d / 4); jit > 0 {
		d += time.Duration(t.rng.Int64N(jit))
	}
	return d
}

// inbox is the rank's in-order delivery queue.
func (t *ReliableTransport) inbox(rank int) *msgQueue { return &t.eps[rank].msgQueue }

// Close implements Transport. It stops every retransmit timer and
// wakes every Send and flush waiting on a link; those return an
// error. Closing the inner transport then fails every inner inbox,
// which wakes each pump to fail its rank's queue and exit. Close
// returns once the pumps and any retransmission in progress are done.
func (t *ReliableTransport) Close() error {
	t.mu.Lock()
	t.closed = true
	for _, l := range t.links {
		if l != nil && l.cur != nil && l.cur.timer != nil {
			l.cur.timer.Stop()
		}
	}
	t.cond.Broadcast()
	t.mu.Unlock()
	err := t.inner.Close()
	t.sending.Wait()
	t.wg.Wait()
	return err
}

var _ Transport = (*ReliableTransport)(nil)

// pump drains rank's inner inbox: verifying, acknowledging and ordering
// data frames, routing ACK/NACK to the retained frames, and passing
// other control traffic through to the delivery queue.
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
		t.settle(rank, msg.From, uint64(msg.Meta[0]), msg.Tag == tagAck)
	case msg.Tag == tagSkip:
		t.handleSkip(rank, msg)
	case msg.Tag < 0:
		// Collective control traffic: no sequencing, straight through.
		t.eps[rank].push(msg)
	default:
		t.handleData(rank, msg)
	}
}

// handleData verifies, acknowledges and orders one data frame. A frame
// that is not delivered (damaged or a duplicate) goes back to the pool
// if the inner transport drew it from there.
func (t *ReliableTransport) handleData(rank int, msg Message) {
	payload, seq, ok := decodeRel(msg)
	if !ok {
		t.count(&t.stats.Corrupt, "reliable.corrupt")
		t.count(&t.stats.Nacks, "reliable.nacks")
		t.sendControl(rank, msg.From, tagNack, seq)
		ReleaseMessage(&msg)
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
		ReleaseMessage(&msg)
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
			ReleaseMessage(&msg)
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

// encodeRel copies the payload into a new frame and appends the
// reliability trailer — magic, sequence number, checksum. The words
// carry raw bit patterns (they are never used arithmetically), which
// both the channel transport (value copy) and the TCP transport
// (Float64bits round trip) preserve exactly.
func encodeRel(msg Message, seq uint64) []float64 {
	n := len(msg.Data)
	out := make([]float64, n+relTrailerWords)
	copy(out, msg.Data)
	out[n] = math.Float64frombits(relMagicBits)
	out[n+1] = math.Float64frombits(seq)
	out[n+2] = math.Float64frombits(uint64(relChecksum(msg, seq, msg.Data)))
	return out
}

// decodeRel validates a framed data message, returning the payload —
// the frame up to its trailer, with the frame's capacity — and the
// sequence number. ok is false when the magic or checksum does not
// hold — the frame was damaged in flight. The seq is returned even then
// (best effort, for the NACK).
func decodeRel(msg Message) (payload []float64, seq uint64, ok bool) {
	n := len(msg.Data) - relTrailerWords
	if n < 0 {
		return nil, 0, false
	}
	seq = math.Float64bits(msg.Data[n+1])
	if math.Float64bits(msg.Data[n]) != relMagicBits {
		return nil, seq, false
	}
	payload = msg.Data[:n]
	// Compare the full 64-bit pattern, not a uint32 truncation: encodeRel
	// stores the CRC with zero upper bits, so damage anywhere in the
	// checksum word itself must also fail the match.
	want := math.Float64bits(msg.Data[n+2])
	if uint64(relChecksum(msg, seq, payload)) != want {
		return nil, seq, false
	}
	return payload, seq, true
}
