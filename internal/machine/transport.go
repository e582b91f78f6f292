package machine

import (
	"fmt"
	"sync/atomic"
	"time"
)

// ChanTransport is the in-process transport: one buffered Go channel per
// rank serves as its mailbox. It is deterministic given a deterministic
// send order and has no serialisation overhead, which makes it the right
// substrate for virtual-clock experiments.
type ChanTransport struct {
	inboxes   []chan Message
	watchdogs []watchdog // per rank, for blocked receives
	closed    atomic.Bool

	// SendTimeout bounds how long a Send may block on a full inbox
	// before reporting a deadlock (default 30s). A sender stuck here
	// means the communication pattern fills a mailbox faster than its
	// owner drains it. Set it before traffic flows: Send reads it
	// without synchronisation.
	SendTimeout time.Duration
}

// watchdog is one rank's reusable receive timer: a timer per blocked
// Recv would be most of what the message path of a halo sweep
// allocates. The mailbox admits one puller per rank, so one timer per
// rank serves; a concurrent Recv on the same rank (Drain, a test
// driving the transport directly) finds it taken and falls back to a
// timer of its own.
type watchdog struct {
	taken atomic.Bool
	timer *time.Timer // created by the first blocked Recv; guarded by taken
}

// arm returns a timer that expires after d and whether it is the
// shared one, which disarm must then hand back.
func (w *watchdog) arm(d time.Duration) (*time.Timer, bool) {
	if !w.taken.CompareAndSwap(false, true) {
		return time.NewTimer(d), false
	}
	if w.timer == nil {
		w.timer = time.NewTimer(d)
	} else {
		w.timer.Reset(d) // stopped and drained by the disarm before
	}
	return w.timer, true
}

// disarm stops the timer and drains an expiry the caller has not
// received, so that the next Reset cannot deliver a stale one (go.mod
// says go 1.22: timer channels are buffered).
func (w *watchdog) disarm(t *time.Timer, shared bool) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	if shared {
		w.taken.Store(false)
	}
}

// DefaultInboxDepth is the per-rank mailbox capacity. It is sized so a
// root can stream a message to every rank (plus collective control
// traffic) without blocking on slow receivers.
const DefaultInboxDepth = 64

// NewChanTransport creates a channel transport for p ranks with the
// default inbox depth.
func NewChanTransport(p int) *ChanTransport {
	return NewChanTransportDepth(p, DefaultInboxDepth)
}

// NewChanTransportDepth creates a channel transport with an explicit
// per-rank inbox capacity (minimum 1).
func NewChanTransportDepth(p, depth int) *ChanTransport {
	if p < 0 {
		p = 0
	}
	if depth < 1 {
		depth = 1
	}
	t := &ChanTransport{inboxes: make([]chan Message, p), watchdogs: make([]watchdog, p),
		SendTimeout: 30 * time.Second}
	for i := range t.inboxes {
		t.inboxes[i] = make(chan Message, depth)
	}
	return t
}

// Ranks implements Transport.
func (t *ChanTransport) Ranks() int { return len(t.inboxes) }

// Send implements Transport.
func (t *ChanTransport) Send(msg Message) error {
	if msg.To < 0 || msg.To >= len(t.inboxes) {
		return fmt.Errorf("machine: chan transport: invalid destination %d", msg.To)
	}
	if t.closed.Load() {
		return fmt.Errorf("machine: chan transport: send on closed transport")
	}
	// Fast path: room in the inbox.
	select {
	case t.inboxes[msg.To] <- msg:
		return nil
	default:
	}
	timeout := t.SendTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case t.inboxes[msg.To] <- msg:
		return nil
	case <-timer.C:
		return fmt.Errorf("machine: chan transport: send to rank %d blocked %v on a full inbox: %w", msg.To, timeout, ErrTimeout)
	}
}

// Recv implements Transport.
func (t *ChanTransport) Recv(rank int, timeout time.Duration) (Message, error) {
	if rank < 0 || rank >= len(t.inboxes) {
		return Message{}, fmt.Errorf("machine: chan transport: invalid rank %d", rank)
	}
	// Fast path: a waiting message needs no watchdog timer (and no
	// timer allocation — this is the receive hot path).
	select {
	case msg := <-t.inboxes[rank]:
		return msg, nil
	default:
	}
	w := &t.watchdogs[rank]
	timer, shared := w.arm(timeout)
	select {
	case msg := <-t.inboxes[rank]:
		w.disarm(timer, shared)
		return msg, nil
	case <-timer.C:
		w.disarm(timer, shared)
		return Message{}, fmt.Errorf("machine: rank %d: %w", rank, ErrTimeout)
	}
}

// Close implements Transport. Buffered messages are dropped.
func (t *ChanTransport) Close() error {
	t.closed.Store(true)
	return nil
}
