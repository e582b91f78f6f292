package machine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ChanTransport is the in-process transport: one buffered Go channel per
// rank serves as its mailbox. It is deterministic given a deterministic
// send order and has no serialisation overhead, which makes it the right
// substrate for virtual-clock experiments.
type ChanTransport struct {
	inboxes   []chan Message
	watchdogs []watchdog    // per rank, for blocked receives
	done      chan struct{} // closed by Close: wakes blocked senders and receivers
	closeOnce sync.Once

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

// disarm stops the timer and, unless the caller received its expiry
// (fired), drains it, so that the next Reset cannot deliver a stale one.
// go.mod says go 1.22: timer channels are buffered, and an expiry Stop
// reports as past may not have reached the channel yet, so the drain
// waits for it rather than polling.
func (w *watchdog) disarm(t *time.Timer, shared, fired bool) {
	if !t.Stop() && !fired {
		<-t.C
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
		done: make(chan struct{}), SendTimeout: 30 * time.Second}
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
	select {
	case <-t.done:
		return fmt.Errorf("machine: chan transport: send on closed transport")
	default:
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
	case <-t.done:
		return fmt.Errorf("machine: chan transport: send to rank %d: %w", msg.To, errClosed)
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
		w.disarm(timer, shared, false)
		return msg, nil
	case <-timer.C:
		w.disarm(timer, shared, true)
		return Message{}, fmt.Errorf("machine: rank %d: %w", rank, ErrTimeout)
	case <-t.done:
		w.disarm(timer, shared, false)
		return Message{}, fmt.Errorf("machine: rank %d: %w", rank, errClosed)
	}
}

// Close implements Transport: blocked receives and sends return at once.
func (t *ChanTransport) Close() error {
	t.closeOnce.Do(func() { close(t.done) })
	return nil
}

// errClosed is what a receive on a closed transport returns.
var errClosed = errors.New("machine: transport closed")

// msgQueue is an unbounded FIFO of messages whose producers never block:
// the TCP read loop and the reliability pumps push, a rank's receiver
// pops. notify holds at most one pending wake-up. A transport fails its
// queues when it closes.
type msgQueue struct {
	mu     sync.Mutex
	items  []Message
	head   int   // items[:head] are taken and zeroed
	err    error // set by fail; returned once the queue runs dry
	notify chan struct{}
	dog    watchdog
}

func (q *msgQueue) init() { q.notify = make(chan struct{}, 1) }

func (q *msgQueue) push(msg Message) {
	q.mu.Lock()
	q.items = append(q.items, msg)
	q.mu.Unlock()
	q.wake()
}

// fail makes every later pop on the empty queue return err.
func (q *msgQueue) fail(err error) {
	q.mu.Lock()
	q.err = err
	q.mu.Unlock()
	q.wake()
}

func (q *msgQueue) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// take removes the oldest message. When there is none, ok is false and
// err is the queue's failure, if any.
func (q *msgQueue) take() (msg Message, ok bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head < len(q.items) {
		msg, ok = q.items[q.head], true
		q.items[q.head] = Message{} // the queue must not keep the payload reachable
		if q.head++; 2*q.head >= len(q.items) {
			// Half the slots are taken: slide the rest down, so the
			// array grows with the backlog, not with the traffic.
			n := copy(q.items, q.items[q.head:])
			clear(q.items[n:])
			q.items, q.head = q.items[:n], 0
		}
	} else {
		err = q.err
	}
	if q.head < len(q.items) || q.err != nil {
		q.wake() // a concurrent receiver must see what is left
	}
	return msg, ok, err
}

// pop returns the oldest message, waiting up to timeout for one. It
// fails with ErrTimeout, or with the queue's failure once the queue is
// empty.
func (q *msgQueue) pop(timeout time.Duration) (Message, error) {
	if msg, ok, err := q.take(); ok || err != nil {
		return msg, err
	}
	timer, shared := q.dog.arm(timeout)
	for {
		select {
		case <-q.notify:
		case <-timer.C:
			q.dog.disarm(timer, shared, true)
			return Message{}, ErrTimeout
		}
		if msg, ok, err := q.take(); ok || err != nil {
			q.dog.disarm(timer, shared, false)
			return msg, err
		}
	}
}
