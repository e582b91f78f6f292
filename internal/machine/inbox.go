package machine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// msgQueue is one rank's inbox, the only place a message waits between
// its Send and its receive. Producers — a Send on the channel
// transport, the TCP read loop, a reliability pump — append and never
// block. A receive takes the oldest message its want matches, so
// matching is FIFO per (source, tag) and several receivers on one rank
// (say, concurrent runs on disjoint tag ranges) each find their
// own frames, whichever order they arrive in.
//
// A receiver with nothing to take parks a waiter carrying its want. A
// push wakes only the waiters the new message matches, so a frame
// parked for one receiver never wakes another. The first waiter of a
// rank is kept and reused with its wake channel and its timer: a rank
// with a single receiver allocates nothing to wait.
type msgQueue struct {
	mu      sync.Mutex
	items   []Message
	head    int   // items[:head] are taken and zeroed
	err     error // set by fail; later pushes are refused
	waiting []*waiter
	spare   waiter // reused by one receiver at a time
	lent    bool   // spare is parked
}

// waiter is one parked receive.
type waiter struct {
	w      want
	wake   chan struct{} // 1-buffered: a push that matched w, or a failure
	timer  *time.Timer   // the receive's deadline; kept with the spare
	expire <-chan time.Time
}

// forever is the timeout of a receive that waits until a message or the
// queue's failure arrives: the reliability pumps'.
const forever = time.Duration(math.MaxInt64)

// errClosed is what a receive on a closed transport returns.
var errClosed = errors.New("machine: transport closed")

// push appends msg and wakes the waiters it matches. On a failed queue
// it drops msg and returns the failure.
func (q *msgQueue) push(msg Message) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return q.err
	}
	q.pushLocked(msg)
	return nil
}

// pushLocked is push for a caller that holds q.mu and knows the queue
// has not failed.
func (q *msgQueue) pushLocked(msg Message) {
	q.items = append(q.items, msg)
	for _, wt := range q.waiting {
		if wt.w.matches(&q.items[len(q.items)-1]) {
			wt.signal()
		}
	}
}

func (wt *waiter) signal() {
	select {
	case wt.wake <- struct{}{}:
	default:
	}
}

// fail wakes every waiter and makes every later push return err. The
// first failure stays. What the queue holds stays readable — a receive
// takes what it wants while it is there and returns err once it is not.
func (q *msgQueue) fail(err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return
	}
	q.err = err
	for _, wt := range q.waiting {
		wt.signal()
	}
}

// drain drops what the queue holds and returns how many messages that
// was.
func (q *msgQueue) drain() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.items) - q.head
	clear(q.items)
	q.items, q.head = q.items[:0], 0
	return n
}

// take removes the oldest message w matches. Every vacated slot is
// zeroed: left as it was it would keep that message's Data reachable
// from the queue — a stale alias of a buffer the receiver may by then
// have returned to the pool. Callers hold q.mu.
func (q *msgQueue) take(w want) (Message, bool) {
	for i := q.head; i < len(q.items); i++ {
		if !w.matches(&q.items[i]) {
			continue
		}
		msg := q.items[i]
		if i == q.head {
			q.items[i] = Message{}
			q.head++
		} else {
			q.items = slices.Delete(q.items, i, i+1) // zeroes the vacated tail slot
		}
		if 2*q.head >= len(q.items) {
			// Half the slots are taken: slide the rest down, so the
			// array grows with the backlog, not with the traffic.
			n := copy(q.items, q.items[q.head:])
			clear(q.items[n:])
			q.items, q.head = q.items[:n], 0
		}
		return msg, true
	}
	return Message{}, false
}

// recv removes and returns the oldest message w matches, waiting up to
// timeout (forever: no deadline) for one to arrive. It fails with
// ctx.Err() once a non-nil ctx is done, with ErrTimeout, or with the
// queue's failure. The wait is one select over the waiter's wake-up,
// its timer and ctx.Done(): nothing polls.
func (q *msgQueue) recv(ctx context.Context, w want, timeout time.Duration) (msg Message, err error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	var wt *waiter
	fired := false
	for {
		if ctx != nil {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		var ok bool
		if msg, ok = q.take(w); ok {
			break
		}
		if err = q.err; err != nil {
			break
		}
		if fired || timeout <= 0 {
			err = ErrTimeout
			break
		}
		if wt == nil {
			wt = q.park(w, timeout)
		}
		q.mu.Unlock()
		select {
		case <-wt.wake:
		case <-wt.expire:
			fired = true
		case <-done:
		}
		q.mu.Lock()
	}
	if wt != nil {
		q.unpark(wt, fired)
	}
	return msg, err
}

// park registers a waiter for w, armed to expire after timeout. Callers
// hold q.mu.
func (q *msgQueue) park(w want, timeout time.Duration) *waiter {
	wt := &q.spare
	if q.lent {
		wt = new(waiter)
	}
	q.lent = true
	if wt.wake == nil {
		wt.wake = make(chan struct{}, 1)
	}
	select {
	case <-wt.wake: // a wake-up the spare's last wait left unread
	default:
	}
	wt.w, wt.expire = w, nil
	if timeout != forever {
		if wt.timer == nil {
			wt.timer = time.NewTimer(timeout)
		} else {
			wt.timer.Reset(timeout) // stopped with its channel empty by the unpark before
		}
		wt.expire = wt.timer.C
	}
	q.waiting = append(q.waiting, wt)
	return wt
}

// unpark removes wt and disarms its timer. A timer that expired unread
// is dropped, not drained: go.mod says go 1.22, so timer channels are
// buffered and an expiry Stop reports as past may not have reached the
// channel yet. A Reset could deliver it during the spare's next wait,
// and waiting for it here would hold q.mu against every push to the
// rank. Callers hold q.mu.
func (q *msgQueue) unpark(wt *waiter, fired bool) {
	i := slices.Index(q.waiting, wt)
	q.waiting = slices.Delete(q.waiting, i, i+1)
	if wt.expire != nil && !wt.timer.Stop() && !fired {
		wt.timer = nil
	}
	if wt == &q.spare {
		q.lent = false
	}
}

// want names the message a receive waits for. It is a plain value —
// matched without a closure, formatted only when a timeout or
// cancellation error is built — because every receive carries one. The
// zero want matches any message.
type want struct {
	kind wantKind
	from int // negative matches any sender
	tag  int // negative matches any tag
}

type wantKind uint8

const (
	wantAny wantKind = iota
	wantTag
)

func (w want) matches(m *Message) bool {
	if w.kind == wantTag {
		return (w.from < 0 || m.From == w.from) && (w.tag < 0 || m.Tag == w.tag)
	}
	return true
}

// String is the text operators read in a receive timeout.
func (w want) String() string {
	if w.kind == wantTag {
		return fmt.Sprintf("(src %d, tag %d)", w.from, w.tag)
	}
	return "any message"
}
