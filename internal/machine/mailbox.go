package machine

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Per-rank receive demultiplexing. Every Proc receive goes through the
// rank's shared mailbox: messages pulled off the transport that do not
// match the caller's predicate are buffered for whichever receiver they
// do belong to, instead of being buffered privately inside one Proc.
// That is what lets several SPMD executions (dist.Session runs) share
// one Machine concurrently: each session receives only on its own
// allocated tag range, and a frame pulled by the "wrong" session's
// goroutine is parked in the mailbox where the right one finds it.
//
// At most one goroutine per rank pulls from the transport at a time
// (the `pulling` flag); the others wait on the condition variable and
// re-scan the buffer whenever the puller deposits a message or gives
// the pulling role up. A waiter whose own deadline expires while
// another goroutine holds the pull role is woken by a one-shot timer.
type mailbox struct {
	mu      chanMutex
	pending []Message
	pulling bool
	waiters int // goroutines parked on mu.wake
}

// chanMutex is a mutex with an associated broadcast channel, so waiters
// can select on wake-up and their own deadline timer together.
type chanMutex struct {
	lock chan struct{} // 1-buffered: full = unlocked
	wake chan struct{} // closed-and-replaced on broadcast
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.mu.lock = make(chan struct{}, 1)
	b.mu.lock <- struct{}{}
	b.mu.wake = make(chan struct{})
	return b
}

func (b *mailbox) acquire() { <-b.mu.lock }
func (b *mailbox) release() { b.mu.lock <- struct{}{} }

// broadcast wakes every goroutine parked in recvMatch's wait branch.
// The wake channel is replaced only when somebody holds the old one: a
// rank with a single receiver, the common case, never allocates here.
// Callers must hold the mailbox lock.
func (b *mailbox) broadcast() {
	if b.waiters == 0 {
		return
	}
	close(b.mu.wake)
	b.mu.wake = make(chan struct{})
}

// want names the message a receive waits for. It is a plain value —
// matched without a closure, formatted only when a timeout or
// cancellation error is built — because every receive carries one.
type want struct {
	kind wantKind
	from int // negative matches any sender
	// wantTag: the tag is lo, negative matching any tag. wantRange: the
	// tag lies in [lo, hi).
	lo, hi int
}

type wantKind uint8

const (
	wantAny wantKind = iota
	wantTag
	wantRange
)

func (w want) matches(m *Message) bool {
	switch w.kind {
	case wantTag:
		return (w.from < 0 || m.From == w.from) && (w.lo < 0 || m.Tag == w.lo)
	case wantRange:
		return (w.from < 0 || m.From == w.from) && m.Tag >= w.lo && m.Tag < w.hi
	}
	return true
}

// String is the text operators read in a receive timeout.
func (w want) String() string {
	switch w.kind {
	case wantTag:
		return fmt.Sprintf("(src %d, tag %d)", w.from, w.lo)
	case wantRange:
		return fmt.Sprintf("(src %d, tags [%d,%d))", w.from, w.lo, w.hi)
	}
	return "any message"
}

// take removes and returns the first pending message w matches. The
// vacated slot past the new length is zeroed: left as it was it would
// keep the last message's Data reachable from the mailbox — a stale
// alias of a buffer the receiver may by then have returned to the
// pool. Callers must hold the mailbox lock.
func (b *mailbox) take(w want) (Message, bool) {
	for i := range b.pending {
		if !w.matches(&b.pending[i]) {
			continue
		}
		m := b.pending[i]
		last := len(b.pending) - 1
		copy(b.pending[i:], b.pending[i+1:])
		b.pending[last] = Message{}
		b.pending = b.pending[:last]
		return m, true
	}
	return Message{}, false
}

// recvMatch returns the next message for this rank that w matches,
// buffering non-matching messages for other receivers on the same
// rank. A non-nil ctx aborts the wait early when cancelled (the ctx
// variants of the Proc receive methods); nil means "wait out the
// machine timeout", the classic behaviour.
func (p *Proc) recvMatch(ctx context.Context, w want) (Message, error) {
	b := p.m.boxes[p.Rank]
	deadline := time.Now().Add(p.m.timeout)
	b.acquire()
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				b.release()
				return Message{}, fmt.Errorf("machine: rank %d waiting for %s: %w", p.Rank, w, err)
			}
		}
		if msg, ok := b.take(w); ok {
			b.release()
			p.traceRecv(msg)
			return msg, nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			b.release()
			return Message{}, fmt.Errorf("machine: rank %d waiting for %s: %w", p.Rank, w, ErrTimeout)
		}
		if b.pulling {
			// Someone else is draining the transport; wait until they
			// deposit a message or release the pull role — or until our
			// own deadline passes or our context is cancelled.
			wake := b.mu.wake
			b.waiters++
			b.release()
			var done <-chan struct{}
			if ctx != nil {
				done = ctx.Done()
			}
			timer := time.NewTimer(remain)
			select {
			case <-wake:
			case <-timer.C:
			case <-done:
			}
			timer.Stop()
			b.acquire()
			b.waiters--
			continue
		}
		b.pulling = true
		b.release()
		msg, err := p.pullTransport(ctx, remain)
		b.acquire()
		b.pulling = false
		b.broadcast()
		if err != nil {
			b.release()
			return Message{}, err
		}
		b.pending = append(b.pending, msg)
		// Loop: re-scan, since the pulled message may match us — or a
		// waiter we just woke.
	}
}

// ctxPollSlice bounds how long a cancellable receive may sit inside a
// blocking Transport.Recv before re-checking its context. The Transport
// interface has no cancellation hook, so ctx-aware receives chunk the
// wait instead: cancellation latency is at most one slice.
const ctxPollSlice = 25 * time.Millisecond

// pullTransport blocks on the transport for up to remain. With a ctx it
// polls in ctxPollSlice chunks so cancellation cuts the wait short.
func (p *Proc) pullTransport(ctx context.Context, remain time.Duration) (Message, error) {
	if ctx == nil {
		return p.m.transport.Recv(p.Rank, remain)
	}
	for {
		if err := ctx.Err(); err != nil {
			return Message{}, fmt.Errorf("machine: rank %d receive: %w", p.Rank, err)
		}
		slice := remain
		if slice > ctxPollSlice {
			slice = ctxPollSlice
		}
		msg, err := p.m.transport.Recv(p.Rank, slice)
		if err == nil {
			return msg, nil
		}
		if !errors.Is(err, ErrTimeout) {
			return Message{}, err
		}
		remain -= slice
		if remain <= 0 {
			return Message{}, err // the transport's own ErrTimeout
		}
	}
}
