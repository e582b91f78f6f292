package machine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// stacks builds each transport stack a machine runs on, for p ranks.
func stacks(t *testing.T, p int) map[string]func() Transport {
	t.Helper()
	tcp := func() Transport {
		tr, err := NewTCPTransport(p)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	return map[string]func() Transport{
		"chan":           func() Transport { return NewChanTransport(p) },
		"tcp":            tcp,
		"reliable-chan":  func() Transport { return NewReliableTransport(NewChanTransport(p), fastPolicy) },
		"reliable-tcp":   func() Transport { return NewReliableTransport(tcp(), fastPolicy) },
		"reliable-fault": func() Transport { return NewReliableTransport(NewFaultTransport(NewChanTransport(p)), fastPolicy) },
	}
}

// waitQueue returns once q holds at least items messages and parked
// receivers.
func waitQueue(t *testing.T, q *msgQueue, items, parked int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		q.mu.Lock()
		i, w := len(q.items)-q.head, len(q.waiting)
		q.mu.Unlock()
		if i >= items && w >= parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 5s the inbox holds %d of %d messages and %d of %d receivers", i, items, w, parked)
		}
	}
}

// TestRecvCtxCancelIsPrompt blocks a RecvFromCtx on an empty inbox and
// cancels it: the receive waits on ctx.Done() itself, so it must return
// within 5 ms, every time, on every transport a receive can block on.
func TestRecvCtxCancelIsPrompt(t *testing.T) {
	const rounds = 5
	all := stacks(t, 2)
	for _, name := range []string{"chan", "tcp", "reliable-tcp"} {
		t.Run(name, func(t *testing.T) {
			m, err := New(2, WithTransport(all[name]()), WithRecvTimeout(time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			pr := &Proc{Rank: 0, m: m}
			for i := 0; i < rounds; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan error, 1)
				go func() {
					_, err := pr.RecvFromCtx(ctx, 1, 5)
					done <- err
				}()
				waitQueue(t, m.transport.inbox(0), 0, 1)
				start := time.Now()
				cancel()
				err := <-done
				if d := time.Since(start); d > 5*time.Millisecond {
					t.Errorf("round %d: receive returned %v after cancel", i, d)
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("round %d: %v, want context.Canceled", i, err)
				}
			}
		})
	}
}

// cpuTime is the CPU the process has used so far, user and system.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestRecvWaitersDoNotSpin parks two receivers on one rank for tags 1
// and 2 while a frame with tag 3 waits in the inbox for nobody. Neither
// may spin or poll: over 200 ms of wall time the whole process uses
// under 20 ms of CPU. Then each receiver gets exactly its own frame and
// the third stays parked.
func TestRecvWaitersDoNotSpin(t *testing.T) {
	all := stacks(t, 2)
	for _, name := range []string{"chan", "reliable-tcp"} {
		t.Run(name, func(t *testing.T) {
			m, err := New(2, WithTransport(all[name]()), WithRecvTimeout(time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			pr, peer := &Proc{Rank: 0, m: m}, &Proc{Rank: 1, m: m}
			if err := peer.Send(0, 3, [4]int64{}, []float64{3}, nil); err != nil {
				t.Fatal(err)
			}
			q := m.transport.inbox(0)
			got := make(chan error, 2)
			for _, tag := range []int{1, 2} {
				go func(tag int) {
					msg, err := pr.RecvFrom(1, tag)
					if err == nil && (msg.Tag != tag || msg.Data[0] != float64(tag)) {
						err = fmt.Errorf("receiver for tag %d got tag %d carrying %v", tag, msg.Tag, msg.Data)
					}
					got <- err
				}(tag)
			}
			waitQueue(t, q, 1, 2)
			runtime.GC() // no collection inside the measured window
			before := cpuTime(t)
			time.Sleep(200 * time.Millisecond)
			if used := cpuTime(t) - before; used > 20*time.Millisecond {
				t.Errorf("two parked receivers used %v of CPU in 200ms", used)
			}
			for _, tag := range []int{2, 1} {
				if err := peer.Send(0, tag, [4]int64{}, []float64{float64(tag)}, nil); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2; i++ {
				if err := <-got; err != nil {
					t.Fatal(err)
				}
			}
			if msg, err := pr.RecvFrom(1, 3); err != nil || msg.Data[0] != 3 {
				t.Fatalf("parked frame: %v, %v", msg.Data, err)
			}
		})
	}
}

// TestCloseLeavesNoGoroutines builds each transport stack, moves a
// little traffic over it and closes it: afterwards the goroutine count
// must settle back where it was.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	const p = 3
	for name, build := range stacks(t, p) {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			tr := build()
			m, err := New(p, WithTransport(tr), WithRecvTimeout(5*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			err = m.Run(func(pr *Proc) error {
				switch pr.Rank {
				case 0:
					return pr.Send(2, 1, [4]int64{}, []float64{1}, nil)
				case 2:
					_, err := pr.RecvFrom(0, 1)
					return err
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if got := SettledGoroutines(before, 2*time.Second); got > before {
				t.Errorf("%d goroutines after Close, %d before the transport was built", got, before)
			}
		})
	}
}

// TestCloseKeepsQueuedMessages pins what Close does to an inbox that
// still holds messages: they stay readable, in order, and only an inbox
// with nothing left reports the close.
func TestCloseKeepsQueuedMessages(t *testing.T) {
	tr := NewChanTransport(1)
	for tag := 1; tag <= 2; tag++ {
		if err := tr.Send(Message{To: 0, Tag: tag}); err != nil {
			t.Fatal(err)
		}
	}
	tr.Close()
	if err := tr.Send(Message{To: 0, Tag: 3}); !errors.Is(err, errClosed) {
		t.Fatalf("Send after Close: %v, want errClosed", err)
	}
	for tag := 1; tag <= 2; tag++ {
		if msg, err := recvAny(tr, 0, time.Second); err != nil || msg.Tag != tag {
			t.Fatalf("queued message %d after Close: tag %d, %v", tag, msg.Tag, err)
		}
	}
	if _, err := recvAny(tr, 0, time.Second); !errors.Is(err, errClosed) {
		t.Fatalf("empty inbox after Close: %v, want errClosed", err)
	}
}
