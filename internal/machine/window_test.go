package machine

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// busy reports whether the link from → to holds an unacknowledged
// frame, read under the transport's lock.
func busy(rt *ReliableTransport, from, to int) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	l := rt.links[from*len(rt.eps)+to]
	return l != nil && l.cur != nil
}

// newReliableOver builds a p-rank ReliableTransport over inner transport
// name ("chan" or "tcp"), with fault injection between the two.
func newReliableOver(t *testing.T, name string, p int, policy RetryPolicy) (*ReliableTransport, *FaultTransport) {
	t.Helper()
	var base Transport = NewChanTransport(p)
	if name == "tcp" {
		tcp, err := NewTCPTransport(p)
		if err != nil {
			t.Fatal(err)
		}
		base = tcp
	}
	ft := NewFaultTransport(base)
	return NewReliableTransport(ft, policy), ft
}

// allToAll sends n pooled messages from every rank to every rank, one
// link after another, then receives them and checks each arrives once,
// intact and in its link's send order.
func allToAll(pr *Proc, n int) error {
	p := pr.m.p
	for to := 0; to < p; to++ {
		for i := 0; i < n; i++ {
			buf := append(GetBuf(3), float64(pr.Rank), float64(to), float64(i))
			if err := pr.SendBuf(to, 7, [4]int64{int64(i)}, buf, true, nil); err != nil {
				return err
			}
		}
	}
	for from := 0; from < p; from++ {
		for i := 0; i < n; i++ {
			msg, err := pr.RecvFrom(from, 7)
			if err != nil {
				return err
			}
			if msg.Meta[0] != int64(i) {
				return fmt.Errorf("rank %d: message %d from rank %d arrived as number %d", pr.Rank, msg.Meta[0], from, i)
			}
			if len(msg.Data) != 3 || msg.Data[0] != float64(from) || msg.Data[1] != float64(pr.Rank) || msg.Data[2] != float64(i) {
				return fmt.Errorf("rank %d: message %d from rank %d damaged: %v", pr.Rank, i, from, msg.Data)
			}
			ReleaseMessage(&msg)
		}
	}
	return nil
}

// TestReliableWindowExactlyOnceInOrder sends a run of messages on every
// link at once, through drops, damage, duplicates and reordering, over
// both inner transports. Every message must reach its receiver exactly
// once and in its link's send order.
func TestReliableWindowExactlyOnceInOrder(t *testing.T) {
	const p, n = 3, 24
	for _, name := range []string{"chan", "tcp"} {
		t.Run(name, func(t *testing.T) {
			rt, ft := newReliableOver(t, name, p, RetryPolicy{MaxRetries: 20, BaseDelay: 2 * time.Millisecond, MaxDelay: 200 * time.Millisecond})
			m, err := New(p, WithTransport(rt), WithRecvTimeout(10*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			ft.DropNext(6)
			ft.CorruptNext(6)
			ft.DuplicateNext(6)
			ft.ReorderNext(6)

			if err := m.Run(func(pr *Proc) error { return allToAll(pr, n) }); err != nil {
				t.Fatal(err)
			}
			if left := m.Drain(); left != 0 {
				t.Errorf("%d messages delivered beyond the %d sent on each link", left, n)
			}
			fs := ft.FullStats()
			if fs.Dropped != 6 || fs.Corrupted != 6 || fs.Duplicated != 6 || fs.Reordered != 6 {
				t.Errorf("faults injected %+v, want 6 of each", fs)
			}
			if st := rt.Stats(); st.Failed != 0 || st.DataSent != p*p*n {
				t.Errorf("stats %+v, want %d sent and none failed", st, p*p*n)
			}
		})
	}
}

// TestReliableBurstKeepsRetryBudget: a fault-free all-to-all burst under
// the default retry policy, with more ranks than the host has cores,
// must not spend any frame's retry budget. Each ACK wait covers one
// round trip of its link, not the frames queued ahead of it.
func TestReliableBurstKeepsRetryBudget(t *testing.T) {
	const p, n = 8, 32
	for _, name := range []string{"chan", "tcp"} {
		t.Run(name, func(t *testing.T) {
			rt, _ := newReliableOver(t, name, p, RetryPolicy{})
			m, err := New(p, WithTransport(rt), WithRecvTimeout(10*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if err := m.Run(func(pr *Proc) error { return allToAll(pr, n) }); err != nil {
				t.Fatal(err)
			}
			if st := rt.Stats(); st.Failed != 0 || st.DataSent != p*p*n {
				t.Errorf("stats %+v, want %d sent and none failed", st, p*p*n)
			}
		})
	}
}

// TestReliableWindowBlocksWhenFull: with every frame lost, a link takes
// one Send and then holds the next until the first frame's ACK. Once
// the link delivers again, both arrive in order and the link empties.
func TestReliableWindowBlocksWhenFull(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(2))
	rt := NewReliableTransport(ft, RetryPolicy{MaxRetries: 1000, BaseDelay: 2 * time.Millisecond, MaxDelay: 5 * time.Millisecond})
	defer rt.Close()
	ft.DropNext(1 << 20)

	const n = 2
	var sent atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := rt.Send(Message{From: 0, To: 1, Tag: 7, Meta: [4]int64{int64(i)}, Data: []float64{float64(i)}}); err != nil {
				done <- err
				return
			}
			sent.Add(1)
		}
		done <- nil
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sent.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the first Send never returned")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // several ACK waits, all lost
	if got := sent.Load(); got != 1 {
		t.Fatalf("%d sends returned over a link that lost every frame, want 1", got)
	}
	if !busy(rt, 0, 1) {
		t.Fatal("the link holds no unacknowledged frame")
	}

	ft.DropNext(0) // the link delivers again: retransmissions get through
	for i := 0; i < n; i++ {
		msg, err := recvAny(rt, 1, 5*time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if msg.Meta[0] != int64(i) || msg.Data[0] != float64(i) {
			t.Fatalf("recv %d: got message %d %v", i, msg.Meta[0], msg.Data)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := rt.flush(0); err != nil {
		t.Fatal(err)
	}
	if busy(rt, 0, 1) {
		t.Error("a frame is retained after the flush")
	}
}

// TestReliableCloseWithFramesInFlight closes a transport whose links
// all hold a frame that will never be acknowledged, with a Send waiting
// on its link and a flush waiting for its rank. Close must wake both
// with an error, stop every retransmit timer, and leave no goroutine
// behind.
func TestReliableCloseWithFramesInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	const p = 3
	ft := NewFaultTransport(NewChanTransport(p))
	rt := NewReliableTransport(ft, RetryPolicy{MaxRetries: 1000, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	ft.DropNext(1 << 20)
	for from := 0; from < p; from++ {
		for to := 0; to < p; to++ {
			if err := rt.Send(Message{From: from, To: to, Tag: 7, Data: []float64{1}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	blocked := make(chan error, 2)
	go func() { blocked <- rt.Send(Message{From: 0, To: 1, Tag: 7, Data: []float64{1}}) }()
	go func() { blocked <- rt.flush(2) }()
	time.Sleep(10 * time.Millisecond)

	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-blocked:
			if !errors.Is(err, errRelClosed) {
				t.Errorf("a waiter woken by Close returned %v, want the closed error", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Close left a Send or a flush waiting")
		}
	}
	sent := rt.Stats().Retransmits
	time.Sleep(20 * time.Millisecond) // ten ACK waits
	if again := rt.Stats().Retransmits; again != sent {
		t.Errorf("%d retransmissions after Close", again-sent)
	}
	if got := SettledGoroutines(before, 2*time.Second); got > before {
		t.Errorf("%d goroutines after Close, %d before the transport was built", got, before)
	}
}

// TestRunOnChanAllocs pins what Machine.Run costs on the channel
// transport: a goroutine, its closure and its Proc per rank plus the
// error slice and the join. The reliability layer's flush at the end of
// each rank's body must add nothing where that layer is absent.
func TestRunOnChanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	const p = 4
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.Run(func(*Proc) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3*p+2 {
		t.Errorf("Run on %d ranks allocates %.0f times, want <= %d", p, allocs, 3*p+2)
	}
}
