package machine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// recvAny takes the oldest message from rank's inbox on tr, waiting up
// to timeout: the receive side a transport offers without a machine.
func recvAny(tr Transport, rank int, timeout time.Duration) (Message, error) {
	return tr.inbox(rank).recv(nil, want{}, timeout)
}

// TestTakeZeroesVacatedSlot parks two frames in a rank's inbox, takes
// both and then looks at the backing array: a slot past the new length
// that still held its Message would keep that payload reachable from
// the inbox after the receiver released it to the pool.
func TestTakeZeroesVacatedSlot(t *testing.T) {
	m, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	pr := &Proc{Rank: 0, m: m}
	for tag := 1; tag <= 3; tag++ {
		if err := pr.Send(0, tag, [4]int64{}, []float64{float64(tag)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Asking for the last one first parks the other two.
	for _, tag := range []int{3, 1, 2} {
		msg, err := pr.RecvFrom(0, tag)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Data[0] != float64(tag) {
			t.Fatalf("tag %d delivered payload %v", tag, msg.Data)
		}
	}
	q := m.transport.inbox(0)
	if n := len(q.items) - q.head; n != 0 {
		t.Fatalf("%d frames still pending", n)
	}
	for i, slot := range q.items[:cap(q.items)] {
		if slot.Data != nil {
			t.Errorf("backing slot %d still references payload %v", i, slot.Data)
		}
	}
}

// TestRecvErrorTexts pins what an operator reads when a receive gives
// up: the wanted message is described by a value that is formatted only
// here, and the text must not drift from what the eager version said.
func TestRecvErrorTexts(t *testing.T) {
	// A deadline already in the past: every receive reports at once.
	m, err := New(3, WithRecvTimeout(-time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	pr := &Proc{Rank: 0, m: m}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name  string
		recv  func() (Message, error)
		text  string
		cause error
	}{
		{"RecvFrom", func() (Message, error) { return pr.RecvFrom(2, 7) },
			"machine: rank 0 waiting for (src 2, tag 7): machine: receive timed out", ErrTimeout},
		{"RecvFromCtx", func() (Message, error) { return pr.RecvFromCtx(cancelled, 2, 7) },
			"machine: rank 0 waiting for (src 2, tag 7): context canceled", context.Canceled},
	}
	for _, c := range cases {
		_, err := c.recv()
		if err == nil || err.Error() != c.text {
			t.Errorf("%s: error %q, want %q", c.name, err, c.text)
		}
		if !errors.Is(err, c.cause) {
			t.Errorf("%s: error %v does not wrap %v", c.name, err, c.cause)
		}
	}
}

// echo answers n messages on rank 1 of m, each with an empty message
// back to rank 0, and reports the first error on the returned channel.
func echo(m *Machine, n, tag int) <-chan error {
	done := make(chan error, 1)
	go func() {
		pr := &Proc{Rank: 1, m: m}
		for i := 0; i < n; i++ {
			if _, err := pr.RecvFrom(0, tag); err != nil {
				done <- err
				return
			}
			if err := pr.Send(0, tag, [4]int64{}, nil, nil); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	return done
}

// TestRecvAllocs pins the receive path's allocations. A message that is
// already waiting costs none: no description string, no matcher
// closure, no wake channel. A receive that blocks costs none either
// once the rank's watchdog timer exists; the pin leaves room for one.
func TestRecvAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	m, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	pr := &Proc{Rank: 0, m: m}
	const tag = 5

	waiting := testing.AllocsPerRun(100, func() {
		if err := pr.Send(0, tag, [4]int64{}, nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := pr.RecvFrom(0, tag); err != nil {
			t.Fatal(err)
		}
	})
	if waiting != 0 {
		t.Errorf("RecvFrom of a waiting message: %v allocs, want 0", waiting)
	}

	// AllocsPerRun pins GOMAXPROCS to 1, so rank 0 always parks in the
	// transport before rank 1 gets to answer.
	const rounds = 200
	done := echo(m, rounds+1, tag) // AllocsPerRun adds a warm-up call
	blocked := testing.AllocsPerRun(rounds, func() {
		if err := pr.Send(1, tag, [4]int64{}, nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := pr.RecvFrom(1, tag); err != nil {
			t.Fatal(err)
		}
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if blocked > 1 {
		t.Errorf("blocked ping-pong: %v allocs per round trip, want at most 1", blocked)
	}
}

// TestWatchdogNoStaleExpiry drives the rank's reused watchdog through
// both of its endings — the expiry is received, or a message wins while
// the timer fires unread — and requires that the next blocked receive
// waits for its own deadline, never for a leftover one.
func TestWatchdogNoStaleExpiry(t *testing.T) {
	tr := NewChanTransport(1)
	defer tr.Close()
	sendAfter := func(d time.Duration) {
		time.AfterFunc(d, func() { tr.Send(Message{To: 0, Tag: 1}) })
	}
	if _, err := recvAny(tr, 0, time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("empty inbox: err = %v, want ErrTimeout", err)
	}
	for i := 0; i < 40; i++ {
		// The message and the expiry race; whichever loses must leave
		// nothing behind.
		sendAfter(500 * time.Microsecond)
		if _, err := recvAny(tr, 0, 500*time.Microsecond); err != nil {
			if !errors.Is(err, ErrTimeout) {
				t.Fatal(err)
			}
			if _, err := recvAny(tr, 0, 5*time.Second); err != nil {
				t.Fatalf("round %d: collecting the late message: %v", i, err)
			}
		}
		sendAfter(2 * time.Millisecond)
		start := time.Now()
		if _, err := recvAny(tr, 0, 5*time.Second); err != nil {
			t.Fatalf("round %d: receive after %v: %v (stale expiry?)", i, time.Since(start), err)
		}
	}
}

// TestChanRecvConcurrentSameRank has several goroutines block on one
// rank's inbox at once, as concurrent sessions may: only one can hold
// the inbox's spare waiter, the others must still time out or deliver
// correctly on timers of their own.
func TestChanRecvConcurrentSameRank(t *testing.T) {
	const receivers = 4
	tr := NewChanTransport(1)
	defer tr.Close()
	var wg sync.WaitGroup
	errs := make([]error, receivers)
	for i := 0; i < receivers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				if _, err := recvAny(tr, 0, 5*time.Second); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	for i := 0; i < receivers*20; i++ {
		if err := tr.Send(Message{To: 0, Tag: i}); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			runtime.Gosched()
		}
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if _, err := recvAny(tr, 0, time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("drained inbox: err = %v, want ErrTimeout", err)
	}
}

// BenchmarkChanPingPong is the message layer's in-package benchmark:
// rank 0 sends to rank 1 and blocks for the answer, so every message
// pays one goroutine hand-off, as in a halo sweep. floor moves empty
// messages — the fixed cost per message; pooled8 adds what a halo
// message adds: a pooled 8-word payload packed, copied out and released.
func BenchmarkChanPingPong(b *testing.B) {
	b.Run("floor", func(b *testing.B) { benchPingPong(b, 0) })
	b.Run("pooled8", func(b *testing.B) { benchPingPong(b, 8) })
}

func benchPingPong(b *testing.B, words int) {
	m, err := New(2)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	tag := m.AllocTags(1)
	var sink float64
	// One leg: send `words` to peer, then receive as many back.
	leg := func(pr *Proc, peer int, first bool) error {
		send := func() error {
			if words == 0 {
				return pr.Send(peer, tag, [4]int64{}, nil, nil)
			}
			buf := GetBuf(words)[:words]
			for i := range buf {
				buf[i] = float64(i)
			}
			return pr.SendBuf(peer, tag, [4]int64{}, buf, true, nil)
		}
		recv := func() error {
			msg, err := pr.RecvFrom(peer, tag)
			if err != nil {
				return err
			}
			for _, v := range msg.Data {
				sink += v
			}
			ReleaseMessage(&msg)
			return nil
		}
		if first {
			if err := send(); err != nil {
				return err
			}
			return recv()
		}
		if err := recv(); err != nil {
			return err
		}
		return send()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	err = m.Run(func(pr *Proc) error {
		for i := 0; i < b.N; i++ {
			if err := leg(pr, 1-pr.Rank, pr.Rank == 0); err != nil {
				return err
			}
		}
		return nil
	})
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if err != nil {
		b.Fatal(err)
	}
	msgs := float64(2 * b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/msgs, "allocs/msg")
}
