package machine

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fingerprint gives every (session, round, word) its own value so a
// recycled-while-live buffer shows up as torn payload data, not just as
// a race report.
func fingerprint(session, round, word int) float64 {
	return float64(session*1_000_000 + round*1_000 + word)
}

// TestBufPoolOwnershipConcurrentSessions drives the full ownership
// protocol — GetBuf, fill, SendBuf(pooled), decode, ReleaseMessage —
// from several concurrent sessions sharing one machine, the way
// dist.Session.DistributeAll runs concurrent plans. Run under -race:
// if a release ever handed a live payload back to the pool (released
// while still in flight, or released twice), the next GetBuf would give
// two goroutines the same backing array and the detector flags the
// unsynchronised write/read; the fingerprint check catches the same bug
// as torn data even without -race.
func TestBufPoolOwnershipConcurrentSessions(t *testing.T) {
	const (
		sessions = 6
		rounds   = 50
		words    = 64
	)
	m, err := New(2, WithRecvTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for s := 0; s < sessions; s++ {
		base := m.AllocTags(1)
		wg.Add(1)
		go func(s, base int) {
			defer wg.Done()
			errs[s] = m.Run(func(p *Proc) error {
				if p.Rank == 0 {
					for r := 0; r < rounds; r++ {
						buf := GetBuf(words)
						if len(buf) != 0 {
							return fmt.Errorf("session %d: GetBuf returned len %d, want 0", s, len(buf))
						}
						for w := 0; w < words; w++ {
							buf = append(buf, fingerprint(s, r, w))
						}
						// Ownership transfers here; rank 0 must not touch buf again.
						if err := p.SendBuf(1, base, [4]int64{int64(s), int64(r)}, buf, true, nil); err != nil {
							return err
						}
					}
					return nil
				}
				for r := 0; r < rounds; r++ {
					msg, err := p.RecvFrom(0, base)
					if err != nil {
						return err
					}
					if msg.Meta[0] != int64(s) || msg.Meta[1] != int64(r) {
						return fmt.Errorf("session %d round %d: got frame meta %v", s, r, msg.Meta)
					}
					if len(msg.Data) != words {
						return fmt.Errorf("session %d round %d: payload %d words, want %d", s, r, len(msg.Data), words)
					}
					for w, v := range msg.Data {
						if v != fingerprint(s, r, w) {
							return fmt.Errorf("session %d round %d word %d: %v (payload recycled while live?)", s, r, w, v)
						}
					}
					ReleaseMessage(&msg)
					if msg.Data != nil || msg.Pooled {
						return fmt.Errorf("session %d: ReleaseMessage left Data=%v Pooled=%v", s, msg.Data, msg.Pooled)
					}
				}
				return nil
			})
		}(s, base)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", s, err)
		}
	}
}

// TestBufPoolGetPutRace hammers GetBuf/PutBuf directly from many
// goroutines. Correct pool handoffs are synchronisation points, so
// under -race any two goroutines sharing a live backing array are
// reported; the read-back check also catches it as data corruption.
func TestBufPoolGetPutRace(t *testing.T) {
	const (
		workers = 8
		rounds  = 200
	)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := 16 + (g+r)%48
				buf := GetBuf(n)
				if len(buf) != 0 || cap(buf) < n {
					errs[g] = fmt.Errorf("GetBuf(%d) = len %d cap %d", n, len(buf), cap(buf))
					return
				}
				for w := 0; w < n; w++ {
					buf = append(buf, fingerprint(g, r, w))
				}
				for w := 0; w < n; w++ {
					if buf[w] != fingerprint(g, r, w) {
						errs[g] = fmt.Errorf("worker %d round %d word %d torn: %v", g, r, w, buf[w])
						return
					}
				}
				PutBuf(buf)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", g, err)
		}
	}
}

// TestReleaseMessageNonPooled pins that unpooled payloads are never
// recycled: ReleaseMessage must drop the reference without feeding the
// pool, and a second call must be a no-op.
func TestReleaseMessageNonPooled(t *testing.T) {
	msg := Message{Data: []float64{1, 2, 3}}
	ReleaseMessage(&msg)
	if msg.Data != nil {
		t.Errorf("Data not cleared: %v", msg.Data)
	}
	ReleaseMessage(&msg) // double release of an already-drained message
	if msg.Data != nil || msg.Pooled {
		t.Errorf("second release mutated message: %+v", msg)
	}
}

// TestSendBufStripsPooledOverRetainingTransport pins the guard that
// keeps retransmission-capable transports safe: the reliability layer
// keeps sent payloads for replay, so the pooled mark must not survive
// to the receiver — otherwise ReleaseMessage would recycle a buffer a
// retransmission could still read.
func TestSendBufStripsPooledOverRetainingTransport(t *testing.T) {
	rel := NewReliableTransport(NewChanTransport(2), RetryPolicy{MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond})
	m, err := New(2, WithTransport(rel), WithRecvTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.retains {
		t.Fatal("machine over ReliableTransport should mark retains")
	}
	err = m.Run(func(p *Proc) error {
		if p.Rank == 0 {
			buf := append(GetBuf(4), 1, 2, 3, 4)
			return p.SendBuf(1, 7, [4]int64{}, buf, true, nil)
		}
		msg, err := p.RecvFrom(0, 7)
		if err != nil {
			return err
		}
		if msg.Pooled {
			return fmt.Errorf("pooled mark survived a retaining transport")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
