package machine

import (
	"fmt"
	"runtime"
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
// from several concurrent sessions over the process-wide pool, in two
// layouts: all sessions on one machine, each on its own tag range, and
// each session on a machine of its own, the way the daemon runs
// concurrent jobs on pooled machines. Run under -race: if a release
// ever handed a live payload back to the pool (released while still in
// flight, or released twice), the next GetBuf would give two goroutines
// the same backing array and the detector flags the unsynchronised
// write/read; the fingerprint check catches the same bug as torn data
// even without -race.
func TestBufPoolOwnershipConcurrentSessions(t *testing.T) {
	const (
		sessions = 6
		rounds   = 50
		words    = 64
	)
	session := func(m *Machine, s, base int) error {
		return m.Run(func(p *Proc) error {
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
	}
	for _, shared := range []bool{true, false} {
		name := "machine-per-session"
		if shared {
			name = "one-machine"
		}
		t.Run(name, func(t *testing.T) {
			newMachine := func() *Machine {
				m, err := New(2, WithRecvTimeout(10*time.Second))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { m.Close() })
				return m
			}
			var one *Machine
			if shared {
				one = newMachine()
			}
			var wg sync.WaitGroup
			errs := make([]error, sessions)
			for s := 0; s < sessions; s++ {
				m := one
				if m == nil {
					m = newMachine()
				}
				base := m.AllocTags(1)
				wg.Add(1)
				go func(s, base int) {
					defer wg.Done()
					errs[s] = session(m, s, base)
				}(s, base)
			}
			wg.Wait()
			for s, err := range errs {
				if err != nil {
					t.Errorf("session %d: %v", s, err)
				}
			}
		})
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
// keeps payload-retaining transports safe: fault injection may deliver
// a sent payload twice, so the pooled mark must not survive to the
// receiver — otherwise ReleaseMessage would recycle a buffer the
// duplicate could still read.
func TestSendBufStripsPooledOverRetainingTransport(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(2))
	m, err := New(2, WithTransport(ft), WithRecvTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.retains {
		t.Fatal("machine over FaultTransport should mark retains")
	}
	ft.DuplicateNext(1)
	err = m.Run(func(p *Proc) error {
		if p.Rank == 0 {
			buf := append(GetBuf(4), 1, 2, 3, 4)
			return p.SendBuf(1, 7, [4]int64{}, buf, true, nil)
		}
		for copy := 0; copy < 2; copy++ {
			msg, err := p.RecvFrom(0, 7)
			if err != nil {
				return err
			}
			if msg.Pooled {
				return fmt.Errorf("pooled mark survived a retaining transport")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReliablePooledSendReturnsBuffer: the reliability layer copies a
// payload into a frame of its own, so a pooled send hands the caller's
// buffer straight back to the pool — reused by the next GetBuf — and
// the receiver still gets every payload intact, once, through
// duplicated and damaged frames.
func TestReliablePooledSendReturnsBuffer(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(2))
	rt := NewReliableTransport(ft, fastPolicy)
	defer rt.Close()
	if transportRetainsPayloads(rt) {
		t.Fatal("the reliability layer copies payloads; it must not strip the pooled mark")
	}
	// One P: the pool hands back the buffer this goroutine just put.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ft.DuplicateNext(2)
	ft.CorruptNext(2)
	const n, words = 6, 16
	for i := 0; i < n; i++ {
		buf := GetBuf(words)
		for w := 0; w < words; w++ {
			buf = append(buf, fingerprint(0, i, w))
		}
		if err := rt.Send(Message{From: 0, To: 1, Tag: 7, Meta: [4]int64{int64(i)}, Data: buf, Pooled: true}); err != nil {
			t.Fatal(err)
		}
		again := GetBuf(words)
		// The race detector drops a random share of pool puts.
		if !raceEnabled && &again[:1][0] != &buf[0] {
			t.Errorf("send %d: the caller's pooled buffer did not come back to the pool", i)
		}
		// Overwrite it: the frame on the wire must not depend on it.
		again = again[:words]
		for w := range again {
			again[w] = -1
		}
		PutBuf(again)
	}
	for i := 0; i < n; i++ {
		msg, err := recvAny(rt, 1, 2*time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if msg.Meta[0] != int64(i) || msg.Pooled || len(msg.Data) != words {
			t.Fatalf("recv %d: message %d, pooled %t, %d words", i, msg.Meta[0], msg.Pooled, len(msg.Data))
		}
		for w, v := range msg.Data {
			if v != fingerprint(0, i, w) {
				t.Fatalf("recv %d word %d: %v", i, w, v)
			}
		}
	}
	if msg, err := recvAny(rt, 1, 20*time.Millisecond); err == nil {
		t.Fatalf("a duplicate got through: %+v", msg)
	}
	if st := rt.Stats(); st.Corrupt < 2 || st.Duplicates < 2 {
		t.Errorf("stats %+v, want >= 2 corrupt frames and >= 2 duplicates", st)
	}
}

// TestReliableTCPDeliversWholeFrame: over TCP a reliable frame arrives
// in a pooled buffer, and the payload handed to the receiver must start
// where that frame does, with the reliability trailer after it. Then
// the buffer ReleaseMessage returns to the pool is the whole frame: its
// capacity equals the frame's, and no words are lost to the pool on
// each trip.
func TestReliableTCPDeliversWholeFrame(t *testing.T) {
	tcp, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewReliableTransport(tcp, fastPolicy)
	defer rt.Close()
	payload := []float64{1, 2, 3, 4, 5}
	if err := rt.Send(Message{From: 0, To: 1, Tag: 7, Meta: [4]int64{9}, Data: payload}); err != nil {
		t.Fatal(err)
	}
	msg, err := recvAny(rt, 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !msg.Pooled {
		t.Fatal("a TCP frame should arrive in a pooled buffer")
	}
	n := len(msg.Data)
	if cap(msg.Data) < n+relTrailerWords {
		t.Fatalf("payload of %d words has capacity %d: it does not start at its frame's start", n, cap(msg.Data))
	}
	frame := msg
	frame.Data = msg.Data[:n+relTrailerWords]
	got, seq, ok := decodeRel(frame)
	if !ok || seq != 0 || len(got) != len(payload) {
		t.Fatalf("the released buffer is not the frame: ok %t, seq %d, payload %v", ok, seq, got)
	}
	for i, v := range payload {
		if got[i] != v {
			t.Fatalf("payload %v, want %v", got, payload)
		}
	}
	ReleaseMessage(&msg)
}
