package machine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"
)

// frameAllocBudget is what parsing one frame may allocate on top of
// four times its own length (a payload that doubles as it arrives
// allocates under that): the eager payload buffer and a chunk, with room.
const frameAllocBudget = 1 << 20

// readFrameMeasured parses one frame from raw and reports the heap bytes
// the parse allocated and the number of bytes it consumed.
func readFrameMeasured(raw []byte) (msg Message, alloc uint64, used int, err error) {
	r := bytes.NewReader(raw)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	msg, err = readFrame(r)
	runtime.ReadMemStats(&after)
	return msg, after.TotalAlloc - before.TotalAlloc, len(raw) - r.Len(), err
}

// claimedFrame is a frame header claiming words payload words, followed
// by only sent of them.
func claimedFrame(words int64, sent int) []byte {
	raw := make([]byte, 64+8*sent)
	binary.LittleEndian.PutUint64(raw[8:], 1) // to rank 1
	binary.LittleEndian.PutUint64(raw[56:], uint64(words))
	return raw
}

// TestReadFrameClaimedLengthIsNotAllocated sends headers whose length
// word promises far more payload than follows. The parse must fail
// having allocated for the bytes that arrived, not for the claim: a
// 64-byte header claiming 2^28-1 words once cost 4 GiB.
func TestReadFrameClaimedLengthIsNotAllocated(t *testing.T) {
	for _, c := range []struct {
		claim int64
		sent  int
	}{
		{maxFrameWords - 1, 0},
		{maxFrameWords, 3},
		{maxFrameWords, frameEagerWords + frameChunkWords + 1},
		{frameEagerWords * 4, frameEagerWords * 2},
	} {
		raw := claimedFrame(c.claim, c.sent)
		_, alloc, _, err := readFrameMeasured(raw)
		if err == nil {
			t.Errorf("claim %d with %d words sent: accepted", c.claim, c.sent)
		}
		if budget := uint64(frameAllocBudget + 4*len(raw)); alloc > budget {
			t.Errorf("claim %d with %d words sent: allocated %d bytes, budget %d", c.claim, c.sent, alloc, budget)
		}
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader: it must
// fail or parse within the allocation budget, and a frame that parses
// re-encodes to exactly the bytes it was read from.
func FuzzReadFrame(f *testing.F) {
	// The three TestReadFrame* cases: garbage, a truncated payload, a
	// huge claimed length.
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 63, 64, 150} {
		garbage := make([]byte, n)
		rng.Read(garbage)
		f.Add(garbage)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, Message{From: 0, To: 1, Tag: 1, Meta: [4]int64{1, -2, 3, 4}, Data: []float64{1, 2, 3}}); err != nil {
		f.Fatal(err)
	}
	whole := buf.Bytes()
	f.Add(whole)
	f.Add(whole[:len(whole)-7])
	f.Add(claimedFrame(1<<62, 0))
	f.Add(claimedFrame(maxFrameWords-1, 2))
	f.Fuzz(func(t *testing.T, raw []byte) {
		msg, alloc, used, err := readFrameMeasured(raw)
		if budget := uint64(frameAllocBudget + 4*len(raw)); alloc > budget {
			t.Fatalf("%d-byte input allocated %d bytes, budget %d", len(raw), alloc, budget)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeFrame(&out, msg); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), raw[:used]) {
			t.Fatalf("frame re-encodes to %d bytes that differ from the %d it was read from", out.Len(), used)
		}
		ReleaseMessage(&msg)
	})
}

// TestFrameAllocatesNothing pins both ends of a frame: writing one onto
// a buffer and reading it back into a pooled payload that the receiver
// releases cost no allocation of their own.
func TestFrameAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	var wire bytes.Buffer
	wire.Grow(1 << 16)
	r := bytes.NewReader(nil)
	msg := Message{From: 2, To: 5, Tag: 9, Data: make([]float64, 3*frameChunkWords+7)}
	if allocs := testing.AllocsPerRun(50, func() {
		wire.Reset()
		if err := writeFrame(&wire, msg); err != nil {
			t.Fatal(err)
		}
		r.Reset(wire.Bytes())
		got, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseMessage(&got)
	}); allocs != 0 {
		t.Errorf("frame round trip: %v allocs, want 0", allocs)
	}
}

// TestTCPOneRankCannotStallAnother floods an idle rank: rank 1 never
// receives the 200 frames rank 0 sends it, and a frame from rank 3 to
// rank 2 must still arrive at once. With one connection for every rank,
// a read loop that waited for room in rank 1's inbox would hold it.
func TestTCPOneRankCannotStallAnother(t *testing.T) {
	tr, err := NewTCPTransport(4)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < 200; i++ {
		if err := tr.Send(Message{From: 0, To: 1, Tag: 1, Meta: [4]int64{int64(i)}, Data: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Send(Message{From: 3, To: 2, Tag: 2, Data: []float64{42}}); err != nil {
		t.Fatal(err)
	}
	msg, err := recvAny(tr, 2, time.Second)
	if err != nil {
		t.Fatalf("rank 2 stalled behind rank 1's backlog: %v", err)
	}
	if msg.From != 3 || msg.Tag != 2 || len(msg.Data) != 1 || msg.Data[0] != 42 {
		t.Fatalf("rank 2 got %+v", msg)
	}
}

// TestTCPHandshakeIgnoresStrangers connects two other clients to the
// listener before the transport dials it, one silent and one sending
// eight bytes of its own. The handshake must pass both by without
// waiting on either, and pair the two ends it made.
func TestTCPHandshakeIgnoresStrangers(t *testing.T) {
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, hello := range []string{"", "12345678"} {
		s, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Write([]byte(hello)); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	conn, hub, err := dialAccept(ln)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	defer hub.Close()
	if d := time.Since(start); d > helloWait/5 {
		t.Errorf("handshake took %v behind two strangers", d)
	}
	if _, err := conn.Write([]byte{7}); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	hub.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := io.ReadFull(hub, b[:]); err != nil || b[0] != 7 {
		t.Fatalf("accepted end read %v, %v; want the dialed end's byte 7", b, err)
	}
}

// TestAllToAllPairOrder has 16 ranks send to every rank at once, over
// tcp and over the reliability layer on tcp: every pair's messages must
// arrive intact and in send order. Run it under -race.
func TestAllToAllPairOrder(t *testing.T) {
	const p, rounds = 16, 12
	for _, reliable := range []bool{false, true} {
		name := map[bool]string{false: "tcp", true: "reliable-tcp"}[reliable]
		t.Run(name, func(t *testing.T) {
			inner, err := NewTCPTransport(p)
			if err != nil {
				t.Fatal(err)
			}
			var tr Transport = inner
			if reliable {
				// Nothing is lost here; the long ACK wait keeps a loaded
				// -race host from spending the retry budget.
				tr = NewReliableTransport(inner, RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second})
			}
			m, err := New(p, WithTransport(tr), WithRecvTimeout(30*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			err = m.Run(func(pr *Proc) error {
				for i := 0; i < rounds; i++ {
					for to := 0; to < p; to++ {
						data := []float64{float64(pr.Rank), float64(i), float64(to)}
						if err := pr.Send(to, 1, [4]int64{int64(i)}, data, nil); err != nil {
							return err
						}
					}
				}
				next := make([]int64, p)
				for k := 0; k < p*rounds; k++ {
					msg, err := pr.RecvFrom(-1, 1)
					if err != nil {
						return err
					}
					from, seq := msg.From, msg.Meta[0]
					if seq != next[from] {
						return fmt.Errorf("rank %d: message %d from rank %d arrived where %d was due", pr.Rank, seq, from, next[from])
					}
					if len(msg.Data) != 3 || msg.Data[0] != float64(from) || msg.Data[1] != float64(seq) || msg.Data[2] != float64(pr.Rank) {
						return fmt.Errorf("rank %d: message %d from rank %d carries %v", pr.Rank, seq, from, msg.Data)
					}
					next[from]++
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQueueGrowsWithBacklog keeps one message waiting through 10,000
// pushes, so the queue never runs empty: its array must stay the size
// of the backlog, in FIFO order, and hold no taken payload.
func TestQueueGrowsWithBacklog(t *testing.T) {
	var q msgQueue
	q.push(Message{Tag: 0, Data: []float64{0}})
	for i := 1; i <= 10000; i++ {
		q.push(Message{Tag: i, Data: []float64{float64(i)}})
		msg, err := q.recv(nil, want{}, time.Second)
		if err != nil || msg.Tag != i-1 {
			t.Fatalf("pop %d: tag %d, %v", i, msg.Tag, err)
		}
	}
	if c := cap(q.items); c > 8 {
		t.Errorf("a backlog of one grew the queue to %d slots", c)
	}
	for i, slot := range q.items[:cap(q.items)] {
		if i >= q.head && i < len(q.items) {
			continue
		}
		if slot.Data != nil {
			t.Errorf("slot %d still references taken payload %v", i, slot.Data)
		}
	}
}

// TestChanCloseWakesBlockedRecv: a receive blocked on an empty inbox
// returns when the transport closes, not when its timeout runs out.
func TestChanCloseWakesBlockedRecv(t *testing.T) {
	tr := NewChanTransport(1)
	done := make(chan error, 1)
	go func() {
		_, err := recvAny(tr, 0, time.Minute)
		done <- err
	}()
	tr.Close()
	select {
	case err := <-done:
		if !errors.Is(err, errClosed) {
			t.Fatalf("Recv after Close: %v, want errClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still blocked 5s after Close")
	}
}

// refRelChecksum is relChecksum as it was first written — one hash
// write per 8-byte word — kept as the reference the block form must
// reproduce bit for bit.
func refRelChecksum(msg Message, seq uint64, payload []float64) uint32 {
	h := crc32.New(crcTable)
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(int64(msg.From)))
	put(uint64(int64(msg.To)))
	put(uint64(int64(msg.Tag)))
	for _, m := range msg.Meta {
		put(uint64(m))
	}
	put(seq)
	for _, w := range payload {
		put(math.Float64bits(w))
	}
	return h.Sum32()
}

func TestRelChecksumMatchesPerWord(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, frameChunkWords - 9, frameChunkWords - 8, frameChunkWords - 7,
		frameChunkWords, frameChunkWords + 1, 3 * frameChunkWords, 13200} {
		for trial := 0; trial < 4; trial++ {
			msg := Message{From: rng.Intn(64) - 8, To: rng.Intn(64), Tag: rng.Intn(1<<20) - 200,
				Meta: [4]int64{rng.Int63(), -rng.Int63(), int64(rng.Intn(9)), 0}}
			payload := make([]float64, n)
			for i := range payload {
				payload[i] = math.Float64frombits(rng.Uint64())
			}
			seq := rng.Uint64()
			if got, want := relChecksum(msg, seq, payload), refRelChecksum(msg, seq, payload); got != want {
				t.Fatalf("%d words, trial %d: checksum %#x, per-word reference %#x", n, trial, got, want)
			}
		}
	}
}

// BenchmarkRelChecksum prices the reliability layer's CRC32C over one
// dist_wire operation's 13,200 payload words, in the block form the
// layer runs and in the per-word reference form.
func BenchmarkRelChecksum(b *testing.B) {
	payload := make([]float64, 13200)
	for i := range payload {
		payload[i] = float64(i) * 0.5
	}
	msg := Message{From: 0, To: 5, Tag: 3}
	for _, c := range []struct {
		name string
		sum  func(Message, uint64, []float64) uint32
	}{{"block", relChecksum}, {"per-word", refRelChecksum}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.sum(msg, uint64(i), payload)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(payload)), "ns/word")
		})
	}
}
