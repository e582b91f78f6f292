package machine

import (
	"errors"
	"testing"
	"time"
)

// fastPolicy keeps retry waits short so fault tests finish quickly.
var fastPolicy = RetryPolicy{MaxRetries: 6, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond}

func sendRecv(t *testing.T, rt *ReliableTransport, from, to int, n int) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			msg := Message{From: from, To: to, Tag: 7, Meta: [4]int64{int64(i)}, Data: []float64{float64(i), float64(i) * 2}}
			if err := rt.Send(msg); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		msg, err := recvAny(rt, to, 2*time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if msg.Meta[0] != int64(i) {
			t.Fatalf("message %d arrived out of order: meta %d", i, msg.Meta[0])
		}
		if len(msg.Data) != 2 || msg.Data[0] != float64(i) || msg.Data[1] != float64(i)*2 {
			t.Fatalf("message %d payload damaged: %v", i, msg.Data)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("send: %v", err)
	}
}

func TestReliableDeliversThroughDrops(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(2))
	rt := NewReliableTransport(ft, fastPolicy)
	defer rt.Close()

	ft.DropNext(3)
	sendRecv(t, rt, 0, 1, 5)

	st := rt.Stats()
	if st.Retransmits < 3 {
		t.Errorf("retransmits = %d, want >= 3 (one per dropped frame)", st.Retransmits)
	}
	if st.Failed != 0 {
		t.Errorf("failed = %d, want 0", st.Failed)
	}
	if d := ft.FullStats().Dropped; d != 3 {
		t.Errorf("dropped = %d, want 3", d)
	}
}

func TestReliableNacksCorruptFrames(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(2))
	rt := NewReliableTransport(ft, fastPolicy)
	defer rt.Close()

	ft.CorruptNext(2)
	sendRecv(t, rt, 0, 1, 4)

	st := rt.Stats()
	if st.Corrupt < 2 {
		t.Errorf("corrupt = %d, want >= 2", st.Corrupt)
	}
	if st.Nacks < 2 {
		t.Errorf("nacks = %d, want >= 2 (each damaged frame rejected)", st.Nacks)
	}
	if st.Retransmits < 2 {
		t.Errorf("retransmits = %d, want >= 2", st.Retransmits)
	}
}

func TestReliableExactlyOnceUnderDuplicates(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(2))
	rt := NewReliableTransport(ft, fastPolicy)
	defer rt.Close()

	ft.DuplicateNext(3)
	sendRecv(t, rt, 0, 1, 5)

	// The extra copies must have been absorbed, not queued: no further
	// message may be pending.
	if msg, err := recvAny(rt, 1, 50*time.Millisecond); err == nil {
		t.Fatalf("duplicate leaked through dedup: %+v", msg)
	}
	if st := rt.Stats(); st.Duplicates < 3 {
		t.Errorf("duplicates = %d, want >= 3", st.Duplicates)
	}
}

func TestReliableRestoresOrderUnderReordering(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(2))
	rt := NewReliableTransport(ft, fastPolicy)
	defer rt.Close()

	ft.ReorderNext(2)
	// sendRecv asserts in-order arrival by Meta[0]. A link keeps one
	// frame unacknowledged, so the next Send waits and the held frame is
	// released by its own retransmission: recovery shows up as
	// duplicates absorbed, not as a sequence gap.
	sendRecv(t, rt, 0, 1, 6)

	if st := ft.FullStats(); st.Reordered < 1 {
		t.Errorf("fault reordered = %d, want >= 1", st.Reordered)
	}
}

func TestReliableSelfSendDoesNotDeadlock(t *testing.T) {
	// Rank 0 sending to itself must not block on its own ACK: the pump
	// acknowledges independently of the application Recv loop.
	rt := NewReliableTransport(NewChanTransport(1), fastPolicy)
	defer rt.Close()
	sendRecv(t, rt, 0, 0, 3)
}

// TestReliableGivesUpOnDeadRank: a link that loses every frame, so the
// peer is unreachable, spends the whole retry budget and fails. The
// send itself does not wait for its ACK; the sender's flush reports it.
func TestReliableGivesUpOnDeadRank(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(2))
	rt := NewReliableTransport(ft, RetryPolicy{MaxRetries: 2, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond})
	defer rt.Close()

	ft.DropNext(1 << 20) // the link loses everything
	if err := rt.Send(Message{From: 0, To: 1, Tag: 3, Data: []float64{1}}); err != nil {
		t.Fatalf("send: %v", err)
	}
	err := rt.flush(0)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("send over a lost link: err = %v, want ErrRetriesExhausted", err)
	}
	st := rt.Stats()
	if st.Failed != 1 {
		t.Errorf("failed = %d, want 1", st.Failed)
	}
	if st.Retransmits != 2 {
		t.Errorf("retransmits = %d, want 2 (the full budget)", st.Retransmits)
	}
}

func TestReliableControlTrafficBypasses(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(2))
	rt := NewReliableTransport(ft, fastPolicy)
	defer rt.Close()

	// Negative tags pass straight through, un-sequenced and unframed.
	if err := rt.Send(Message{From: 0, To: 1, Tag: -2, Data: []float64{42}}); err != nil {
		t.Fatal(err)
	}
	msg, err := recvAny(rt, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Tag != -2 || len(msg.Data) != 1 || msg.Data[0] != 42 {
		t.Fatalf("control message altered: %+v", msg)
	}
	if st := rt.Stats(); st.DataSent != 0 {
		t.Errorf("control send counted as data: DataSent = %d", st.DataSent)
	}
}

func TestReliableOverTCP(t *testing.T) {
	inner, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	ft := NewFaultTransport(inner)
	rt := NewReliableTransport(ft, fastPolicy)
	defer rt.Close()

	ft.DropNext(2)
	ft.CorruptNext(1)
	sendRecv(t, rt, 0, 1, 6)

	st := rt.Stats()
	if st.Retransmits < 3 {
		t.Errorf("retransmits = %d, want >= 3 over TCP", st.Retransmits)
	}
	if st.Failed != 0 {
		t.Errorf("failed = %d, want 0", st.Failed)
	}
}

func TestFaultTransportTransientModes(t *testing.T) {
	// The injection modes themselves, without the reliability layer.
	ct := NewChanTransport(2)
	ft := NewFaultTransport(ct)
	defer ft.Close()

	ft.DuplicateNext(1)
	if err := ft.Send(Message{From: 0, To: 1, Tag: 1, Data: []float64{5}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := recvAny(ft, 1, time.Second); err != nil {
			t.Fatalf("duplicate copy %d missing: %v", i, err)
		}
	}

	ft.ReorderNext(1)
	if err := ft.Send(Message{From: 0, To: 1, Tag: 1, Meta: [4]int64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := ft.Send(Message{From: 0, To: 1, Tag: 1, Meta: [4]int64{2}}); err != nil {
		t.Fatal(err)
	}
	first, _ := recvAny(ft, 1, time.Second)
	second, _ := recvAny(ft, 1, time.Second)
	if first.Meta[0] != 2 || second.Meta[0] != 1 {
		t.Errorf("reorder not applied: got %d then %d, want 2 then 1", first.Meta[0], second.Meta[0])
	}

	ft.CorruptNext(1)
	orig := []float64{1, 2, 3, 4}
	if err := ft.Send(Message{From: 0, To: 1, Tag: 1, Data: append([]float64(nil), orig...)}); err != nil {
		t.Fatal(err)
	}
	msg, err := recvAny(ft, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range orig {
		if msg.Data[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("transient corruption changed %d words, want exactly 1", diff)
	}

	st := ft.FullStats()
	if st.Duplicated != 1 || st.Reordered != 1 || st.Corrupted != 1 {
		t.Errorf("FullStats = %+v, want 1/1/1 dup/reorder/corrupt", st)
	}
}

// TestFaultDuplicateSurvivesReorder arms a duplicate and a reordering
// at once: the message picked for both is held back, and when released
// it must still go out twice, so every counted duplicate is delivered.
func TestFaultDuplicateSurvivesReorder(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(2))
	defer ft.Close()
	ft.DuplicateNext(1)
	ft.ReorderNext(1)
	const sent = 2
	for i := 0; i < sent; i++ {
		if err := ft.Send(Message{From: 0, To: 1, Tag: 1, Meta: [4]int64{int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	var order []int64
	for {
		msg, err := recvAny(ft, 1, 20*time.Millisecond)
		if err != nil {
			break
		}
		order = append(order, msg.Meta[0])
	}
	st := ft.FullStats()
	if st.Duplicated != 1 || st.Reordered != 1 {
		t.Fatalf("FullStats = %+v, want one duplicate and one reordering", st)
	}
	if len(order) != sent+st.Duplicated {
		t.Fatalf("delivered %v: %d messages, want %d sent + %d duplicated", order, len(order), sent, st.Duplicated)
	}
	if order[0] != 1 || order[1] != 0 || order[2] != 0 {
		t.Errorf("delivery order %v, want [1 0 0]", order)
	}
}

// TestReliableCloseIsPrompt pins the Close fast path: closing the inner
// transport fails every inner inbox, which wakes each pump at once, so
// tearing down a reliable transport costs microseconds, not a 50ms
// stall per machine. The regression this pins made every reliable run
// ~2000x slower to tear down than to execute, which a differential
// sweep over thousands of machines turns into hours.
func TestReliableCloseIsPrompt(t *testing.T) {
	const machines = 10
	start := time.Now()
	for i := 0; i < machines; i++ {
		rt := NewReliableTransport(NewChanTransport(3), fastPolicy)
		sendRecv(t, rt, 0, 1, 1)
		if err := rt.Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	// A Close that stalled 50ms would take the loop to >= 500ms; half
	// that still leaves ~50x headroom over the fixed path for a loaded
	// CI host.
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("%d reliable transports took %v to close; Close is stalling on the pump poll", machines, elapsed)
	}
}
