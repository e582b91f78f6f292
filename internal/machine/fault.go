package machine

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// FaultTransport wraps another transport and injects failures for
// testing: dropping, corrupting, duplicating, reordering or delaying
// messages. Drop/corrupt/duplicate/reorder come in *transient* form
// (the next n data messages) so a reliability layer can recover;
// CorruptPayloads is the permanent form that must surface as a
// validation error. Control traffic (negative tags) always passes.
type FaultTransport struct {
	Inner Transport

	mu          sync.Mutex
	dropNext    int  // drop the next n data messages
	corruptNext int  // flip a random payload bit in the next n data messages
	dupNext     int  // deliver the next n data messages twice
	reorderNext int  // hold the next n data messages behind their successor
	corrupt     bool // permanently NaN word 0 of every data message
	delay       time.Duration
	held        []Message // copies stashed by reorder injection (two if also duplicated)
	rng         *rand.Rand

	dropped    int
	corruptedN int
	duplicated int
	reordered  int
}

// FaultStats is the full injection account.
type FaultStats struct {
	Dropped    int // messages silently discarded by DropNext
	Corrupted  int // messages damaged by CorruptNext or CorruptPayloads
	Duplicated int // extra copies delivered by DuplicateNext
	Reordered  int // messages delivered behind a later one by ReorderNext
}

// NewFaultTransport wraps inner.
func NewFaultTransport(inner Transport) *FaultTransport {
	return &FaultTransport{
		Inner: inner,
		rng:   rand.New(rand.NewSource(1)),
	}
}

// DropNext arranges for the next n non-control messages to vanish.
func (t *FaultTransport) DropNext(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropNext = n
}

// CorruptNext arranges for the next n non-control messages to have one
// random payload word bit-flipped (transient corruption — later
// retransmissions of the same data pass clean).
func (t *FaultTransport) CorruptNext(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.corruptNext = n
}

// DuplicateNext arranges for the next n non-control messages to be
// delivered twice, exercising receiver-side dedup.
func (t *FaultTransport) DuplicateNext(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dupNext = n
}

// ReorderNext arranges for the next n non-control messages to be held
// back and delivered after their successor, exercising sequence-number
// reordering. A held message is released by the next data send (or on
// Close, so nothing is lost when traffic stops).
func (t *FaultTransport) ReorderNext(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reorderNext = n
}

// CorruptPayloads turns permanent word corruption on or off: the first
// payload word of every non-control message is replaced with NaN. This
// is the unrecoverable mode; use CorruptNext for transient damage.
func (t *FaultTransport) CorruptPayloads(on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.corrupt = on
}

// Delay adds a fixed latency before every send.
func (t *FaultTransport) Delay(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.delay = d
}

// FullStats reports every injection counter.
func (t *FaultTransport) FullStats() FaultStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return FaultStats{
		Dropped:    t.dropped,
		Corrupted:  t.corruptedN,
		Duplicated: t.duplicated,
		Reordered:  t.reordered,
	}
}

// Ranks implements Transport.
func (t *FaultTransport) Ranks() int { return t.Inner.Ranks() }

// Send implements Transport with fault injection. Control messages
// (negative tags) pass undamaged so collectives still terminate.
func (t *FaultTransport) Send(msg Message) error {
	t.mu.Lock()
	delay := t.delay
	drop, dup := false, false
	var release []Message
	if msg.Tag >= 0 {
		switch {
		case t.dropNext > 0:
			t.dropNext--
			t.dropped++
			drop = true
		case t.corruptNext > 0:
			t.corruptNext--
			t.corruptedN++
			msg.Data = flipRandomBit(msg.Data, t.rng)
		case t.corrupt && len(msg.Data) > 0:
			t.corruptedN++
			data := make([]float64, len(msg.Data))
			copy(data, msg.Data)
			data[0] = math.NaN()
			msg.Data = data
		case t.dupNext > 0:
			t.dupNext--
			t.duplicated++
			dup = true
		}
		if !drop {
			if t.held != nil {
				// A held message goes out after the current one.
				release = t.held
				t.held = nil
			} else if t.reorderNext > 0 {
				t.reorderNext--
				t.reordered++
				t.held = append(t.held, msg)
				if dup {
					t.held = append(t.held, msg)
				}
				t.mu.Unlock()
				return nil // delivered later, behind its successor
			}
		}
	}
	t.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	if drop {
		return nil // swallowed: the receiver's watchdog or ACK timer will notice
	}
	if err := t.Inner.Send(msg); err != nil {
		return err
	}
	if dup {
		if err := t.Inner.Send(msg); err != nil {
			return err
		}
	}
	for _, held := range release {
		if err := t.Inner.Send(held); err != nil {
			return err
		}
	}
	return nil
}

// flipRandomBit returns a copy of data with one random bit of one
// random word inverted — the "random payload word" transient corruption
// a checksum must catch regardless of position.
func flipRandomBit(data []float64, rng *rand.Rand) []float64 {
	if len(data) == 0 {
		return data
	}
	out := make([]float64, len(data))
	copy(out, data)
	i := rng.Intn(len(out))
	bit := uint(rng.Intn(64))
	out[i] = math.Float64frombits(math.Float64bits(out[i]) ^ (1 << bit))
	return out
}

func (t *FaultTransport) inbox(rank int) *msgQueue { return t.Inner.inbox(rank) }

// Close implements Transport, first releasing any reorder-held message
// so it is accounted for.
func (t *FaultTransport) Close() error {
	t.mu.Lock()
	release := t.held
	t.held = nil
	t.mu.Unlock()
	for _, held := range release {
		t.Inner.Send(held) // best effort; transport may already be closing
	}
	return t.Inner.Close()
}

var _ Transport = (*FaultTransport)(nil)

// String describes the injected faults.
func (t *FaultTransport) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprintf("fault{dropNext:%d corruptNext:%d dupNext:%d reorderNext:%d corrupt:%v delay:%v}",
		t.dropNext, t.corruptNext, t.dupNext, t.reorderNext, t.corrupt, t.delay)
}
