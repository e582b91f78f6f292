package dist

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// gateTransport blocks the second data send until the gate is closed,
// signalling on Blocked when the sender arrives — the deterministic way
// to catch a distribution genuinely mid-flight.
type gateTransport struct {
	machine.Transport
	mu      sync.Mutex
	sent    int
	Gate    chan struct{}
	Blocked chan struct{}
}

func (g *gateTransport) Send(msg machine.Message) error {
	g.mu.Lock()
	n := g.sent
	g.sent++
	g.mu.Unlock()
	if n == 1 {
		close(g.Blocked)
		<-g.Gate
	}
	return g.Transport.Send(msg)
}

// TestCancelMidDistribution cancels a run while the root is blocked in
// a send, and then reuses the same machine for a clean run — the
// pooled-machine contract: a cancelled job leaves the machine drainable
// and unpoisoned.
func TestCancelMidDistribution(t *testing.T) {
	const p = 4
	gt := &gateTransport{
		Transport: machine.NewChanTransport(p),
		Gate:      make(chan struct{}),
		Blocked:   make(chan struct{}),
	}
	m, err := machine.New(p, machine.WithTransport(gt))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	g := sparse.UniformExact(60, 60, 0.2, 7)
	part, err := partition.NewRow(60, 60, p)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := CodecByName("ED")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		// Workers 1 selects the sequential root loop: encode part k,
		// send part k — so after the gated send the next encode is the
		// first post-cancel step, deterministically.
		_, err := Run(m, Plan{Codec: codec, Global: g, Partition: part,
			Options: Options{Method: CRS, Workers: 1, Ctx: ctx}})
		errCh <- err
	}()

	select {
	case <-gt.Blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("root never reached the gated send")
	}
	cancel()
	close(gt.Gate)

	err = <-errCh
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error %v does not wrap context.Canceled", err)
	}

	// The machine must come back clean: drain the leaked frames of the
	// aborted run, then run the same plan to completion on the same
	// machine and verify it.
	dropped := m.Drain()
	t.Logf("drained %d stale frames after cancellation", dropped)
	res, err := Run(m, Plan{Codec: codec, Global: g, Partition: part,
		Options: Options{Method: CRS, Workers: 1}})
	if err != nil {
		t.Fatalf("machine poisoned by cancelled run: %v", err)
	}
	if err := Verify(g, part, res); err != nil {
		t.Fatalf("post-cancel reuse produced a wrong distribution: %v", err)
	}
}

// TestCancelBeforeStart: an already-cancelled context aborts before any
// part is encoded, and the machine stays reusable without a drain.
func TestCancelBeforeStart(t *testing.T) {
	m, err := machine.New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	g := sparse.UniformExact(40, 40, 0.2, 3)
	part, err := partition.NewRow(40, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := CodecByName("CFS")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Run(m, Plan{Codec: codec, Global: g, Partition: part,
		Options: Options{Method: CRS, Ctx: ctx}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := m.Drain(); n != 0 {
		t.Fatalf("pre-start cancellation leaked %d frames", n)
	}
	res, err := Run(m, Plan{Codec: codec, Global: g, Partition: part,
		Options: Options{Method: CRS}})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, part, res); err != nil {
		t.Fatal(err)
	}
}
