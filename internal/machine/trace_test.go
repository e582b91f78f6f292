package machine

import (
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// recordedRun runs body on a p-rank machine over the reliable layer
// with a uniform network model attached, with or without the tracer
// shims, and returns the replayed timeline.
func recordedRun(t *testing.T, p int, shims bool, body func(*Proc) error) *simnet.Timeline {
	t.Helper()
	top, err := simnet.Build("uniform", p, cost.DefaultParams, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.NewNetwork(top, cost.DefaultParams)
	rt := NewReliableTransport(NewChanTransport(p), fastPolicy)
	opts := []Option{WithTransport(rt), WithNetwork(net), WithRecvTimeout(5 * time.Second)}
	if shims {
		tr := trace.New()
		rt.SetTracer(tr)
		opts = append(opts, WithTracer(tr))
	}
	m, err := New(p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Run(body); err != nil {
		t.Fatal(err)
	}
	return net.Finalize()
}

// TestTracerShimsAreInert: WithTracer and SetTracer record nothing and
// change nothing. A run built with them delivers the same data and
// replays to the same timeline as one built without.
func TestTracerShimsAreInert(t *testing.T) {
	body := func(p *Proc) error {
		if p.Rank == 0 {
			return p.Send(1, 3, [4]int64{}, []float64{1, 2}, nil)
		}
		msg, err := p.RecvFrom(0, 3)
		if err == nil && (len(msg.Data) != 2 || msg.Data[1] != 2) {
			t.Errorf("received %v, want [1 2]", msg.Data)
		}
		return err
	}
	plain, shimmed := recordedRun(t, 2, false, body), recordedRun(t, 2, true, body)
	if len(plain.Events) != 2 {
		t.Fatalf("timeline has %d events, want 2 (send, recv)", len(plain.Events))
	}
	if plain.Hash() != shimmed.Hash() {
		t.Errorf("the tracer shims changed the timeline:\n%s\nvs\n%s", plain.Gantt(32), shimmed.Gantt(32))
	}
}

// TestControlTrafficNotRecorded: a barrier moves no array data and
// stays out of the network model; a broadcast's hops occupy links like
// any transfer and are recorded, one send and one receive per leaf.
func TestControlTrafficNotRecorded(t *testing.T) {
	tl := recordedRun(t, 3, false, func(p *Proc) error { return p.Barrier() })
	if n := len(tl.Events); n != 0 {
		t.Errorf("a barrier left %d timeline events, want 0", n)
	}
	tl = recordedRun(t, 3, false, func(p *Proc) error {
		_, err := p.Bcast(0, []float64{1})
		return err
	})
	if n := len(tl.Events); n != 4 {
		t.Errorf("a broadcast to 2 leaves left %d timeline events, want 4", n)
	}
}
