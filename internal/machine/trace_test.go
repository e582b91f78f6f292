package machine

import (
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestMachineTracesMessages(t *testing.T) {
	tr := trace.New()
	m, err := New(2, WithTracer(tr), WithRecvTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(p *Proc) error {
		if p.Rank == 0 {
			return p.Send(1, 3, [4]int64{}, []float64{1, 2}, nil)
		}
		_, err := p.RecvFrom(0, 3)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Tracer() != tr {
		t.Error("Tracer() did not return the installed tracer")
	}
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2 (send, recv)", len(evs))
	}
	out := tr.Timeline()
	for _, want := range []string{"P0 send -> P1", "P1 recv <- P0", "2 words"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestControlTrafficNotTraced(t *testing.T) {
	tr := trace.New()
	m, err := New(3, WithTracer(tr), WithRecvTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(p *Proc) error {
		if err := p.Barrier(); err != nil {
			return err
		}
		_, err := p.Bcast(0, []float64{1})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := tr.Len(); n != 0 {
		t.Errorf("control traffic produced %d trace events, want 0", n)
	}
}
