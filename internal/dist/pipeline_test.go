package dist

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// sameBreakdownCounters asserts the virtual cost counters of two runs
// are byte-identical — the pipeline's core invariant: any worker count
// must charge exactly what the sequential reference loop charges.
func sameBreakdownCounters(t *testing.T, a, b *Breakdown) {
	t.Helper()
	if a.RootDist != b.RootDist {
		t.Errorf("RootDist differs: %v vs %v", a.RootDist, b.RootDist)
	}
	if a.RootComp != b.RootComp {
		t.Errorf("RootComp differs: %v vs %v", a.RootComp, b.RootComp)
	}
	for k := range a.RankDist {
		if a.RankDist[k] != b.RankDist[k] {
			t.Errorf("RankDist[%d] differs: %v vs %v", k, a.RankDist[k], b.RankDist[k])
		}
		if a.RankComp[k] != b.RankComp[k] {
			t.Errorf("RankComp[%d] differs: %v vs %v", k, a.RankComp[k], b.RankComp[k])
		}
	}
}

// TestRootPipelineParity sweeps every scheme x partition x method and
// checks that the pooled root pipeline (Workers=8) produces the same
// local arrays and the same virtual cost counters as the strictly
// sequential loop (Workers=1). Run with -race this also exercises the
// pool's concurrency.
func TestRootPipelineParity(t *testing.T) {
	const n, p = 48, 4
	g := sparse.Uniform(n, n, 0.12, 7)
	row, _ := partition.NewRow(n, n, p)
	col, _ := partition.NewCol(n, n, p)
	mesh, _ := partition.NewMesh(n, n, 2, 2)
	for _, scheme := range []Codec{SFC{}, CFS{}, ED{}} {
		for _, part := range []partition.Partition{row, col, mesh} {
			for _, method := range []Method{CRS, CCS, JDS} {
				t.Run(scheme.Name()+"/"+part.Name()+"/"+method.String(), func(t *testing.T) {
					m1 := newMachine(t, p)
					seq, err := distribute(scheme, m1, g, part, Options{Method: method, Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					m2 := newMachine(t, p)
					par, err := distribute(scheme, m2, g, part, Options{Method: method, Workers: 8})
					if err != nil {
						t.Fatal(err)
					}
					if err := Verify(g, part, par); err != nil {
						t.Fatal(err)
					}
					sameBreakdownCounters(t, seq.Breakdown, par.Breakdown)
					sameLocals(t, scheme.Name(), par, seq)
				})
			}
		}
	}
}

// errInjected is the sentinel a failingTransport returns from Send.
var errInjected = errors.New("injected send failure")

// failingTransport passes control traffic but fails every data send
// after the first `after` of them.
type failingTransport struct {
	machine.Transport
	mu    sync.Mutex
	after int
}

func (f *failingTransport) Send(msg machine.Message) error {
	if msg.Tag < 0 {
		return f.Transport.Send(msg)
	}
	f.mu.Lock()
	f.after--
	n := f.after
	f.mu.Unlock()
	if n < 0 {
		return errInjected
	}
	return f.Transport.Send(msg)
}

// TestRootPipelineSendFailureDrains injects a hard Send error
// mid-pipeline for every scheme: Distribute must surface the error —
// with all encoder workers drained rather than leaked, which -race and
// the absence of a deadlock (the Run join would hang on a stuck worker
// holding a result) confirm.
func TestRootPipelineSendFailureDrains(t *testing.T) {
	const n, p = 32, 4
	g := sparse.Uniform(n, n, 0.2, 11)
	part, err := partition.NewRow(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Codec{SFC{}, CFS{}, ED{}} {
		t.Run(scheme.Name(), func(t *testing.T) {
			ft := &failingTransport{Transport: machine.NewChanTransport(p), after: 2}
			m, err := machine.New(p, machine.WithTransport(ft),
				machine.WithRecvTimeout(300*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			_, err = distribute(scheme, m, g, part, Options{Workers: 4})
			if err == nil {
				t.Fatal("failed sends went unnoticed")
			}
			if !errors.Is(err, errInjected) {
				t.Fatalf("error lost the injected cause: %v", err)
			}
		})
	}
}
