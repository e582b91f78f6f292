package dist

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// recoverPolicy keeps ACK waits short so a spent budget is noticed
// fast; the budget leaves headroom for several consecutive faults
// landing on the same unlucky message.
var recoverPolicy = machine.RetryPolicy{MaxRetries: 6, BaseDelay: 2 * time.Millisecond, MaxDelay: 15 * time.Millisecond}

// faultyMachine stacks Reliable(Fault(inner)): faults hit the wire
// below the reliability layer.
func faultyMachine(t *testing.T, p int, transport string) (*machine.Machine, *machine.FaultTransport, *machine.ReliableTransport) {
	t.Helper()
	var inner machine.Transport
	switch transport {
	case "tcp":
		tr, err := machine.NewTCPTransport(p)
		if err != nil {
			t.Fatal(err)
		}
		inner = tr
	default:
		inner = machine.NewChanTransport(p)
	}
	ft := machine.NewFaultTransport(inner)
	rt := machine.NewReliableTransport(ft, recoverPolicy)
	m, err := machine.New(p, machine.WithTransport(rt), machine.WithRecvTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, ft, rt
}

var recoverSchemes = []Codec{SFC{}, CFS{}, ED{}}

// baselineLocals runs scheme fault-free and returns the result for
// byte-level comparison.
func baselineLocals(t *testing.T, scheme Codec, g *sparse.Dense, part partition.Partition, opts Options) *Result {
	t.Helper()
	m := newMachine(t, part.NumParts())
	res, err := distribute(scheme, m, g, part, opts)
	if err != nil {
		t.Fatalf("fault-free %s: %v", scheme.Name(), err)
	}
	return res
}

func sameLocals(t *testing.T, scheme string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.LocalCRS, want.LocalCRS) {
		t.Errorf("%s: CRS locals differ from fault-free run", scheme)
	}
	if !reflect.DeepEqual(got.LocalCCS, want.LocalCCS) {
		t.Errorf("%s: CCS locals differ from fault-free run", scheme)
	}
	if !reflect.DeepEqual(got.LocalJDS, want.LocalJDS) {
		t.Errorf("%s: JDS locals differ from fault-free run", scheme)
	}
}

// TestSchemesRecoverFromTransientFaults is the headline acceptance
// check: with several dropped messages plus payload corruption on the
// wire, every scheme still completes and produces local arrays
// *identical* to a fault-free run, over both transports.
func TestSchemesRecoverFromTransientFaults(t *testing.T) {
	const p = 4
	g := sparse.Uniform(24, 24, 0.25, 42)
	part, err := partition.NewRow(24, 24, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, transport := range []string{"chan", "tcp"} {
		for _, scheme := range recoverSchemes {
			t.Run(transport+"/"+scheme.Name(), func(t *testing.T) {
				opts := Options{Method: CRS}
				want := baselineLocals(t, scheme, g, part, Options{Method: CRS})

				m, ft, rt := faultyMachine(t, p, transport)
				ft.DropNext(3)
				ft.CorruptNext(2)
				res, err := distribute(scheme, m, g, part, opts)
				if err != nil {
					t.Fatalf("%s under faults: %v", scheme.Name(), err)
				}
				if err := Verify(g, part, res); err != nil {
					t.Errorf("verify: %v", err)
				}
				sameLocals(t, scheme.Name(), res, want)

				st := rt.Stats()
				if st.Retransmits < 3 {
					t.Errorf("retransmits = %d, want >= 3 (drops + corruption recovered)", st.Retransmits)
				}
				if st.Failed != 0 {
					t.Errorf("failed sends = %d, want 0", st.Failed)
				}
				fs := ft.FullStats()
				if fs.Dropped != 3 || fs.Corrupted != 2 {
					t.Errorf("fault stats = %+v, want 3 drops and 2 corruptions consumed", fs)
				}
			})
		}
	}
}

// TestDegradePathMatchesLegacyWhenHealthy: with no faults at all, a run
// over the ARQ stack must produce exactly the bare transport's locals
// for every scheme, partition and method — same bytes. (The name is
// kept from the degradable driver this stack once carried, so the
// subtest names stay stable.)
func TestDegradePathMatchesLegacyWhenHealthy(t *testing.T) {
	const p = 4
	g := sparse.Uniform(22, 22, 0.25, 11)
	for _, part := range partitionsFor(t, 22, 22, p) {
		for _, method := range []Method{CRS, CCS, JDS} {
			for _, scheme := range recoverSchemes {
				t.Run(scheme.Name()+"/"+part.Name()+"/"+method.String(), func(t *testing.T) {
					want := baselineLocals(t, scheme, g, part, Options{Method: method})
					m, _, _ := faultyMachine(t, p, "chan")
					res, err := distribute(scheme, m, g, part, Options{Method: method})
					if err != nil {
						t.Fatal(err)
					}
					if err := Verify(g, part, res); err != nil {
						t.Errorf("verify: %v", err)
					}
					sameLocals(t, scheme.Name(), res, want)
				})
			}
		}
	}
}

// TestSpentRetryBudgetFailsPromptly: over Reliable(Fault(chan)) with
// every data message dropped, the root's first send spends its retry
// budget. The job must fail with that error alone, within the budget
// plus well under a second — not on the other ranks' 30 s receive
// watchdog — and leave no goroutine behind once the machine is closed.
func TestSpentRetryBudgetFailsPromptly(t *testing.T) {
	const n, p = 24, 4
	g := sparse.Uniform(n, n, 0.3, 7)
	part, err := partition.NewRow(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		run  func(m *machine.Machine) error
	}{
		{"Run", func(m *machine.Machine) error {
			_, err := Run(m, Plan{Codec: ED{}, Global: g, Partition: part, Options: Options{Method: CRS}})
			return err
		}},
		{"RunStream", func(m *machine.Machine) error {
			_, err := RunStream(m, StreamPlan{Codec: ED{}, Source: sparse.NewStreamCOO(sparse.FromDense(g), 32),
				Partition: part, Options: Options{Method: CRS}})
			return err
		}},
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ft := machine.NewFaultTransport(machine.NewChanTransport(p))
			ft.DropNext(1 << 20)
			rt := machine.NewReliableTransport(ft, machine.RetryPolicy{MaxRetries: 2, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond})
			m, err := machine.New(p, machine.WithTransport(rt), machine.WithRecvTimeout(30*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			err = tc.run(m)
			elapsed := time.Since(start)
			m.Close()
			if !errors.Is(err, machine.ErrRetriesExhausted) {
				t.Fatalf("got %v, want ErrRetriesExhausted", err)
			}
			if errors.Is(err, machine.ErrTimeout) || errors.Is(err, context.Canceled) {
				t.Errorf("the root's error came with the released ranks' errors: %v", err)
			}
			if elapsed > 2*time.Second {
				t.Errorf("the job failed after %v, want well under the 30 s watchdog", elapsed)
			}
			if got := machine.SettledGoroutines(before, 2*time.Second); got > before {
				t.Errorf("%d goroutines after Close, %d before the machine was built", got, before)
			}
		})
	}
}
