package dist

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// recoverPolicy keeps ACK waits short so dead-rank detection is fast;
// the budget leaves headroom for several consecutive faults landing on
// the same unlucky message.
var recoverPolicy = machine.RetryPolicy{MaxRetries: 6, BaseDelay: 2 * time.Millisecond, MaxDelay: 15 * time.Millisecond}

// faultyMachine stacks Reliable(Fault(inner)) — faults hit the wire
// below the reliability layer — and wires a tracer through both.
func faultyMachine(t *testing.T, p int, transport string) (*machine.Machine, *machine.FaultTransport, *machine.ReliableTransport, *trace.Tracer) {
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
	tracer := trace.New()
	rt.SetTracer(tracer)
	m, err := machine.New(p, machine.WithTransport(rt), machine.WithRecvTimeout(10*time.Second), machine.WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, ft, rt, tracer
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
				opts := Options{Method: CRS, Degrade: true}
				want := baselineLocals(t, scheme, g, part, Options{Method: CRS})

				m, ft, rt, _ := faultyMachine(t, p, transport)
				ft.DropNext(3)
				ft.CorruptNext(2)
				res, err := distribute(scheme, m, g, part, opts)
				if err != nil {
					t.Fatalf("%s under faults: %v", scheme.Name(), err)
				}
				if res.Degraded {
					t.Errorf("transient faults marked Degraded: dead=%v", res.DeadRanks)
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

// TestSchemesDegradeAroundDeadRank checks graceful degradation: a rank
// that is permanently dead has its partition parts remapped to the
// survivors, and the result still covers every nonzero.
func TestSchemesDegradeAroundDeadRank(t *testing.T) {
	const p, dead = 4, 2
	g := sparse.Uniform(20, 20, 0.3, 7)
	part, err := partition.NewRow(20, 20, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []Method{CRS, CCS} {
		for _, scheme := range recoverSchemes {
			t.Run(scheme.Name()+"/"+method.String(), func(t *testing.T) {
				m, ft, rt, tracer := faultyMachine(t, p, "chan")
				ft.KillRank(dead)
				res, err := distribute(scheme, m, g, part, Options{Method: method, Degrade: true})
				if err != nil {
					t.Fatalf("%s with dead rank: %v", scheme.Name(), err)
				}
				if !res.Degraded {
					t.Fatal("result not flagged Degraded")
				}
				if !reflect.DeepEqual(res.DeadRanks, []int{dead}) {
					t.Errorf("DeadRanks = %v, want [%d]", res.DeadRanks, dead)
				}
				to, ok := res.Reassigned[dead]
				if !ok {
					t.Fatalf("part %d not reassigned: %v", dead, res.Reassigned)
				}
				if to == dead || !contains(res.DeadRanks, dead) {
					t.Errorf("part %d reassigned to %d", dead, to)
				}
				// 100%% nonzero coverage: every part, including the dead
				// rank's remapped one, must match the ground truth.
				if err := Verify(g, part, res); err != nil {
					t.Errorf("degraded result verify: %v", err)
				}
				if rt.Stats().Failed == 0 {
					t.Error("no send ever exhausted retries, yet the rank was dead")
				}
				if tracer.Counters()["dist.dead_ranks"] < 1 {
					t.Errorf("dist.dead_ranks = %d, want >= 1", tracer.Counters()["dist.dead_ranks"])
				}
				if tracer.Counters()["dist.degraded_parts"] < 1 {
					t.Errorf("dist.degraded_parts = %d, want >= 1", tracer.Counters()["dist.degraded_parts"])
				}
			})
		}
	}
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestDegradeDeadRankOverTCP reruns the dead-rank scenario across the
// real network stack for one scheme.
func TestDegradeDeadRankOverTCP(t *testing.T) {
	const p, dead = 3, 1
	g := sparse.Uniform(18, 18, 0.3, 9)
	part, err := partition.NewRow(18, 18, p)
	if err != nil {
		t.Fatal(err)
	}
	m, ft, _, _ := faultyMachine(t, p, "tcp")
	ft.KillRank(dead)
	res, err := Run(m, Plan{Codec: ED{}, Global: g, Partition: part, Options: Options{Method: CRS, Degrade: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || !reflect.DeepEqual(res.DeadRanks, []int{dead}) {
		t.Fatalf("Degraded=%v DeadRanks=%v, want degraded with rank %d dead", res.Degraded, res.DeadRanks, dead)
	}
	if err := Verify(g, part, res); err != nil {
		t.Errorf("verify: %v", err)
	}
}

// TestDegradePathMatchesLegacyWhenHealthy: with no faults at all, the
// recovery protocol must produce exactly the legacy path's locals for
// every scheme and method — same bytes, no degradation.
func TestDegradePathMatchesLegacyWhenHealthy(t *testing.T) {
	const p = 4
	g := sparse.Uniform(22, 22, 0.25, 11)
	for _, part := range partitionsFor(t, 22, 22, p) {
		for _, method := range []Method{CRS, CCS, JDS} {
			for _, scheme := range recoverSchemes {
				t.Run(scheme.Name()+"/"+part.Name()+"/"+method.String(), func(t *testing.T) {
					want := baselineLocals(t, scheme, g, part, Options{Method: method})
					m, _, _, _ := faultyMachine(t, p, "chan")
					res, err := distribute(scheme, m, g, part, Options{Method: method, Degrade: true})
					if err != nil {
						t.Fatal(err)
					}
					if res.Degraded {
						t.Error("healthy run flagged Degraded")
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
