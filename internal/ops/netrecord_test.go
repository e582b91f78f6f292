package ops_test

import (
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/ops"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/sparse"
)

// netMachine builds a machine with a simnet recorder attached.
func netMachine(t *testing.T, p int, topo string) *machine.Machine {
	t.Helper()
	top, err := simnet.Build(topo, p, cost.DefaultParams, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.NewNetwork(top, cost.DefaultParams)
	m, err := machine.New(p, machine.WithRecvTimeout(10*time.Second), machine.WithNetwork(net))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestBroadcastSpMVAppearsInTimeline verifies the PR 8 follow-up: the
// Bcast/Gather hops of the collective kernels are recorded into the
// simnet recorder, so DistributedSpMV shows up in the network
// timeline instead of being invisible control traffic.
func TestBroadcastSpMVAppearsInTimeline(t *testing.T) {
	g := sparse.Uniform(24, 24, 0.2, 3)
	part, err := partition.NewRow(24, 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := netMachine(t, 4, "star")
	res, err := dist.Run(m, dist.Plan{Codec: dist.SFC{}, Global: g, Partition: part})
	if err != nil {
		t.Fatal(err)
	}
	base := m.Network().Finalize().Makespan
	x := make([]float64, 24)
	for i := range x {
		x[i] = float64(i + 1)
	}
	if _, err := ops.DistributedSpMV(m, part, res, x); err != nil {
		t.Fatal(err)
	}
	after := m.Network().Finalize().Makespan
	if after <= base {
		t.Fatalf("broadcast SpMV left no trace in the timeline: makespan %v -> %v", base, after)
	}
}

// TestBarrierStaysOffTheBooks pins the boundary: barrier control
// traffic moves no data and must not appear in the network model.
func TestBarrierStaysOffTheBooks(t *testing.T) {
	m := netMachine(t, 3, "uniform")
	if err := m.Run(func(p *machine.Proc) error {
		return p.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	if ms := m.Network().Finalize().Makespan; ms != 0 {
		t.Fatalf("barrier recorded network activity: makespan %v", ms)
	}
}
