package dist

import (
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// The pipelined root loop (Workers > 1) overlaps part k+1's encode with
// part k's send; these tests hold it to the sequential loop (Workers: 1)
// on ED, the scheme whose encode dominates the root's time.

func TestEDOverlapEquivalent(t *testing.T) {
	g := sparse.Uniform(40, 40, 0.15, 20)
	row, _ := partition.NewRow(40, 40, 4)
	mesh, _ := partition.NewMesh(40, 40, 2, 2)
	for _, part := range []partition.Partition{row, mesh} {
		for _, method := range []Method{CRS, CCS} {
			t.Run(part.Name()+"/"+method.String(), func(t *testing.T) {
				m1 := newMachine(t, 4)
				base, err := Run(m1, Plan{Codec: ED{}, Global: g, Partition: part, Options: Options{Method: method, Workers: 1}})
				if err != nil {
					t.Fatal(err)
				}
				m2 := newMachine(t, 4)
				over, err := Run(m2, Plan{Codec: ED{}, Global: g, Partition: part, Options: Options{Method: method, Workers: 2}})
				if err != nil {
					t.Fatal(err)
				}
				if err := Verify(g, part, over); err != nil {
					t.Fatal(err)
				}
				// Identical virtual costs: overlap only changes wall time.
				if base.Breakdown.RootDist != over.Breakdown.RootDist {
					t.Errorf("RootDist counters differ: %v vs %v", base.Breakdown.RootDist, over.Breakdown.RootDist)
				}
				if base.Breakdown.RootComp != over.Breakdown.RootComp {
					t.Errorf("RootComp counters differ: %v vs %v", base.Breakdown.RootComp, over.Breakdown.RootComp)
				}
				for k := 0; k < 4; k++ {
					if method == CRS && !base.LocalCRS[k].Equal(over.LocalCRS[k]) {
						t.Errorf("rank %d CRS differs", k)
					}
					if method == CCS && !base.LocalCCS[k].Equal(over.LocalCCS[k]) {
						t.Errorf("rank %d CCS differs", k)
					}
				}
			})
		}
	}
}

func TestEDOverlapOverTCP(t *testing.T) {
	g := sparse.Uniform(32, 32, 0.1, 21)
	part, _ := partition.NewRow(32, 32, 3)
	tr, err := machine.NewTCPTransport(3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(3, machine.WithTransport(tr), machine.WithRecvTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	res, err := Run(m, Plan{Codec: ED{}, Global: g, Partition: part, Options: Options{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, part, res); err != nil {
		t.Fatal(err)
	}
}

func TestEDOverlapSendFailure(t *testing.T) {
	// Frames lost under the pipelined root must error out cleanly (the
	// root's sends all succeed; the receivers' watchdogs report the
	// loss) rather than deadlock. A send that itself fails is
	// TestRootPipelineSendFailureDrains.
	g := sparse.Uniform(16, 16, 0.2, 22)
	part, _ := partition.NewRow(16, 16, 4)
	ft := machine.NewFaultTransport(machine.NewChanTransport(4))
	ft.DropNext(2)
	m, err := machine.New(4, machine.WithTransport(ft), machine.WithRecvTimeout(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := Run(m, Plan{Codec: ED{}, Global: g, Partition: part, Options: Options{Workers: 2}}); err == nil {
		t.Fatal("dropped messages went unnoticed")
	}
}
