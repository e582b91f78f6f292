package dist

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// The convert-at-root CFS ablation: results must be identical; the cost
// balance must shift from the receivers to the root.

func TestCFSConvertAtRootEquivalent(t *testing.T) {
	g := sparse.Uniform(30, 30, 0.2, 12)
	mesh, _ := partition.NewMesh(30, 30, 2, 2)
	cyc, _ := partition.NewCyclicRow(30, 30, 4)
	for _, part := range []partition.Partition{mesh, cyc} {
		for _, method := range []Method{CRS, CCS} {
			t.Run(part.Name()+"/"+method.String(), func(t *testing.T) {
				m1 := newMachine(t, 4)
				base, err := Run(m1, Plan{Codec: CFS{}, Global: g, Partition: part, Options: Options{Method: method}})
				if err != nil {
					t.Fatal(err)
				}
				m2 := newMachine(t, 4)
				abl, err := Run(m2, Plan{Codec: CFS{}, Global: g, Partition: part, Options: Options{Method: method, CFSConvertAtRoot: true}})
				if err != nil {
					t.Fatal(err)
				}
				if err := Verify(g, part, abl); err != nil {
					t.Fatal(err)
				}
				for k := 0; k < 4; k++ {
					if method == CRS {
						if !base.LocalCRS[k].Equal(abl.LocalCRS[k]) {
							t.Errorf("rank %d results differ between variants", k)
						}
					} else if !base.LocalCCS[k].Equal(abl.LocalCCS[k]) {
						t.Errorf("rank %d results differ between variants", k)
					}
				}
			})
		}
	}
}

func TestCFSConvertAtRootCostShift(t *testing.T) {
	// Mesh partition + CRS needs conversion (Case 3.2.3) for every part
	// with a nonzero column offset (parts in mesh column 0 subtract 0,
	// which is free on both sides). At the root the conversion is
	// sequential; at the receivers it is parallel. Total conversion ops
	// are identical — one per nonzero in the offset parts — so the
	// ablation's root ops must exceed the baseline's by exactly that
	// count, the receivers must do correspondingly less, and the virtual
	// distribution time must be no better.
	g := sparse.UniformExact(40, 40, 0.1, 13)
	part, _ := partition.NewMesh(40, 40, 2, 2)

	var converted int64
	for k := 0; k < 4; k++ {
		if cm := part.ColMap(k); len(cm) > 0 && cm[0] != 0 {
			converted += int64(partition.Extract(g, part, k).NNZ())
		}
	}

	m1 := newMachine(t, 4)
	base, err := Run(m1, Plan{Codec: CFS{}, Global: g, Partition: part})
	if err != nil {
		t.Fatal(err)
	}
	m2 := newMachine(t, 4)
	abl, err := Run(m2, Plan{Codec: CFS{}, Global: g, Partition: part, Options: Options{CFSConvertAtRoot: true}})
	if err != nil {
		t.Fatal(err)
	}

	rootDelta := abl.Breakdown.RootDist.Ops - base.Breakdown.RootDist.Ops
	if rootDelta != converted {
		t.Errorf("root ops delta = %d, want %d (one conversion per offset-part nonzero)", rootDelta, converted)
	}
	var baseRank, ablRank int64
	for k := 0; k < 4; k++ {
		baseRank += base.Breakdown.RankDist[k].Ops
		ablRank += abl.Breakdown.RankDist[k].Ops
	}
	if baseRank-ablRank != converted {
		t.Errorf("receiver ops delta = %d, want %d", baseRank-ablRank, converted)
	}

	params := cost.DefaultParams
	if abl.Breakdown.DistributionTime(params) < base.Breakdown.DistributionTime(params) {
		t.Error("sequentialising the conversion should not speed distribution up")
	}
}

func TestCFSConvertAtRootNoConversionCase(t *testing.T) {
	// Row partition + CRS needs no conversion (Case 3.2.1): the ablation
	// must be a no-op in costs too.
	g := sparse.UniformExact(32, 32, 0.1, 14)
	part, _ := partition.NewRow(32, 32, 4)
	m1 := newMachine(t, 4)
	base, err := Run(m1, Plan{Codec: CFS{}, Global: g, Partition: part})
	if err != nil {
		t.Fatal(err)
	}
	m2 := newMachine(t, 4)
	abl, err := Run(m2, Plan{Codec: CFS{}, Global: g, Partition: part, Options: Options{CFSConvertAtRoot: true}})
	if err != nil {
		t.Fatal(err)
	}
	if base.Breakdown.RootDist != abl.Breakdown.RootDist {
		t.Errorf("root dist counters differ with no conversion needed: %v vs %v",
			base.Breakdown.RootDist, abl.Breakdown.RootDist)
	}
}
