package costmodel

import (
	"math"
	"testing"

	"repro/internal/cost"
	"time"
)

func TestCrossoverSInvertsThresholds(t *testing.T) {
	// EDCrossoverS(r) must be the exact s where Remark5EDThreshold(s)
	// equals r, for every partition kind.
	for _, kind := range []PartitionKind{RowPart, ColPart, MeshPart} {
		for _, r := range []float64{1.1, 1.2, 1.5, 2.0, 3.0} {
			s := EDCrossoverS(r, kind)
			if s == 0 || s == 0.5 {
				continue // clamped
			}
			th, err := Remark5EDThreshold(s, kind)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(th-r) > 1e-12 {
				t.Errorf("kind %v r %g: threshold at crossover = %g", kind, r, th)
			}
			sc := CFSCrossoverS(r, kind)
			if sc == 0 || sc == 0.5 {
				continue
			}
			thc, err := Remark5CFSThreshold(sc, kind)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(thc-r) > 1e-12 {
				t.Errorf("kind %v r %g: CFS threshold at crossover = %g", kind, r, thc)
			}
		}
	}
}

func TestCrossoverSClamping(t *testing.T) {
	// Below ratio 1, ED can never beat SFC on the row partition.
	if got := EDCrossoverS(0.8, RowPart); got != 0 {
		t.Errorf("EDCrossoverS(0.8, row) = %g, want 0", got)
	}
	// Huge ratio: crossover approaches (and is capped at) 0.5.
	if got := EDCrossoverS(1e12, ColPart); got < 0.499 || got > 0.5 {
		t.Errorf("EDCrossoverS(1e12, col) = %g, want ~0.5", got)
	}
	if got := CFSCrossoverS(0.5, RowPart); got != 0 {
		t.Errorf("CFSCrossoverS(0.5, row) = %g, want 0", got)
	}
}

func TestCrossoverAgreesWithFullModel(t *testing.T) {
	// Just below the crossover ratio the full model must rank ED ahead
	// of SFC; just above, behind — column partition, big n so dropped
	// lower-order terms are negligible.
	r := 1.2
	sStar := EDCrossoverS(r, ColPart)
	params := cost.Params{
		TStartup:   50 * time.Microsecond,
		TData:      time.Duration(r * 75),
		TOperation: 75 * time.Nanosecond,
	}
	mk := func(s float64) Inputs {
		return Inputs{N: 4000, P: 8, S: s, Kind: ColPart, Method: CRS}
	}
	below := predictByScheme(t, mk(sStar*0.8), params)
	if below["ED"].Total() >= below["SFC"].Total() {
		t.Errorf("at s = %.3f (below crossover %.3f) ED %v not ahead of SFC %v",
			sStar*0.8, sStar, below["ED"].Total(), below["SFC"].Total())
	}
	above := predictByScheme(t, mk(math.Min(0.49, sStar*1.3)), params)
	if above["ED"].Total() <= above["SFC"].Total() {
		t.Errorf("at s above crossover ED %v still ahead of SFC %v",
			above["ED"].Total(), above["SFC"].Total())
	}
}
