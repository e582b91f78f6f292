package dist

import (
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// TestWallOrderingUnderModelTransport closes the loop between the
// virtual clock and reality: when the transport actually spends
// T_Startup + words·T_Data per message, the *measured wall-clock*
// distribution times order the way the paper's Tables 3-5 do — the
// compressed-wire schemes beat SFC by roughly the wire-volume ratio.
func TestWallOrderingUnderModelTransport(t *testing.T) {
	const n, p = 64, 4
	g := sparse.UniformExact(n, n, 0.1, 40)
	part, err := partition.NewRow(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	// Exaggerated wire costs keep the test fast yet unambiguous even
	// when the scheduler is busy with parallel test packages: the
	// modelled gap (SFC ~45ms vs ED ~13ms) dwarfs timer noise.
	params := cost.Params{TStartup: time.Millisecond, TData: 10 * time.Microsecond, TOperation: 75 * time.Nanosecond}

	wall := map[string]time.Duration{}
	for _, s := range Schemes() {
		mt := machine.NewModelTransport(machine.NewChanTransport(p), params)
		m, err := machine.New(p, machine.WithTransport(mt), machine.WithRecvTimeout(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		res, err := distribute(s, m, g, part, Options{})
		m.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(g, part, res); err != nil {
			t.Fatal(err)
		}
		wall[s.Name()] = res.Breakdown.WallDistribution()
	}
	// SFC ships n² = 4096 words; ED ships ~2·nnz + n ≈ 884. The wall gap
	// must reflect that decisively (≥2x), and CFS must also beat SFC.
	if wall["SFC"] < 2*wall["ED"] {
		t.Errorf("SFC wall dist %v not >= 2x ED %v under model transport", wall["SFC"], wall["ED"])
	}
	if wall["SFC"] <= wall["CFS"] {
		t.Errorf("SFC wall dist %v not above CFS %v", wall["SFC"], wall["CFS"])
	}
}
