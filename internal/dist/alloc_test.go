package dist

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// TestEDEncodeSendSteadyStateAllocs guards the pooled hot path: once
// the wire-buffer pool is warm, one ED part's encode + send + receive +
// release cycle must not allocate proportionally to the part — only the
// partition's per-call ownership maps and a few fixed words remain.
// Before pooling, this cycle allocated (and grew) a fresh wire buffer
// per part; a regression reintroducing that shows up here long before
// it shows up in BenchmarkRun's allocs/op.
func TestEDEncodeSendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	const n = 64
	g := sparse.Uniform(n, n, 0.1, 3)
	part, err := partition.NewRow(n, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(1) // loopback: rank 0 sends to itself
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	f, err := formatFor(CRS)
	if err != nil {
		t.Fatal(err)
	}
	run := &runState{codec: ED{}, global: g, part: part, opts: Options{Method: CRS}, format: f}
	encode := func(k int, pp *partPayload) error { return ED{}.EncodePart(run, k, pp) }
	cycle := func(pr *machine.Proc) error {
		pp := partPayload{k: 0}
		if err := encode(0, &pp); err != nil {
			return err
		}
		if err := pr.SendBuf(0, 1, pp.meta, pp.buf, pp.pooled, nil); err != nil {
			return err
		}
		msg, err := pr.RecvFrom(0, 1)
		if err != nil {
			return err
		}
		machine.ReleaseMessage(&msg)
		return nil
	}

	err = m.Run(func(pr *machine.Proc) error {
		for i := 0; i < 3; i++ { // warm the pool to steady state
			if err := cycle(pr); err != nil {
				return err
			}
		}
		avg := testing.AllocsPerRun(100, func() {
			if err := cycle(pr); err != nil {
				t.Error(err)
			}
		})
		// Two allocations are the partition's RowMap/ColMap copies; the
		// bound leaves a little slack for runtime noise but is far below
		// the one-buffer-per-part regime (which also grows by appending,
		// costing several allocations per part).
		if avg > 4 {
			t.Errorf("ED encode+send steady state allocates %.1f times per part, want <= 4", avg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
