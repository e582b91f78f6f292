package core

import (
	"testing"

	"repro/internal/check"
)

// reportSweep fails the test with the first few sweep failures.
func reportSweep(t *testing.T, name string, res *SweepResult) {
	t.Helper()
	t.Logf("%s: %d cases, %d runs, %d failures", name, res.Cases, res.Runs, len(res.Failures))
	for i, f := range res.Failures {
		if i >= 20 {
			t.Errorf("... and %d more failures", len(res.Failures)-20)
			return
		}
		t.Errorf("%s", f)
	}
}

// TestDiffSweep is the differential correctness harness: >= 200
// adversarial arrays through the full scheme x partition x method
// matrix, over the bare transport and over the ARQ stack, invariant
// checks on the hot path and the oracle on every result. Short mode trims the
// case count; `make check-diff` runs the full sweep.
func TestDiffSweep(t *testing.T) {
	sc := SweepConfig{Reliable: true}
	if testing.Short() {
		sc.Cases = 60
	}
	reportSweep(t, "diff sweep", DiffSweep(sc))
}

// TestDiffSweepMorePartitions covers the partition kinds outside the
// default matrix: block-cyclic, cyclic column/mesh, the nnz-balanced
// row partition, and HPF-style descriptors.
func TestDiffSweepMorePartitions(t *testing.T) {
	reportSweep(t, "partitions sweep", DiffSweep(SweepConfig{
		Cases:      60,
		Partitions: []string{"brs", "cyclic-col", "cyclic-mesh", "balanced-row", "(Block,Block)", "(Cyclic(2),*)"},
		Reliable:   true,
	}))
}

// TestDiffSweepTCP pushes the corner corpus over real localhost
// sockets — zero-length payloads and tiny frames exercise the framing
// path the in-process transport never strains.
func TestDiffSweepTCP(t *testing.T) {
	reportSweep(t, "tcp sweep", DiffSweep(SweepConfig{
		Cases:      10,
		Partitions: []string{"row"},
		Transports: []string{"tcp"},
	}))
}

// TestDiffSweepSequentialRoot drives the corner cases through the
// strictly sequential root loop (Workers=1), a distinct pipeline path.
func TestDiffSweepSequentialRoot(t *testing.T) {
	for _, c := range check.Adversarial(1, 1) {
		for _, scheme := range []string{"SFC", "CFS", "ED"} {
			d, err := Distribute(c.G, Config{
				Scheme: scheme, Partition: "row", Procs: c.Procs,
				Workers: 1, Check: true,
			})
			if err != nil {
				t.Errorf("%s/%s: %v", c.Name, scheme, err)
				continue
			}
			if err := d.DiffCheck(); err != nil {
				t.Errorf("%s/%s: %v", c.Name, scheme, err)
			}
			d.Close()
		}
	}
}
