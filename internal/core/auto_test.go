package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sparse"
)

func TestAutoResolveDeterministic(t *testing.T) {
	g := sparse.Uniform(80, 80, 0.08, 5)
	cfg := Config{Scheme: "auto", Procs: 4}
	first, firstChoice, err := ResolveAuto(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		got, choice, err := ResolveAuto(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != first {
			t.Fatalf("run %d: resolved config %+v != first %+v", i, got, first)
		}
		if choice.Scheme != firstChoice.Scheme || choice.Partition != firstChoice.Partition ||
			choice.Method != firstChoice.Method || choice.Workers != firstChoice.Workers ||
			choice.Predicted != firstChoice.Predicted {
			t.Fatalf("run %d: choice %+v != first %+v", i, choice, firstChoice)
		}
	}
}

func TestDistributeAuto(t *testing.T) {
	g := sparse.Uniform(60, 60, 0.1, 3)
	d, err := Distribute(g, Config{Scheme: "auto", Procs: 4, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Auto == nil {
		t.Fatal("Distribution.Auto not populated for scheme auto")
	}
	switch d.Auto.Scheme {
	case "SFC", "CFS", "ED":
	default:
		t.Errorf("auto resolved to unknown scheme %q", d.Auto.Scheme)
	}
	if d.Result.Scheme != d.Auto.Scheme {
		t.Errorf("ran scheme %s but choice says %s", d.Result.Scheme, d.Auto.Scheme)
	}
	if d.Result.Partition != d.Auto.Partition {
		t.Errorf("ran partition %s but choice says %s", d.Result.Partition, d.Auto.Partition)
	}
	if d.Auto.Predicted.Total() <= 0 {
		t.Error("auto choice carries no prediction")
	}
	if len(d.Auto.Ranked) == 0 {
		t.Error("auto choice carries no ranking")
	}
	// Auto runs are full citizens of the correctness machinery.
	if err := d.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if err := d.DiffCheck(); err != nil {
		t.Errorf("DiffCheck: %v", err)
	}
}

func TestDistributeAutoCaseInsensitive(t *testing.T) {
	g := sparse.Uniform(30, 30, 0.1, 1)
	for _, name := range []string{"AUTO", "Auto"} {
		d, err := Distribute(g, Config{Scheme: name, Procs: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Auto == nil {
			t.Errorf("%s: Auto not populated", name)
		}
		d.Close()
	}
}

func TestDistributeAutoPinsExplicitFields(t *testing.T) {
	g := sparse.Uniform(60, 60, 0.1, 3)
	d, err := Distribute(g, Config{Scheme: "auto", Partition: "col", Method: "CCS", Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Auto.Partition != "col" || d.Result.Partition != "col" {
		t.Errorf("pinned partition col not honored: choice %s, ran %s", d.Auto.Partition, d.Result.Partition)
	}
	if d.Auto.Method != "CCS" || d.Result.Method.String() != "CCS" {
		t.Errorf("pinned method CCS not honored: choice %s, ran %s", d.Auto.Method, d.Result.Method)
	}
	// JDS has no model form; it must still run (modelled as CRS).
	dj, err := Distribute(g, Config{Scheme: "auto", Method: "JDS", Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer dj.Close()
	if dj.Result.Method.String() != "JDS" {
		t.Errorf("pinned JDS ran as %s", dj.Result.Method)
	}
}

func TestDistributeAutoEmptyArray(t *testing.T) {
	// Degenerate input takes the deterministic default plan, not an error.
	d, err := Distribute(sparse.NewDense(5, 5), Config{Scheme: "auto", Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Auto.Scheme != "ED" {
		t.Errorf("degenerate auto scheme = %s, want ED", d.Auto.Scheme)
	}
	if err := d.DiffCheck(); err != nil {
		t.Error(err)
	}
}

func TestDistributeAutoTopology(t *testing.T) {
	// A bandwidth-starved star must steer auto away from the wire-heavy
	// SFC in the regime where the flat model picks it (EXPERIMENTS.md).
	g := sparse.UniformExact(400, 400, 0.1, 1)
	flat, err := Distribute(g, Config{Scheme: "auto", Partition: "row", Method: "CRS", Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	if flat.Auto.Scheme != "SFC" {
		t.Fatalf("flat auto = %s, want SFC in this regime", flat.Auto.Scheme)
	}
	starved, err := Distribute(g, Config{
		Scheme: "auto", Partition: "row", Method: "CRS", Procs: 4,
		Topology: "star", LinkBW: 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer starved.Close()
	if starved.Auto.Scheme == "SFC" {
		t.Error("starved star still picked SFC")
	}
}

func TestDistributeStreamRejectsAuto(t *testing.T) {
	src := sparse.NewUniformStream(40, 40, 80, 1, sparse.DefaultChunkEntries)
	_, err := DistributeStream(src, Config{Scheme: "auto", Procs: 2})
	if !errors.Is(err, ErrAutoStream) {
		t.Fatalf("err = %v, want ErrAutoStream", err)
	}
}

// TestDistributeStreamRejectsTopology: the network model replays the
// materializing engine's messages; a streamed run's frames, credits and
// stats are not the paper's, so the pairing is a *ConflictError naming
// both settings, not a replay that disagrees with the counters.
func TestDistributeStreamRejectsTopology(t *testing.T) {
	src := sparse.NewUniformStream(40, 40, 80, 1, sparse.DefaultChunkEntries)
	_, err := DistributeStream(src, Config{Scheme: "ED", Procs: 4, Topology: "uniform"})
	var conflict *ConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("err = %v, want *ConflictError", err)
	}
	if !strings.Contains(err.Error(), "stream") || !strings.Contains(err.Error(), "topology") {
		t.Errorf("err %q does not name both stream and topology", err)
	}
}

// TestDistributeAutoRecordOnlyUnderAuto: the same array under scheme
// auto and under an explicit scheme — only the auto run carries an
// Auto record, and both reassemble to the input.
func TestDistributeAutoRecordOnlyUnderAuto(t *testing.T) {
	g := sparse.Uniform(50, 50, 0.1, 2)
	for _, scheme := range []string{"auto", "ED"} {
		d, err := Distribute(g, Config{Scheme: scheme, Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if (d.Auto != nil) != (scheme == "auto") {
			t.Errorf("scheme %s: Auto record %+v", scheme, d.Auto)
		}
		if err := d.DiffCheck(); err != nil {
			t.Errorf("scheme %s: %v", scheme, err)
		}
	}
}

// TestDiffSweepAuto is the acceptance gate: the auto column of the
// differential sweep, over adversarial inputs (including the degenerate
// balanced-row seeds), over the bare transport and the ARQ stack, must
// be violation-free. CI runs it under -race.
func TestDiffSweepAuto(t *testing.T) {
	cases := 40
	if testing.Short() {
		cases = 12
	}
	res := DiffSweep(SweepConfig{
		Cases:    cases,
		Schemes:  []string{"auto"},
		Reliable: true,
	})
	for _, f := range res.Failures {
		t.Errorf("%s", f)
	}
	if res.Runs == 0 {
		t.Fatal("sweep ran nothing")
	}
}

func TestAutoReportLine(t *testing.T) {
	g := sparse.Uniform(40, 40, 0.1, 1)
	d, err := Distribute(g, Config{Scheme: "auto", Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rep := d.Report()
	if !strings.Contains(rep, "auto-selected:") {
		t.Errorf("report has no auto-selected line:\n%s", rep)
	}
}
