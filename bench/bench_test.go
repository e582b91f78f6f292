package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// fullSpec is every field of /BENCHMARK.json the test checks.
type fullSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadSpec(t *testing.T) fullSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec fullSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func run(t *testing.T, name string, o runOptions) *runDoc {
	t.Helper()
	o.setups, o.resultsDir = 1, t.TempDir()
	doc, err := runWorkload(workloadByName(name), o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return doc
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecShape holds BENCHMARK.json to the limits of the benchmark contract.
func TestSpecShape(t *testing.T) {
	spec := loadSpec(t)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for i, w := range spec.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v is malformed", m)
		}
		if _, ok := metricKinds[m.Name]; !ok {
			t.Errorf("end-to-end metric %s has no kind for compare", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound != nil || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is malformed", m)
		}
	}
}

func checkMetrics(t *testing.T, doc *runDoc, want []metricSpec) {
	t.Helper()
	if len(doc.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json lists %d", doc.Workload, len(doc.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := doc.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: metric %s: got %+v (present=%t), want unit %q", doc.Workload, m.Name, got, ok, m.Unit)
		}
	}
}

var countMetrics = []string{"vdist_ms_per_op", "vcomp_ms_per_op", "wire_words_per_op", "wire_msgs_per_op"}

// TestEndToEnd runs every workload briefly: all end-to-end metrics are
// there and non-zero, nothing fails, and the counts repeat exactly for
// one seed while following the input from seed to seed.
func TestEndToEnd(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		o := runOptions{seed: 1, seconds: 0.1}
		a, b := run(t, w.name, o), run(t, w.name, o)
		o.seed = 2
		c := run(t, w.name, o)
		for _, doc := range []*runDoc{a, b, c} {
			checkMetrics(t, doc, spec.EndToEnd)
			if doc.Failed != 0 || doc.FailRatio != 0 || doc.Ops == 0 || !doc.summary().Correct {
				t.Errorf("%s seed %d: %d of %d ops failed: %v", w.name, doc.Header.Seed, doc.Failed, doc.Attempted, doc.Failures)
			}
			for name, m := range doc.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: %s = %g, want > 0", w.name, name, m.Value)
				}
			}
		}
		for _, name := range countMetrics {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s: %s differs between two runs of seed 1: %v vs %v", w.name, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
		// One message per part whatever the values; the virtual
		// compression time follows the nonzeros of the largest part.
		if a.Metrics["wire_msgs_per_op"].Value != c.Metrics["wire_msgs_per_op"].Value && w.name != "compute_sweep" {
			t.Errorf("%s: wire_msgs_per_op changed with the seed: %v vs %v", w.name, a.Metrics["wire_msgs_per_op"].Value, c.Metrics["wire_msgs_per_op"].Value)
		}
		if a.Metrics["vcomp_ms_per_op"].Value == c.Metrics["vcomp_ms_per_op"].Value {
			t.Errorf("%s: vcomp_ms_per_op is %v for seeds 1 and 2, whose arrays differ", w.name, a.Metrics["vcomp_ms_per_op"].Value)
		}
	}
}

// TestCorruptionIsCaught flips a value in every second result before it
// is checked: the checks must turn that into failed ops.
func TestCorruptionIsCaught(t *testing.T) {
	for _, name := range []string{"dist_ed", "compute_sweep", "compute_spgemm", "serve_warm"} {
		doc := run(t, name, runOptions{seed: 1, seconds: 0.3, corrupt: true})
		if doc.Failed == 0 || doc.FailRatio <= 0 || doc.summary().Correct {
			t.Errorf("%s: corrupted results went unnoticed (%d failed of %d)", name, doc.Failed, doc.Attempted)
		}
	}
}

// TestTracedPass checks that the traced pass reports every per-layer
// metric of BENCHMARK.json, on a library and on a daemon workload, and
// that the span file can be read back.
func TestTracedPass(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range []string{"dist_wire", "serve_warm"} {
		o := runOptions{seed: 1, seconds: 1, traced: true, setups: 1, resultsDir: t.TempDir()}
		doc, err := runWorkload(workloadByName(name), o)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, doc, spec.PerLayer)
		if doc.Failed != 0 {
			t.Errorf("%s: %d ops failed: %v", name, doc.Failed, doc.Failures)
		}
		for _, floor := range []string{"machine.floor_msg_ns", "machine.run_spawn_us", "dist.floor_run_us", "server.floor_job_us"} {
			if n := len(doc.Metrics[floor].Series); n != floorReps {
				t.Errorf("%s: floor %s carries %d repetitions, want %d", name, floor, n, floorReps)
			}
		}
		// The real windows are 12x longer and covered to 0.99; here (and
		// under the race detector) the per-round bookkeeping between
		// spans weighs more.
		if cov := doc.Metrics["trace.span_coverage"].Value; cov < 0.85 || cov > 1.0001 {
			t.Errorf("%s: top-level spans cover %.3f of the traced window", name, cov)
		}
		data, err := os.ReadFile(o.resultsDir + "/trace-" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatal(err)
		}
		for i, sp := range tf.Spans {
			if sp.EndNS < sp.StartNS || sp.Parent >= i || !nameRE.MatchString(sp.Layer) {
				t.Fatalf("%s: span %d is malformed: %+v", name, i, sp)
			}
		}
		if len(tf.Spans) == 0 || tf.Summary.OpNS == 0 {
			t.Errorf("%s: empty trace", name)
		}
	}
}

func TestSummarizeSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Layer: "bench", Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "a", Layer: "x", Parent: 0, StartNS: 10, EndNS: 50},
		{Name: "b", Layer: "y", Parent: 0, StartNS: 40, EndNS: 70}, // overlaps a
		{Name: "c", Layer: "x", Parent: 1, StartNS: 20, EndNS: 30},
		{Name: "check", Layer: "bench", Parent: -1, StartNS: 100, EndNS: 120},
	}
	sum := summarize(spans, 120)
	if sum.OpNS != 100 || sum.SelfNS["x"] != 40 || sum.SelfNS["y"] != 30 || sum.SelfNS["bench"] != 40+20 || sum.Coverage != 1 {
		t.Errorf("summary %+v", sum)
	}
}
