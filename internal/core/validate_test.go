package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/sparse"
)

// TestConfigValidate is the one bad-input table: every rule of
// Config.Validate once, every "zero is unset" once, and the requests
// the three front doors used to answer differently.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		want     string // substring of the error; "" means valid
		conflict bool   // the error is a *ConflictError
	}{
		{name: "zero config", cfg: Config{}},
		{name: "scheme lower case", cfg: Config{Scheme: "ed"}},
		{name: "scheme auto any case", cfg: Config{Scheme: "Auto"}},
		{name: "scheme unknown", cfg: Config{Scheme: "NOPE"}, want: `scheme "NOPE"`},
		{name: "partition descriptor", cfg: Config{Partition: "(Cyclic(2),*)"}},
		{name: "partition unknown", cfg: Config{Partition: "diagonal"}, want: "balanced-row"},
		{name: "descriptor unknown axis", cfg: Config{Partition: "(Bogus,*)"}, want: `partition "(Bogus,*)"`},
		{name: "descriptor distributes nothing", cfg: Config{Partition: "(*,*)"}, want: "distributes nothing"},
		{name: "descriptor block-cyclic columns", cfg: Config{Partition: "(*,Cyclic(2))"}, want: "not supported"},
		{name: "descriptor unterminated", cfg: Config{Partition: "(Block"}, want: "two comma-separated axes"},
		{name: "method JDS", cfg: Config{Method: "jds"}},
		{name: "method unknown", cfg: Config{Method: "COO"}, want: `method "COO": want CRS, CCS, JDS`},
		{name: "auto with method pins", cfg: Config{Scheme: "auto", Method: "CCS"}},
		{name: "transport model", cfg: Config{Transport: "model"}, want: `transport "model": want chan or tcp`},
		{name: "transport unknown", cfg: Config{Transport: "carrier-pigeon"}, want: "chan or tcp"},
		{name: "topology with overrides", cfg: Config{Topology: "star", LinkBW: 1e6, LinkLatency: time.Millisecond}},
		{name: "topology unknown", cfg: Config{Topology: "hypercube"}, want: `topology "hypercube"`},

		{name: "procs zero is unset", cfg: Config{Procs: 0, Partition: "mesh"}},
		{name: "procs negative", cfg: Config{Procs: -3}, want: "procs -3"},
		{name: "mesh negative", cfg: Config{MeshRows: -1, MeshCols: -1}, want: "mesh -1x-1"},
		{name: "mesh half set", cfg: Config{Partition: "mesh", MeshRows: 3, Procs: 6}, want: "mesh 3x0: set both"},
		{name: "mesh grid", cfg: Config{Partition: "mesh", MeshRows: 3, MeshCols: 2}},
		{name: "block negative", cfg: Config{BlockSize: -3}, want: "block -3"},
		{name: "workers negative", cfg: Config{Workers: -3}, want: "workers -3"},
		{name: "retries negative", cfg: Config{Retries: -2}, want: "retries -2"},
		{name: "retry-backoff negative", cfg: Config{RetryBackoff: -time.Millisecond}, want: "retry-backoff -1ms"},
		{name: "mem-budget zero is unset", cfg: Config{MemBudget: 0}},
		{name: "mem-budget negative", cfg: Config{MemBudget: -1}, want: "mem-budget -1"},
		{name: "fault-drop negative", cfg: Config{FaultDrops: -1}, want: "fault-drop -1"},
		{name: "fault-corrupt negative", cfg: Config{FaultCorrupt: -1}, want: "fault-corrupt -1"},

		{name: "link-latency negative", cfg: Config{Topology: "mesh", LinkLatency: -time.Second}, want: "link-latency -1s"},
		{name: "link-bw negative", cfg: Config{Topology: "bus", LinkBW: -1}, want: "link-bw -1"},
		{name: "link-bw NaN", cfg: Config{Topology: "bus", LinkBW: math.NaN()}, want: "link-bw NaN"},
		{name: "link-bw infinite", cfg: Config{Topology: "bus", LinkBW: math.Inf(1)}, want: "link-bw +Inf"},
		{name: "link-bw without topology", cfg: Config{LinkBW: 1e6}, want: "without topology", conflict: true},
		{name: "link-latency without topology", cfg: Config{LinkLatency: time.Millisecond}, want: "without topology", conflict: true},
		{name: "params zero is unset", cfg: Config{Params: cost.Params{}}},
		{name: "params negative", cfg: Config{Params: cost.Params{TStartup: time.Microsecond, TData: -1}}, want: "params"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want mention of %q", err, tc.want)
			}
			var conflict *ConflictError
			if got := errors.As(err, &conflict); got != tc.conflict {
				t.Fatalf("errors.As(*ConflictError) = %v, want %v (err %q)", got, tc.conflict, err)
			}
		})
	}
}

// TestValidateAllocatesNothing: every Distribute call validates, so the
// accepting path must stay off the heap.
func TestValidateAllocatesNothing(t *testing.T) {
	cfg := Config{Scheme: "ED", Partition: "mesh", Procs: 6, Method: "CRS", Transport: "tcp", Topology: "mesh", Retries: 2}
	if n := testing.AllocsPerRun(100, func() {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Validate allocates %v times on a valid config", n)
	}
}

// TestEntryPointsValidateFirst: the library rejects what its front
// doors reject, with Validate's own message, instead of running on a
// silently different plan.
func TestEntryPointsValidateFirst(t *testing.T) {
	g := sparse.Uniform(8, 8, 0.2, 5)
	for _, cfg := range []Config{
		{Partition: "mesh", MeshRows: 3, Procs: 6},
		{LinkBW: 1e6},
		{Workers: -3},
		{BlockSize: -3},
		{Retries: -2},
		{MemBudget: -1},
	} {
		want := cfg.Validate()
		if want == nil {
			t.Fatalf("config %+v is valid", cfg)
		}
		if _, err := Distribute(g, cfg); err == nil || err.Error() != want.Error() {
			t.Errorf("Distribute(%+v) = %v, want %v", cfg, err, want)
		}
		src := sparse.NewUniformStream(8, 8, 12, 5, sparse.DefaultChunkEntries)
		if _, err := DistributeStream(src, cfg); err == nil || err.Error() != want.Error() {
			t.Errorf("DistributeStream(%+v) = %v, want %v", cfg, err, want)
		}
	}
}

// TestPartitionNamesMatchBuilder builds every listed partition name on
// an 8x8 array: the list feeds the help text and Validate, the switch
// in newPartitionAt builds, and the two must not drift apart.
func TestPartitionNamesMatchBuilder(t *testing.T) {
	g := sparse.Uniform(8, 8, 0.3, 9)
	for _, name := range partitionNames {
		cfg := Config{Partition: name}
		if err := cfg.Validate(); err != nil {
			t.Errorf("listed partition %q rejected by Validate: %v", name, err)
		}
		part, err := NewPartition(g, cfg.Normalized())
		if err != nil {
			t.Errorf("listed partition %q does not build: %v", name, err)
			continue
		}
		if part.NumParts() != 4 {
			t.Errorf("partition %q has %d parts, want the default 4", name, part.NumParts())
		}
		if !strings.Contains(PartitionNames(), name) {
			t.Errorf("PartitionNames() omits %q", name)
		}
	}
	bogus := Config{Partition: "diagonal"}
	verr := bogus.Validate()
	_, berr := NewPartition(g, bogus.Normalized())
	if verr == nil || berr == nil || verr.Error() != berr.Error() {
		t.Errorf("unknown partition: Validate says %v, the builder says %v; want one message", verr, berr)
	}
}
