package core

import (
	"fmt"

	"repro/internal/check"
)

// The differential sweep: every adversarial input from the check
// package's generator is distributed under every scheme x partition x
// method combination (optionally also over the ARQ reliability layer
// and over several transports), with the invariant checker on the
// hot path and the differential oracle on the result. One failing
// combination is one SweepFailure — the harness reports them all
// instead of stopping at the first.

// SweepConfig selects the axes of a DiffSweep. The zero value sweeps
// the full default matrix: 200 adversarial cases, all three schemes,
// the four structurally distinct partitions, all three methods, the
// chan transport, direct engine path only.
type SweepConfig struct {
	// Cases is the adversarial case count (default 200).
	Cases int
	// Seed drives the adversarial generator (default 1).
	Seed int64
	// Schemes, Partitions, Methods and Transports default to
	// SFC/CFS/ED plus "auto" (the cost model resolves the scheme per
	// case, with partition and method pinned by the sweep axes),
	// row/col/mesh/cyclic-row, CRS/CCS/JDS and chan.
	Schemes    []string
	Partitions []string
	Methods    []string
	Transports []string
	// Reliable additionally runs every combination over the ARQ
	// reliability layer (sequence numbers, checksums, ACKs) — the stack
	// a lossy link runs on has to be exact too, not just arrive.
	Reliable bool
	// Progress, when non-nil, is called after every completed run.
	Progress func(done, total int)
}

func (sc SweepConfig) withDefaults() SweepConfig {
	if sc.Cases == 0 {
		sc.Cases = 200
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if len(sc.Schemes) == 0 {
		sc.Schemes = []string{"SFC", "CFS", "ED", "auto"}
	}
	if len(sc.Partitions) == 0 {
		sc.Partitions = []string{"row", "col", "mesh", "cyclic-row"}
	}
	if len(sc.Methods) == 0 {
		sc.Methods = []string{"CRS", "CCS", "JDS"}
	}
	if len(sc.Transports) == 0 {
		sc.Transports = []string{"chan"}
	}
	return sc
}

// SweepFailure is one failing combination of a DiffSweep.
type SweepFailure struct {
	Case      string
	Scheme    string
	Partition string
	Method    string
	Transport string
	// Mode is the transport stack: "direct" or "reliable" (the same
	// engine over the ARQ layer).
	Mode string
	Err  error
}

// String renders the failing combination with its error.
func (f SweepFailure) String() string {
	return fmt.Sprintf("%s: %s/%s/%s/%s/%s: %v", f.Case, f.Scheme, f.Partition, f.Method, f.Transport, f.Mode, f.Err)
}

// SweepResult is the outcome of a DiffSweep.
type SweepResult struct {
	// Runs is the number of distributions executed.
	Runs int
	// Cases is the number of adversarial inputs swept.
	Cases int
	// Failures lists every combination whose run, invariant check or
	// differential oracle failed.
	Failures []SweepFailure
}

// DiffSweep distributes every adversarial case across the configured
// matrix with Check on, runs the differential oracle on each result,
// and collects the failures. It never stops early: a bug that breaks
// one combination is reported alongside every other combination it
// breaks, which is what localises it.
func DiffSweep(sc SweepConfig) *SweepResult {
	sc = sc.withDefaults()
	cases := check.Adversarial(sc.Cases, sc.Seed)
	modes := []string{"direct"}
	if sc.Reliable {
		modes = append(modes, "reliable")
	}
	total := len(cases) * len(sc.Schemes) * len(sc.Partitions) * len(sc.Methods) * len(sc.Transports) * len(modes)
	res := &SweepResult{Cases: len(cases)}
	for _, c := range cases {
		for _, transport := range sc.Transports {
			for _, scheme := range sc.Schemes {
				for _, part := range sc.Partitions {
					for _, method := range sc.Methods {
						for _, mode := range modes {
							err := sweepOne(c, scheme, part, method, transport, mode)
							res.Runs++
							if err != nil {
								res.Failures = append(res.Failures, SweepFailure{
									Case: c.Name, Scheme: scheme, Partition: part,
									Method: method, Transport: transport,
									Mode: mode, Err: err,
								})
							}
							if sc.Progress != nil {
								sc.Progress(res.Runs, total)
							}
						}
					}
				}
			}
		}
	}
	return res
}

// sweepOne runs a single combination end to end: distribute with the
// invariant checker on, then the differential oracle on the result.
func sweepOne(c check.Case, scheme, part, method, transport, mode string) error {
	cfg := Config{
		Scheme:    scheme,
		Partition: part,
		Method:    method,
		Transport: transport,
		Procs:     c.Procs,
		Check:     true,
		Reliable:  mode == "reliable",
	}
	d, err := Distribute(c.G, cfg)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.DiffCheck()
}
