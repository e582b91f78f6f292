package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/costmodel"
	"repro/internal/simnet"
	"repro/internal/sparse"
)

// scheme=auto: Config.Scheme "auto" asks the cost model to pick the
// plan. Distribute measures the array's statistics, runs
// costmodel.Select over every candidate the config leaves free, and
// runs the winner through the exact same engine path as an explicit
// config — auto never bypasses the differential harness, validators or
// reassembly oracle, so a misprediction can only cost time, never
// correctness. Fields the caller sets explicitly (Partition, Method,
// Workers, mesh grid) are pinned; Select only ranks what is left free.

// ErrAutoStream is returned when scheme=auto is combined with the
// streaming path: selection needs the full nonzero histograms, which a
// bounded-memory stream never materializes.
var ErrAutoStream = errors.New(`core: scheme "auto" is not supported on the streaming path (selection needs full array statistics); pick a scheme explicitly`)

// IsAutoScheme reports whether the scheme name requests cost-model
// plan selection.
func IsAutoScheme(scheme string) bool { return strings.EqualFold(scheme, "auto") }

// AutoChoice records what the cost model picked for a scheme=auto run
// and what it predicted for the winner.
type AutoChoice struct {
	Scheme    string // resolved scheme: "SFC", "CFS" or "ED"
	Partition string // resolved partition name
	Method    string // resolved method name
	Workers   int    // suggested root encode workers (0 = engine default)
	Predicted costmodel.Estimate
	// Ranked is the full candidate ranking behind the decision, in the
	// model's fixed enumeration order.
	Ranked []costmodel.Candidate
}

// AutoSelectOptions derives the cost-model selection options from a
// config: everything the caller set explicitly becomes a pin, and a
// configured topology makes selection contention-aware.
func AutoSelectOptions(cfg Config) (costmodel.SelectOptions, error) {
	// Processor count, mesh grid and params come from the default table;
	// the pins come from cfg as sent, where empty means "free".
	d := cfg.withDefaults()
	opts := costmodel.SelectOptions{
		Procs:    d.Procs,
		MeshRows: d.MeshRows,
		MeshCols: d.MeshCols,
		Params:   d.Params,
	}
	if cfg.Partition != "" {
		kind := costmodel.KindFor(cfg.Partition)
		opts.Kind = &kind
	}
	if cfg.Method != "" {
		method := costmodel.MethodFor(cfg.Method)
		opts.Method = &method
	}
	if cfg.Topology != "" {
		top, err := simnet.Build(cfg.Topology, d.Procs, d.Params, cfg.LinkBW, cfg.LinkLatency)
		if err != nil {
			return costmodel.SelectOptions{}, fmt.Errorf("core: auto selection: %w", err)
		}
		opts.Topology = top
	}
	return opts, nil
}

// ResolveAutoStats resolves a scheme=auto config against already
// measured statistics. It is a pure function of its arguments. The
// returned config is concrete — Scheme, Partition and Method all set —
// and ready for withDefaults.
func ResolveAutoStats(st costmodel.ArrayStats, cfg Config) (Config, *AutoChoice, error) {
	opts, err := AutoSelectOptions(cfg)
	if err != nil {
		return Config{}, nil, err
	}
	choice, err := costmodel.Select(st, opts)
	if err != nil {
		return Config{}, nil, fmt.Errorf("core: auto selection: %w", err)
	}
	auto := &AutoChoice{
		Scheme:    choice.Scheme,
		Partition: cfg.Partition,
		Method:    cfg.Method,
		Workers:   cfg.Workers,
		Predicted: choice.Predicted,
		Ranked:    choice.Ranked,
	}
	if auto.Partition == "" {
		auto.Partition = choice.Kind.String() // "row", "col" or "mesh"
	}
	if auto.Method == "" {
		auto.Method = choice.Method.String() // "CRS" or "CCS"
	}
	if auto.Workers == 0 {
		auto.Workers = choice.Workers
	}
	out := cfg
	out.Scheme = auto.Scheme
	out.Partition = auto.Partition
	out.Method = auto.Method
	out.Workers = auto.Workers
	return out, auto, nil
}

// ResolveAuto measures g and resolves a scheme=auto config to the
// model-predicted best concrete config.
func ResolveAuto(g *sparse.Dense, cfg Config) (Config, *AutoChoice, error) {
	return ResolveAutoStats(costmodel.MeasureStats(g), cfg)
}
