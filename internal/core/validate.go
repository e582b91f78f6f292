package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/partition"
	"repro/internal/simnet"
)

// ConflictError reports two individually valid settings that cannot be
// combined. Distinct from a plain bad value so callers (and tests) can
// tell "fix this field" from "drop one of these fields".
type ConflictError struct {
	Fields string // the offending combination, e.g. "link-bw/link-latency without topology"
	Reason string
}

func (e *ConflictError) Error() string { return e.Fields + ": " + e.Reason }

// partitionNames are the names newPartitionAt switches on, in help
// order.
var partitionNames = []string{"row", "col", "mesh", "cyclic-row", "cyclic-col", "brs", "cyclic-mesh", "balanced-row"}

// PartitionNames lists every accepted Config.Partition spelling, for
// help and error strings.
func PartitionNames() string {
	return strings.Join(partitionNames, ", ") + " or an HPF descriptor like (Block,*)"
}

func unknownPartition(name string) error {
	return fmt.Errorf("partition %q: want %s", name, PartitionNames())
}

func unknownTransport(name string) error {
	return fmt.Errorf("transport %q: want chan or tcp", name)
}

// Validate reports the first rule the request breaks, or nil. It is
// the one statement of what a valid plan request is: Distribute and
// DistributeStream call it first, sparsedist and the
// daemon's JobSpec call it from their own validators, and those keep
// only the rules about things Config does not describe (the input
// array, admission limits, flag combinations that are an edge's
// policy). Zero means unset and is always valid; each message names the
// field by its flag spelling. Success allocates nothing.
func (c Config) Validate() error {
	if c.Scheme != "" && !IsAutoScheme(c.Scheme) {
		if _, err := dist.CodecByName(strings.ToUpper(c.Scheme)); err != nil {
			return fmt.Errorf("scheme %q: want SFC, CFS, ED or auto", c.Scheme)
		}
	}
	if strings.HasPrefix(c.Partition, "(") {
		if err := partition.CheckDescriptor(c.Partition); err != nil {
			return fmt.Errorf("partition %q: %w", c.Partition, err)
		}
	} else if c.Partition != "" && !slices.Contains(partitionNames, c.Partition) {
		return unknownPartition(c.Partition)
	}
	if c.Method != "" {
		if _, err := ParseMethod(c.Method); err != nil {
			return err
		}
	}
	switch c.Transport {
	case "", "chan", "tcp":
	default:
		return unknownTransport(c.Transport)
	}
	if !simnet.ValidTopology(c.Topology) {
		return fmt.Errorf("topology %q: unknown topology (want %s)", c.Topology, simnet.TopologyNames())
	}

	if c.MeshRows < 0 || c.MeshCols < 0 {
		return fmt.Errorf("mesh %dx%d: grid dimensions cannot be negative", c.MeshRows, c.MeshCols)
	}
	if (c.MeshRows > 0) != (c.MeshCols > 0) {
		return fmt.Errorf("mesh %dx%d: set both grid dimensions or neither", c.MeshRows, c.MeshCols)
	}
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{"procs", c.Procs}, {"block", c.BlockSize}, {"workers", c.Workers}, {"retries", c.Retries},
		{"mem-budget", c.MemBudget}, {"fault-drop", c.FaultDrops}, {"fault-corrupt", c.FaultCorrupt},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s %d: cannot be negative", f.name, f.v)
		}
	}
	for _, f := range [...]struct {
		name string
		v    time.Duration
	}{{"retry-backoff", c.RetryBackoff}, {"link-latency", c.LinkLatency}} {
		if f.v < 0 {
			return fmt.Errorf("%s %v: cannot be negative", f.name, f.v)
		}
	}
	if c.LinkBW < 0 || math.IsNaN(c.LinkBW) || math.IsInf(c.LinkBW, 0) {
		return fmt.Errorf("link-bw %g: bandwidth must be a finite non-negative words/s", c.LinkBW)
	}
	if c.Topology == "" && (c.LinkBW > 0 || c.LinkLatency > 0) {
		return &ConflictError{
			Fields: "link-bw/link-latency without topology",
			Reason: "the overrides price a topology's bottleneck links; set topology",
		}
	}
	if err := c.Params.Validate(); err != nil {
		return fmt.Errorf("params: %w", err)
	}
	return nil
}
