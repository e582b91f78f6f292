package trace

import (
	"fmt"
	"strings"
	"time"
)

// Phase reporting: one row per algorithm phase pairing the virtual
// clock's estimate (the paper's cost model driven by measured event
// counts) with the measured wall time of the same phase. The two
// columns answer different questions — the virtual column is the
// machine-independent prediction the paper's tables are built from, the
// wall column is what this process actually spent — and the ratio
// between them shows where the emulation diverges from the model (e.g.
// a slow transport inflating wall distribution time, or the root
// loop's helpers compressing wall time below the sequential model).

// PhaseStat is one phase's virtual and wall duration. The JSON field
// names (durations in nanoseconds) are part of the sparsedistd job
// result format, so services can ship phase tables over the wire.
type PhaseStat struct {
	Name    string        `json:"name"`
	Virtual time.Duration `json:"virtual_ns"`
	Wall    time.Duration `json:"wall_ns"`
}

// PhaseTable renders aligned rows of phase timings with a wall/virtual
// ratio column. Phases with zero virtual time print "-" for the ratio.
func PhaseTable(stats []PhaseStat) string {
	nameW := len("phase")
	for _, s := range stats {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s %14s %14s %13s\n", nameW, "phase", "virtual", "wall", "wall/virtual")
	for _, s := range stats {
		ratio := "-"
		if s.Virtual > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(s.Wall)/float64(s.Virtual))
		}
		fmt.Fprintf(&b, "%-*s %14v %14v %13s\n", nameW, s.Name, s.Virtual, s.Wall, ratio)
	}
	return b.String()
}
