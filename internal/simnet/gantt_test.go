package simnet

import "testing"

// The chart's bytes, glyphs and order invariance are pinned with the
// rest of the reporting surface in package trace.

// TestGanttEmpty: a timeline with nothing on it says so.
func TestGanttEmpty(t *testing.T) {
	net := NewNetwork(mustBuild(t, "uniform", 2, 0, 0), testParams)
	if got := net.Finalize().Gantt(10); got != "(no events)\n" {
		t.Errorf("empty gantt = %q", got)
	}
}
