package trace

import (
	"testing"
	"time"
)

// The phase table is part of every run report; its exact bytes for a
// fixed set of phases are pinned here. A deliberate format change must
// update this string.

const goldenPhaseTable = `phase                 virtual           wall  wall/virtual
T_Distribution           10ms           25ms         2.50x
T_Compression             4ms            1ms         0.25x
T_Zero                     0s            1ms             -
`

func TestPhaseTableGolden(t *testing.T) {
	got := PhaseTable([]PhaseStat{
		{Name: "T_Distribution", Virtual: 10 * time.Millisecond, Wall: 25 * time.Millisecond},
		{Name: "T_Compression", Virtual: 4 * time.Millisecond, Wall: time.Millisecond},
		{Name: "T_Zero", Virtual: 0, Wall: time.Millisecond},
	})
	if got != goldenPhaseTable {
		t.Errorf("phase table drifted:\n got:\n%s\nwant:\n%s", got, goldenPhaseTable)
	}
}
