package spops

import (
	"math"
	"strings"
	"testing"

	"repro/internal/machine"
)

// TestDecodeRowsRejectsCorruptBuffers feeds decodeRows hand-damaged
// special buffers. The plan lists 3 rows over 6 columns; the intact
// buffer holds rows {1:2, 4:3}, {}, {0:5}. Every damaged variant must
// come back as an error naming the phase and the sender — none may
// panic, and none may hand the kernel an index it would trust.
func TestDecodeRowsRejectsCorruptBuffers(t *testing.T) {
	const rows, cols, from = 3, 6, 2
	good := []float64{2, 0, 1, 1, 2, 4, 3, 0, 5}
	with := func(i int, w float64) []float64 {
		b := append([]float64(nil), good...)
		b[i] = w
		return b
	}
	msg := func(meta int64, data []float64) *machine.Message {
		return &machine.Message{From: from, Meta: [4]int64{meta}, Data: data}
	}
	if m, err := decodeRows("fetch", msg(rows, good), rows, cols); err != nil {
		t.Fatalf("intact buffer rejected: %v", err)
	} else if m.NNZ() != 3 || m.RowNNZ(0) != 2 || m.RowNNZ(1) != 0 || m.At(2, 0) != 5 {
		t.Fatalf("intact buffer decoded wrong: %+v", m)
	}

	cases := []struct {
		name string
		meta int64
		data []float64
	}{
		{"count not integral", rows, with(0, 1.5)},
		{"count negative", rows, with(1, -1)},
		{"count NaN", rows, with(2, math.NaN())},
		{"count infinite", rows, with(2, math.Inf(1))},
		{"count beyond exact integers", rows, with(0, 1<<60)},
		{"count sum above pair count", rows, with(1, 1)},
		{"count sum below pair count", rows, with(0, 1)},
		{"pair region odd", rows, good[:len(good)-1]},
		{"shorter than the counts", rows, good[:2]},
		{"empty", rows, nil},
		{"more rows than the plan lists", rows + 1, append([]float64{0}, good...)},
		{"fewer rows than the plan lists", rows - 1, good[1:]},
		{"column at Cols", rows, with(5, cols)},
		{"column negative", rows, with(3, -1)},
		{"column not integral", rows, with(3, 0.5)},
		{"column NaN", rows, with(7, math.NaN())},
		{"columns descending", rows, with(3, 5)},
		{"column repeated", rows, with(5, 1)},
		{"explicit zero", rows, with(4, 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := decodeRows("fetch", msg(tc.meta, tc.data), rows, cols)
			if err == nil {
				t.Fatalf("accepted: %+v", m)
			}
			if s := err.Error(); !strings.Contains(s, "fetch") || !strings.Contains(s, "rank 2") {
				t.Fatalf("error does not name phase and sender: %v", err)
			}
		})
	}
}
