package spops

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/machine"
)

// The row buffers below are decoded against a plan that lists 3 rows
// over 6 columns from rank 2; the intact buffer holds rows {1:2, 4:3},
// {}, {0:5}.
const rows, cols, from = 3, 6, 2

var good = []float64{2, 0, 1, 1, 2, 4, 3, 0, 5}

// rowBuffer is a row buffer with the row count its header claims.
type rowBuffer struct {
	name string
	meta int64
	data []float64
}

// corruptRows are the hand-damaged variants of good.
func corruptRows() []rowBuffer {
	with := func(i int, w float64) []float64 {
		b := append([]float64(nil), good...)
		b[i] = w
		return b
	}
	return []rowBuffer{
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
}

func rowsMsg(meta int64, data []float64) *machine.Message {
	return &machine.Message{From: from, Meta: [4]int64{meta}, Data: data}
}

// TestDecodeRowsRejectsCorruptBuffers feeds decodeRows hand-damaged
// special buffers. Every damaged variant must come back as an error
// naming the phase and the sender — none may panic, and none may hand
// the kernel an index it would trust.
func TestDecodeRowsRejectsCorruptBuffers(t *testing.T) {
	if m, err := decodeRows("fetch", rowsMsg(rows, good), rows, cols); err != nil {
		t.Fatalf("intact buffer rejected: %v", err)
	} else if m.NNZ() != 3 || m.RowNNZ(0) != 2 || m.RowNNZ(1) != 0 || m.At(2, 0) != 5 {
		t.Fatalf("intact buffer decoded wrong: %+v", m)
	}
	for _, tc := range corruptRows() {
		t.Run(tc.name, func(t *testing.T) {
			m, err := decodeRows("fetch", rowsMsg(tc.meta, tc.data), rows, cols)
			if err == nil {
				t.Fatalf("accepted: %+v", m)
			}
			if s := err.Error(); !strings.Contains(s, "fetch") || !strings.Contains(s, "rank 2") {
				t.Fatalf("error does not name phase and sender: %v", err)
			}
		})
	}
}

// wordBytes packs words as the little-endian bit patterns
// FuzzDecodeRows reads its buffer from.
func wordBytes(data []float64) []byte {
	raw := make([]byte, 8*len(data))
	for i, w := range data {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(w))
	}
	return raw
}

// FuzzDecodeRows feeds arbitrary row buffers, header row counts and plan
// shapes to decodeRows, seeded with the intact buffer and the 19 damaged
// ones. It must never panic, and a buffer it accepts must decode to a
// well-formed CRS of the plan's shape.
func FuzzDecodeRows(f *testing.F) {
	f.Add(int64(rows), uint8(rows), uint8(cols), wordBytes(good))
	for _, tc := range corruptRows() {
		f.Add(tc.meta, uint8(rows), uint8(cols), wordBytes(tc.data))
	}
	f.Fuzz(func(t *testing.T, meta int64, nr, nc uint8, raw []byte) {
		data := make([]float64, len(raw)/8)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		m, err := decodeRows("fetch", rowsMsg(meta, data), int(nr), int(nc))
		if err != nil {
			return
		}
		if m.Rows != int(nr) || m.Cols != int(nc) {
			t.Fatalf("accepted buffer decoded to %dx%d, plan is %dx%d", m.Rows, m.Cols, nr, nc)
		}
		if err := check.CRS(m); err != nil {
			t.Fatalf("accepted buffer decoded to an ill-formed CRS: %v", err)
		}
	})
}
