package dist

import (
	"testing"

	"repro/internal/partition"
	"repro/internal/sparse"
)

// FuzzDiffStream is the streaming engine's differential fuzz target:
// the fuzzer's bytes become a shape of at most 24x24 and a triplet list
// in arbitrary order — duplicates, explicit zeros and erasures
// included — and one of the 72 scheme x method x partition-kind
// combinations on 1-7 processors, streamed through tiny flush and
// credit windows. RunStream must reassemble the local arrays Run builds
// from the materialized source and charge the same counters. Seeds:
// TestStreamParity's array under every combination, an all-duplicates
// source and an empty one.
func FuzzDiffStream(f *testing.F) {
	var parity []byte // TestStreamParity's array, its leading 24x24 block
	for i, e := range sparse.FromDense(sparse.Uniform(36, 36, 0.15, 5)).Entries {
		if e.Row < 24 && e.Col < 24 {
			parity = append(parity, byte(e.Row), byte(e.Col), byte(1+i%120))
		}
	}
	for axis := 0; axis < 72; axis++ {
		f.Add(parity, uint8(24), uint8(24), uint8(3), uint8(axis), uint8(axis))
	}
	dups := []byte{3, 4, 5, 3, 4, 0, 3, 4, 9, 3, 4, 200, 3, 4, 0, 3, 4, 7}
	f.Add(dups, uint8(6), uint8(5), uint8(2), uint8(2), uint8(0))
	f.Add(dups, uint8(6), uint8(5), uint8(6), uint8(58), uint8(17))
	f.Add([]byte(nil), uint8(10), uint8(7), uint8(4), uint8(37), uint8(5))

	codecs := []Codec{SFC{}, CFS{}, ED{}}
	methods := []Method{CRS, CCS, JDS}
	f.Fuzz(func(t *testing.T, raw []byte, rows8, cols8, procs8, axis8, window8 uint8) {
		rows, cols, p := int(rows8)%25, int(cols8)%25, 1+int(procs8)%7
		coo := sparse.NewCOO(rows, cols)
		for i := 0; rows > 0 && cols > 0 && i+2 < len(raw); i += 3 {
			coo.Entries = append(coo.Entries, sparse.Entry{
				Row: int(raw[i]) % rows, Col: int(raw[i+1]) % cols, Val: float64(int8(raw[i+2]))})
		}
		g, err := sparse.Materialize(sparse.NewStreamCOO(coo, 5))
		if err != nil {
			t.Fatal(err)
		}
		axis := int(axis8)
		codec, method := codecs[axis%3], methods[axis/3%3]
		part, err := fuzzPartition(axis/9%8, g, p)
		if err != nil {
			t.Fatal(err) // every kind accepts every shape and count here
		}
		opts := Options{Method: method}
		m := newMachine(t, p)
		want, err := Run(m, Plan{Codec: codec, Global: g, Partition: part, Options: opts})
		if err != nil {
			t.Fatalf("materializing: %v", err)
		}
		w := int(window8)
		got, err := RunStream(m, StreamPlan{Codec: codec, Source: sparse.NewStreamCOO(coo, 5), Partition: part, Options: opts,
			Stream: StreamOptions{FlushEntries: 1 + w%4, MemBudget: 24 * (1 + w/4%8), MaxInflight: 1 + w/32%3}})
		if err != nil {
			t.Fatalf("streaming %s/%s/%s: %v", codec.Name(), method, part.Name(), err)
		}
		sameLocals(t, codec.Name()+"/"+method.String()+"/"+part.Name(), got, want)
		sameBreakdownCounters(t, want.Breakdown, got.Breakdown)
	})
}

// fuzzPartition builds partition kind k (of eight) of g over p parts.
func fuzzPartition(k int, g *sparse.Dense, p int) (*partition.Grid, error) {
	rows, cols := g.Rows(), g.Cols()
	pr, pc := partition.SquareGrid(p)
	switch k {
	case 0:
		return partition.NewRow(rows, cols, p)
	case 1:
		return partition.NewCol(rows, cols, p)
	case 2:
		return partition.NewMesh(rows, cols, pr, pc)
	case 3:
		return partition.NewCyclicRow(rows, cols, p)
	case 4:
		return partition.NewCyclicCol(rows, cols, p)
	case 5:
		return partition.NewBlockCyclicRow(rows, cols, p, 3)
	case 6:
		return partition.NewCyclicMesh(rows, cols, pr, pc, 2, 3)
	default:
		return partition.NewBalancedRowFromCounts(sparse.RowNNZ(g), g.Cols(), p)
	}
}
