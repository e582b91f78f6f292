package dist

import (
	"fmt"
	"testing"

	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// referenceBreakdown charges the paper's strictly sequential reference
// for one scheme directly on the compress primitives — no engine, no
// machine, no pipeline, no codec dispatch — and returns the expected
// virtual counters. It is the pre-refactor per-scheme loop written out
// straight-line: root encodes part 0..p-1 in order (one message +
// len(buf) elements per send), each receiver decodes on the side the
// paper books it.
func referenceBreakdown(t *testing.T, scheme string, g *sparse.Dense, part partition.Partition, method Method) *Breakdown {
	t.Helper()
	f, err := formatFor(method)
	if err != nil {
		t.Fatal(err)
	}
	p := part.NumParts()
	bd := newBreakdown(p)

	// The receiver-side minor conversion of Cases x.2/x.3: subtract the
	// map origin when ownership is contiguous, search otherwise.
	localise := func(a compress.PartArray, k int, ctr *cost.Counter) {
		m := part.ColMap(k)
		if f.MinorIsRow {
			m = part.RowMap(k)
		}
		if partition.Contiguous(m) {
			if len(m) > 0 {
				a.ShiftMinor(m[0], ctr)
			}
			return
		}
		if err := a.ConvertMinor(m, ctr); err != nil {
			t.Fatal(err)
		}
	}

	switch scheme {
	case "SFC":
		locals := partition.ExtractAll(g, part)
		for k := 0; k < p; k++ {
			l := locals[k]
			if !rowContiguousPart(part, k, g.Cols()) {
				bd.RootDist.AddOps(l.Size()) // element-wise packing of strided parts
			}
			bd.RootDist.AddSend(len(l.Data()))
			f.CompressDense(l, &bd.RankComp[k])
		}
	case "CFS":
		for k := 0; k < p; k++ {
			rowMap, colMap := part.RowMap(k), part.ColMap(k)
			a := f.CompressPart(g, rowMap, colMap, &bd.RootComp)
			buf := a.PackInto(nil, &bd.RootDist)
			bd.RootDist.AddSend(len(buf))
			got, err := f.Unpack(buf, len(rowMap), len(colMap), a.HeaderExtra(), &bd.RankDist[k])
			if err != nil {
				t.Fatal(err)
			}
			localise(got, k, &bd.RankDist[k])
		}
	case "ED":
		for k := 0; k < p; k++ {
			rowMap, colMap := part.RowMap(k), part.ColMap(k)
			buf := compress.EncodeEDPartInto(g.At, rowMap, colMap, f.Major, nil, &bd.RootComp)
			bd.RootDist.AddSend(len(buf))
			offset := 0
			var idxMap []int
			m := colMap
			if f.MinorIsRow {
				m = rowMap
			}
			if partition.Contiguous(m) {
				if len(m) > 0 {
					offset = m[0]
				}
			} else {
				idxMap = m
			}
			if _, err := f.DecodeED(buf, len(rowMap), len(colMap), offset, idxMap, &bd.RankComp[k]); err != nil {
				t.Fatal(err)
			}
		}
	default:
		t.Fatalf("unknown scheme %q", scheme)
	}

	return bd
}

// TestEngineParity proves the codec engine is cost-transparent: for
// every scheme x partition x method, over the bare channel transport
// and over the ARQ stack (Reliable(Fault(chan)), healthy), at both
// worker counts, the engine's
// virtual counters are byte-identical to the straight-line sequential
// reference computed without any of its machinery. A refactor that
// moves a charge between phases, drops a send, or double-charges a
// pipeline worker fails here immediately.
func TestEngineParity(t *testing.T) {
	const n, p = 36, 4
	g := sparse.Uniform(n, n, 0.15, 5)
	row, err := partition.NewRow(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	col, err := partition.NewCol(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := partition.NewMesh(n, n, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := partition.NewCyclicRow(n, n, p)
	if err != nil {
		t.Fatal(err)
	}

	for _, scheme := range []Codec{SFC{}, CFS{}, ED{}} {
		for _, part := range []partition.Partition{row, col, mesh, cyc} {
			for _, method := range []Method{CRS, CCS, JDS} {
				for _, reliable := range []bool{false, true} {
					for _, workers := range []int{1, 8} {
						// The reliable rows keep the "degrade=" label of
						// the rows they replace, so the subtest names
						// stay stable.
						name := fmt.Sprintf("%s/%s/%s/degrade=%v/workers=%d",
							scheme.Name(), part.Name(), method, reliable, workers)
						t.Run(name, func(t *testing.T) {
							want := referenceBreakdown(t, scheme.Name(), g, part, method)
							var m *machine.Machine
							if reliable {
								m, _, _, _ = faultyMachine(t, p, "chan")
							} else {
								m = newMachine(t, p)
							}
							res, err := distribute(scheme, m, g, part,
								Options{Method: method, Workers: workers})
							if err != nil {
								t.Fatal(err)
							}
							if err := Verify(g, part, res); err != nil {
								t.Fatal(err)
							}
							sameBreakdownCounters(t, want, res.Breakdown)
						})
					}
				}
			}
		}
	}
}
