package dist

import (
	"time"

	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// SFC is the Send Followed Compress scheme (paper §3.1), the intuitive
// baseline used by BRS-style distributions: the root sends each *dense*
// local array — zeros included — and every processor compresses its own
// piece after receiving it.
//
// Cost shape (row partition, Table 1): distribution is p·T_Startup +
// n²·T_Data (the whole array crosses the wire, no packing); compression
// is ⌈n/p⌉·n·(1+3s')·T_Operation, incurred in parallel at the receivers.
type SFC struct{}

// Name implements Scheme.
func (SFC) Name() string { return "SFC" }

// Scheme implements Codec.
func (SFC) Scheme() string { return "SFC" }

// Policy implements Codec: extraction/packing at the root is
// distribution work (so pipeline stall stays on that side too), and
// the receivers' compression is the scheme's entire compression phase.
func (SFC) Policy() PhasePolicy {
	return PhasePolicy{RootEncode: PhaseDistribution, Receive: PhaseCompression}
}

// Prepare implements Codec: materialise the dense local arrays up
// front — the paper's analysis excludes partition time.
func (SFC) Prepare(run *runState) error {
	run.locals = partition.ExtractAll(run.global, run.part)
	return nil
}

// EncodePart implements Codec. For the row partition each local array
// is a contiguous block of the global array, sent "without packing
// into buffers" (paper §4.1.1). Column, mesh and cyclic parts are
// strided in memory and must be packed element-by-element first — the
// cost that makes SFC's measured column/mesh distribution times much
// larger than its row ones (paper Tables 4-5) and lowers the Remark 5
// thresholds. The payload aliases the local array, so it is never
// pooled.
func (SFC) EncodePart(run *runState, k int, pp *partPayload) error {
	l := run.locals[k]
	start := time.Now()
	if !rowContiguousPart(run.part, k, run.global.Cols()) {
		pp.dist.AddOps(l.Size())
	}
	pp.meta = [4]int64{int64(l.Rows()), int64(l.Cols())}
	pp.buf = l.Data()
	pp.wallDist = time.Since(start)
	return nil
}

// EncodePartAt implements canonicalEncoder: build the dense local from
// a cell accessor — the streaming receiver's replay of SFC's root
// encode. The extraction itself is Prepare-time work on the
// materializing path and charges nothing; only the non-contiguous
// packing charge is booked, exactly as EncodePart does.
func (SFC) EncodePartAt(run *runState, k int, at func(i, j int) float64, pp *partPayload) error {
	rowMap, colMap := run.part.RowMap(k), run.part.ColMap(k)
	start := time.Now()
	l := sparse.NewDense(len(rowMap), len(colMap))
	for li, gi := range rowMap {
		for lj, gj := range colMap {
			if v := at(gi, gj); v != 0 {
				l.Set(li, lj, v)
			}
		}
	}
	_, cols := run.part.Shape()
	if !rowContiguousPart(run.part, k, cols) {
		pp.dist.AddOps(l.Size())
	}
	pp.meta = [4]int64{int64(l.Rows()), int64(l.Cols())}
	pp.buf = l.Data()
	pp.wallDist = time.Since(start)
	return nil
}

// DecodePart implements Codec: rebuild the dense local array from the
// payload and compress it (the scheme's compression phase).
func (SFC) DecodePart(run *runState, _ int, data []float64, meta [4]int64, ctr *cost.Counter) (compress.PartArray, error) {
	local, err := sparse.DenseFromSlice(int(meta[0]), int(meta[1]), data)
	if err != nil {
		return nil, err
	}
	return run.format.CompressDense(local, ctr), nil
}

// Distribute implements Scheme over the shared engine.
func (s SFC) Distribute(m *machine.Machine, g *sparse.Dense, part partition.Partition, opts Options) (*Result, error) {
	return Run(m, Plan{Codec: s, Global: g, Partition: part, Options: opts})
}

// replayMajor implements canonicalEncoder: the dense-local build above
// scans row-major regardless of the receive-side method.
func (SFC) replayMajor(*runState) compress.Major { return compress.RowMajor }
