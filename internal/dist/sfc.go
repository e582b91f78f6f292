package dist

import (
	"time"

	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/simnet"
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

// Name implements Codec.
func (SFC) Name() string { return "SFC" }

// Policy implements Codec: extraction/packing at the root is
// distribution work (so waiting on a helper stays on that side too), and
// the receivers' compression is the scheme's entire compression phase.
func (SFC) Policy() PhasePolicy {
	return PhasePolicy{RootEncode: simnet.ClassRootDist, Receive: simnet.ClassRankComp}
}

// EncodePart implements Codec. A part of whole consecutive rows (row,
// balanced-row) is already contiguous in the global array and is sent
// "without packing into buffers" (paper §4.1.1): the payload is a view
// of the global array's memory, capped at the part's end so no append
// reaches past it, unpooled and uncharged — sound because no decoder
// writes into its payload. Column, mesh and cyclic parts are
// strided in memory and are packed element-by-element into a pooled
// wire buffer — the cost that makes SFC's measured column/mesh
// distribution times much larger than its row ones (paper Tables 4-5)
// and lowers the Remark 5 thresholds — which the receiver releases
// once compressed.
func (SFC) EncodePart(run *runState, k int, pp *partPayload) error {
	start := time.Now()
	rowMap, colMap := run.part.RowMap(k), run.part.ColMap(k)
	if _, cols := run.part.Shape(); rowContiguousPart(run.part, k, cols) {
		pp.meta = [4]int64{int64(len(rowMap)), int64(cols)}
		if len(rowMap) > 0 {
			lo, hi := rowMap[0]*cols, (rowMap[len(rowMap)-1]+1)*cols
			pp.buf = run.global.Data()[lo:hi:hi]
		}
	} else {
		densePayload(run, k, partition.AppendPart(machine.GetBuf(len(rowMap)*len(colMap)), run.global, run.part, k), pp)
	}
	pp.wallDist = time.Since(start)
	return nil
}

// EncodeEntries implements Codec: the dense local scattered out of the
// part's staged entries into a buffer of its own. The charges are
// EncodePart's: a row block's scatter stands in for its uncharged
// view, any other part's for its packing.
func (SFC) EncodeEntries(run *runState, k int, st *compress.Entries, pp *partPayload) error {
	start := time.Now()
	l, err := st.Dense(run.part.RowMap(k), run.part.ColMap(k))
	if err != nil {
		return err
	}
	densePayload(run, k, l.Data(), pp)
	pp.wallDist = time.Since(start)
	return nil
}

// densePayload makes part k's dense local data, row-major, its
// payload, charging the element-by-element packing of a part that is
// not a contiguous block of whole rows. The data must be the payload's
// alone: the receiver recycles it.
func densePayload(run *runState, k int, data []float64, pp *partPayload) {
	_, cols := run.part.Shape()
	if !rowContiguousPart(run.part, k, cols) {
		pp.dist.AddOps(len(data))
	}
	pp.meta = [4]int64{int64(len(run.part.RowMap(k))), int64(len(run.part.ColMap(k)))}
	pp.buf = data
	pp.pooled = true
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
