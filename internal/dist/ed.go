package dist

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/simnet"
)

// ED is the Encoding-Decoding scheme (paper §3.3), the paper's novel
// contribution. The compression phase is split around the distribution
// phase: the root *encodes* each piece into a special buffer (per-line
// nonzero counts followed by alternating global-index/value pairs,
// Figure 6), the buffer itself is the wire message — no separate packing
// — and the receiver *decodes* it into RO/CO/VL, converting global
// indices to local (Cases 3.3.1-3.3.3).
//
// Cost shape (row partition + CRS, Table 1): distribution is only
// p·T_Startup + (2n²s+n)·T_Data — strictly less than CFS (no pack ops,
// fewer words) and less than SFC whenever s < 0.5 (Remark 1).
// Compression is the root's encode n²(1+3s) plus the receivers' parallel
// decode ⌈n/p⌉·n·(2s'+1/n)+1 — the largest of the three schemes
// (Remark 3); the trade wins overall when T_Data is expensive relative
// to T_Operation (Remark 5).
type ED struct{}

// Name implements Codec.
func (ED) Name() string { return "ED" }

// Policy implements Codec: encode and decode are both compression
// work; only the bare transfer is distribution — the split that buys
// ED its smaller T_Distribution.
func (ED) Policy() PhasePolicy {
	return PhasePolicy{RootEncode: simnet.ClassRootComp, Receive: simnet.ClassRankComp}
}

// EncodePart implements Codec: encode part k's special buffer
// (compression phase) by one scan of the global array through the
// part's row and column maps. The buffer itself is the wire message —
// no separate packing step. JDS rides the row-major buffer
// (Format.Major) and re-lays diagonals at the receiver.
func (e ED) EncodePart(run *runState, k int, pp *partPayload) error {
	rowMap, colMap := run.part.RowMap(k), run.part.ColMap(k)
	pp.meta = [4]int64{int64(len(rowMap)), int64(len(colMap))}
	start := time.Now()
	pp.buf = compress.EncodeED(run.global, rowMap, colMap, run.format.Major, machine.GetBuf(0), &pp.comp)
	pp.pooled = true
	pp.wallComp = time.Since(start)
	return e.checkEncoded(run, k, pp)
}

// EncodeEntries implements Codec: the special buffer sorted out of the
// part's staged entries, in s's buffer — a payload that is decoded in
// place and never sent, so it stays out of the wire pool.
func (e ED) EncodeEntries(run *runState, k int, st *compress.Entries, s *compress.EntryScratch, pp *partPayload) error {
	rowMap, colMap := run.part.RowMap(k), run.part.ColMap(k)
	pp.meta = [4]int64{int64(len(rowMap)), int64(len(colMap))}
	start := time.Now()
	var err error
	if pp.buf, err = compress.EncodeEDPartEntries(st, rowMap, colMap, run.format.Major, s, &pp.comp); err != nil {
		return err
	}
	pp.wallComp = time.Since(start)
	return e.checkEncoded(run, k, pp)
}

// checkEncoded is the root-side invariant under Options.Check: the
// special buffer is well formed and every stored index stays inside the
// part's cross product.
func (ED) checkEncoded(run *runState, k int, pp *partPayload) error {
	if !run.opts.Check {
		return nil
	}
	rowMap, colMap := run.part.RowMap(k), run.part.ColMap(k)
	counts, minor := len(rowMap), colMap
	if run.format.Major == compress.ColMajor {
		counts, minor = len(colMap), rowMap
	}
	if err := check.EDBufferOwned(pp.buf, counts, minor); err != nil {
		return fmt.Errorf("dist: ED encode part %d: %w", k, err)
	}
	return nil
}

// DecodePart implements Codec: decode the special buffer straight into
// compressed form, converting global indices to local (Cases
// 3.3.1-3.3.3).
func (ED) DecodePart(run *runState, k int, data []float64, meta [4]int64, ctr *cost.Counter) (compress.PartArray, error) {
	offset, idxMap := minorOffsetAndMap(run.part, k, run.format)
	return run.format.DecodeED(data, int(meta[0]), int(meta[1]), offset, idxMap, ctr)
}
