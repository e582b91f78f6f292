package dist

import (
	"fmt"
	"time"

	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/simnet"
)

// CFS is the Compress Followed Send scheme (paper §3.2): the root
// compresses every local piece first — with *global* minor indices —
// then packs RO/CO/VL into a buffer, sends it, and the receiver unpacks
// and converts the indices to local ones (Cases 3.2.1-3.2.3).
//
// Cost shape (row partition + CRS, Table 1): compression is
// n²·(1+3s)·T_Operation at the root; distribution is p·T_Startup +
// (2n²s+n+p)·T_Data plus the packing ops at the root and the
// unpack/convert ops at the receivers.
type CFS struct{}

// Name implements Codec.
func (CFS) Name() string { return "CFS" }

// Policy implements Codec: the root's compress step is compression
// work; the receivers' unpack/convert is still distribution — the
// bookkeeping difference from ED that is the paper's point.
func (CFS) Policy() PhasePolicy {
	return PhasePolicy{RootEncode: simnet.ClassRootComp, Receive: simnet.ClassRankDist}
}

// EncodePart implements Codec: part k's wire payload written by one
// scan of the global array through the part's maps (compression phase)
// and one rewrite into a buffer from the machine's pool — with local
// minor indices under the CFSConvertAtRoot ablation (distribution
// phase). No compressed array is built at the root.
func (CFS) EncodePart(run *runState, k int, pp *partPayload) error {
	rowMap, colMap := run.part.RowMap(k), run.part.ColMap(k)
	start := time.Now()
	buf, extra, scan, err := run.format.PackPart(run.global, rowMap, colMap, run.opts.CFSConvertAtRoot, machine.GetBuf(0), &pp.comp, &pp.dist)
	if err != nil {
		return fmt.Errorf("dist: CFS root encode for %d: %w", k, err)
	}
	pp.meta, pp.buf, pp.pooled = [4]int64{int64(len(rowMap)), int64(len(colMap)), extra}, buf, true
	pp.wallComp, pp.wallDist = scan, time.Since(start)-scan
	return nil
}

// EncodeEntries implements Codec: EncodePart's payload written from
// the staged entries into s, decoded in place and never sent.
func (CFS) EncodeEntries(run *runState, k int, st *compress.Entries, s *compress.EntryScratch, pp *partPayload) error {
	rowMap, colMap := run.part.RowMap(k), run.part.ColMap(k)
	start := time.Now()
	buf, extra, scan, err := run.format.PackPartEntries(st, rowMap, colMap, run.opts.CFSConvertAtRoot, s, &pp.comp, &pp.dist)
	if err != nil {
		return err
	}
	pp.meta, pp.buf = [4]int64{int64(len(rowMap)), int64(len(colMap)), extra}, buf
	pp.wallComp, pp.wallDist = scan, time.Since(start)-scan
	return nil
}

// DecodePart implements Codec: unpack RO/CO/VL and, unless the root
// already localised them, convert the global minor indices to local
// ones (Cases 3.2.1-3.2.3) — a contiguous map subtracts its origin
// (none at origin 0), a strided one converts by search — then validate.
func (CFS) DecodePart(run *runState, k int, data []float64, meta [4]int64, ctr *cost.Counter) (compress.PartArray, error) {
	a, err := run.format.Unpack(data, int(meta[0]), int(meta[1]), meta[2], ctr)
	if err != nil {
		return nil, fmt.Errorf("unpack: %w", err)
	}
	if !run.opts.CFSConvertAtRoot {
		offset, idxMap := minorOffsetAndMap(run.part, k, run.format)
		if idxMap == nil {
			a.ShiftMinor(offset, ctr)
		} else if err := a.ConvertMinor(idxMap, ctr); err != nil {
			return nil, fmt.Errorf("convert: %w", err)
		}
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}
