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

// EncodePart implements Codec: compress part k with global minor
// indices (compression phase) by one scan of the global array through
// the part's row and column maps, then — under the CFSConvertAtRoot
// ablation — localise indices, and pack for the wire (distribution
// phase). The wire buffer comes from the machine's pool.
func (c CFS) EncodePart(run *runState, k int, pp *partPayload) error {
	rowMap, colMap := run.part.RowMap(k), run.part.ColMap(k)
	start := time.Now()
	a := run.format.CompressPart(run.global, rowMap, colMap, &pp.comp)
	pp.wallComp = time.Since(start)
	return c.packPart(run, k, len(rowMap), len(colMap), a, pp)
}

// EncodeEntries implements Codec: the part compressed out of its staged
// entries, working in s, then packed as by EncodePart.
func (c CFS) EncodeEntries(run *runState, k int, st *compress.Entries, s *compress.EntryScratch, pp *partPayload) error {
	rowMap, colMap := run.part.RowMap(k), run.part.ColMap(k)
	start := time.Now()
	a, err := run.format.CompressPartEntries(st, rowMap, colMap, s, &pp.comp)
	if err != nil {
		return err
	}
	pp.wallComp = time.Since(start)
	return c.packPart(run, k, len(rowMap), len(colMap), a, pp)
}

// packPart is the distribution-phase tail of both encode steps: the
// nr x nc compressed part a becomes part k's wire payload.
func (CFS) packPart(run *runState, k, nr, nc int, a compress.PartArray, pp *partPayload) error {
	pp.meta = [4]int64{int64(nr), int64(nc)}
	start := time.Now()
	if run.opts.CFSConvertAtRoot {
		if err := localiseMinor(run, k, a, &pp.dist); err != nil {
			return fmt.Errorf("dist: CFS root convert for %d: %w", k, err)
		}
	}
	pp.meta[2] = a.HeaderExtra()
	pp.buf = a.PackInto(machine.GetBuf(a.WireCap()), &pp.dist)
	pp.pooled = true
	pp.wallDist = time.Since(start)
	return nil
}

// DecodePart implements Codec: unpack RO/CO/VL and, unless the root
// already localised them, convert the global minor indices to local
// ones (Cases 3.2.1-3.2.3), then validate.
func (CFS) DecodePart(run *runState, k int, data []float64, meta [4]int64, ctr *cost.Counter) (compress.PartArray, error) {
	a, err := run.format.Unpack(data, int(meta[0]), int(meta[1]), meta[2], ctr)
	if err != nil {
		return nil, fmt.Errorf("unpack: %w", err)
	}
	if !run.opts.CFSConvertAtRoot {
		if err := localiseMinor(run, k, a, ctr); err != nil {
			return nil, fmt.Errorf("convert: %w", err)
		}
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}
