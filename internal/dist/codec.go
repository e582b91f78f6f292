package dist

// The codec layer: each distribution scheme is a Codec — a per-part
// encode step at the root, a per-part decode step at the receiver, and
// a typed PhasePolicy saying which side of the paper's books each step
// lands on. The engine (engine.go) is the only driver; SFC, CFS and ED
// are thin Codec implementations over the compress format registry, so
// neither layer switches on scheme names or storage methods.

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/sparse"
)

// PhasePolicy states where a scheme's work lands in the breakdown —
// the bookkeeping difference that is the paper's point — as the
// network recorder's classes, so one name serves both ledgers. It
// replaces the scheme-name switches the drivers used to carry.
type PhasePolicy struct {
	// RootEncode is the class of the root's per-part encode step; the
	// root's wall time waiting on a helper's encode books to the same
	// side.
	// ClassRootDist for SFC (extract/pack), ClassRootComp for CFS and ED.
	RootEncode simnet.Class
	// Receive is the class of the receiver's per-part decode step:
	// ClassRankDist for CFS (unpack/convert), ClassRankComp for SFC
	// (compress) and ED (decode).
	Receive simnet.Class
}

// Codec is one scheme's wire protocol. Implementations are stateless;
// per-run state lives in the engine's runState, which is deliberately
// unexported — codecs are defined in this package, next to the engine
// that drives them.
type Codec interface {
	// Name returns the scheme label ("SFC", "CFS", "ED").
	Name() string
	// Policy returns the scheme's cost bookkeeping split.
	Policy() PhasePolicy
	// EncodePart produces part k's wire payload at the root, charging
	// the scheme's costs to pp's local counters. Must be safe for
	// concurrent calls with distinct k.
	EncodePart(run *runState, k int, pp *partPayload) error
	// EncodeEntries is EncodePart for part k handed over as its staged
	// entries instead of cells of the global array — a streaming
	// finalize: the same payload and the same charges. It consumes e
	// and may work in s, so the payload is valid until s's next use.
	EncodeEntries(run *runState, k int, e *compress.Entries, s *compress.EntryScratch, pp *partPayload) error
	// DecodePart rebuilds part k's compressed local array from a
	// received payload, charging ctr. Index conversion uses part k's
	// maps.
	DecodePart(run *runState, k int, data []float64, meta [4]int64, ctr *cost.Counter) (compress.PartArray, error)
}

// runState is one plan's resolved execution state, shared by the
// engine and the codec callbacks.
type runState struct {
	codec  Codec
	global *sparse.Dense
	part   partition.Partition
	opts   Options
	format *compress.Format
	// finalizing bounds a RunStream's concurrent part finalizes to
	// GOMAXPROCS: a finalize takes a token, which is the scratch it
	// works in (finalizeStreamPart); nil on the materializing path.
	finalizing chan *compress.EntryScratch
	// reports holds each part's canonical root-side charges, stored by
	// its finalizing rank and folded in by RunStream after the run; nil
	// on the materializing path.
	reports []streamReport
}

// formatFor resolves a Method to its storage format.
func formatFor(m Method) (*compress.Format, error) {
	switch m {
	case CRS:
		return compress.CRSFormat, nil
	case CCS:
		return compress.CCSFormat, nil
	case JDS:
		return compress.JDSFormat, nil
	}
	return nil, fmt.Errorf("dist: unknown method %v", m)
}

// setLocal stores a decoded part into the result's per-part slot.
func (r *Result) setLocal(k int, a compress.PartArray) {
	switch v := a.(type) {
	case *compress.CRS:
		r.LocalCRS[k] = v
	case *compress.CCS:
		r.LocalCCS[k] = v
	case *compress.JDS:
		r.LocalJDS[k] = v
	}
}

// allocLocals sizes the result's per-part slice for the chosen method.
func (r *Result) allocLocals(p int) {
	switch r.Method {
	case CRS:
		r.LocalCRS = make([]*compress.CRS, p)
	case CCS:
		r.LocalCCS = make([]*compress.CCS, p)
	case JDS:
		r.LocalJDS = make([]*compress.JDS, p)
	}
}

// rankCounter picks the per-rank counter for work booked to the given
// receive class.
func (b *Breakdown) rankCounter(class simnet.Class, rank int) *cost.Counter {
	if class == simnet.ClassRankDist {
		return &b.RankDist[rank]
	}
	return &b.RankComp[rank]
}

// addRankWall accumulates per-rank wall time on the side of the given
// root or rank class.
func (b *Breakdown) addRankWall(class simnet.Class, rank int, d time.Duration) {
	if class == simnet.ClassRootDist || class == simnet.ClassRankDist {
		b.WallRankDist[rank] += d
	} else {
		b.WallRankComp[rank] += d
	}
}

// decodeTimed runs the decode of pr's own part, charging the policy's
// receive counter and wall slot — the shared receiver step of Run and
// RunStream. The decode charges the rank's scratch counter, booked by
// one pr.Charge after it succeeds, so the breakdown and the network
// recorder get the same work on the same class, and a rejected buffer
// charges neither.
func decodeTimed(pr *machine.Proc, run *runState, bd *Breakdown, data []float64, meta [4]int64) (compress.PartArray, error) {
	k, pol := pr.Rank, run.codec.Policy()
	ctr := &bd.decoded[k]
	start := time.Now()
	a, err := run.codec.DecodePart(run, k, data, meta, ctr)
	if err != nil {
		return nil, fmt.Errorf("dist: %s rank %d decode: %w", run.codec.Name(), k, err)
	}
	bd.addRankWall(pol.Receive, k, time.Since(start))
	pr.Charge(bd.rankCounter(pol.Receive, k), pol.Receive, *ctr)
	if run.opts.Check {
		// Outside the timed window: checks are diagnostics, not protocol.
		if err := check.Array(a); err != nil {
			return nil, fmt.Errorf("dist: %s rank %d: %w", run.codec.Name(), k, err)
		}
		if err := check.ArrayShape(a, len(run.part.RowMap(k)), len(run.part.ColMap(k))); err != nil {
			return nil, fmt.Errorf("dist: %s rank %d: %w", run.codec.Name(), k, err)
		}
	}
	return a, nil
}
