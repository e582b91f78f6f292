// Package dist implements the paper's three data distribution schemes
// for sparse arrays on a distributed-memory multicomputer:
//
//	SFC (Send Followed Compress)  – partition, send dense local arrays,
//	                                compress at each processor. This is
//	                                the BRS-style baseline (paper §3.1).
//	CFS (Compress Followed Send)  – partition, compress at the root with
//	                                global minor indices, pack/send/unpack,
//	                                convert indices at each processor
//	                                (paper §3.2, Cases 3.2.1-3.2.3).
//	ED  (Encoding-Decoding)       – partition, encode special buffers at
//	                                the root, send, decode at each
//	                                processor (paper §3.3, Cases
//	                                3.3.1-3.3.3). The novel contribution.
//
// Every scheme runs SPMD on a machine.Machine: rank 0 is the root that
// holds the global array, and each rank (including 0, via loopback)
// receives and post-processes its part. The per-phase cost breakdown
// follows the paper's accounting exactly; see Breakdown.
package dist

import (
	"context"
	"fmt"
	"time"

	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// Method selects the compression format (paper §3: CRS or CCS).
type Method int

const (
	// CRS selects Compressed Row Storage.
	CRS Method = iota
	// CCS selects Compressed Column Storage.
	CCS
	// JDS selects Jagged Diagonal Storage — an "other data compression
	// method" from the Templates book, the paper's future work (1).
	JDS
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case CRS:
		return "CRS"
	case CCS:
		return "CCS"
	case JDS:
		return "JDS"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configure a distribution run.
type Options struct {
	// Method is the compression format; default CRS.
	Method Method
	// Ctx, when non-nil, makes the run cancellable: the root stops
	// encoding and sending between parts, blocked receives abort within
	// one poll slice, and Run returns an error wrapping ctx.Err(). The
	// machine's goroutines are fully joined before Run returns, so after
	// a cancelled run the machine can be drained (machine.Drain) and
	// reused. Nil means run to completion — the classic behaviour.
	Ctx context.Context
	// CFSConvertAtRoot is an ablation switch for the CFS scheme: instead
	// of sending global minor indices and converting at the receivers
	// (the paper's design, Cases 3.2.1-3.2.3), the root converts each
	// part's indices to local form *before* packing. This moves the
	// conversion work from the receivers (parallel, counted once at the
	// busiest rank) to the root (sequential, counted p times) — the
	// paper's receiver-side choice wins whenever conversion is needed,
	// which BenchmarkAblationCFSConvert demonstrates.
	CFSConvertAtRoot bool
	// Workers is how many goroutines encode the root's parts (see
	// pipeline.go). 1: the root alone, encoding and sending each part
	// in turn as the paper's SP2 root does; n: the root plus n-1
	// helpers (at most p-1) that encode parts ahead of it. The root
	// sends in part order either way. Zero or less means GOMAXPROCS. Virtual
	// costs are identical for any value (TestRootPipelineParity).
	Workers int
	// Check enables the invariant checker (package check) on the run:
	// every decoded part array is structurally validated and
	// shape-checked against the partition's ownership maps, and ED's
	// root-side encoder verifies each special buffer (including index
	// ownership) before it ships. A violation fails the run with a typed
	// *check.Violation. Checks run outside the timed sections and charge
	// no virtual cost, but they cost real time — a debugging and
	// harness option, not a production default.
	Check bool
}

// Breakdown is the per-phase cost account of one distribution run.
//
// Virtual time follows the paper's model: the root works sequentially
// (its pack/compress/encode/send costs add up), while the receivers work
// in parallel (their costs enter as the maximum over ranks):
//
//	T_Distribution = Time(RootDist) + max_k Time(RankDist[k])
//	T_Compression  = Time(RootComp) + max_k Time(RankComp[k])
//
// For SFC, RootComp is zero and compression happens in RankComp. For
// CFS, unpacking and index conversion are part of distribution
// (RankDist). For ED, decoding is part of compression (RankComp) — that
// bookkeeping difference is exactly the paper's point.
type Breakdown struct {
	RootDist cost.Counter
	RootComp cost.Counter
	RankDist []cost.Counter
	RankComp []cost.Counter

	// Wall-clock analogues, combined the same way.
	WallRootDist time.Duration
	WallRootComp time.Duration
	WallRankDist []time.Duration
	WallRankComp []time.Duration

	// decoded is each rank's scratch counter for its part's one
	// decode, booked onto the rank's side by decodeTimed once the
	// decode succeeds. It lives here, in one allocation with the rank
	// counters, because a counter on decodeTimed's stack would escape
	// through the codec interface and cost an allocation per rank.
	decoded []cost.Counter
}

func newBreakdown(p int) *Breakdown {
	ctrs := make([]cost.Counter, 3*p)
	return &Breakdown{
		RankDist:     ctrs[:p:p],
		RankComp:     ctrs[p : 2*p : 2*p],
		decoded:      ctrs[2*p:],
		WallRankDist: make([]time.Duration, p),
		WallRankComp: make([]time.Duration, p),
	}
}

// DistributionTime returns the virtual data distribution time under the
// given unit costs.
func (b *Breakdown) DistributionTime(p cost.Params) time.Duration {
	return p.Time(b.RootDist) + maxTime(p, b.RankDist)
}

// CompressionTime returns the virtual data compression time.
func (b *Breakdown) CompressionTime(p cost.Params) time.Duration {
	return p.Time(b.RootComp) + maxTime(p, b.RankComp)
}

// TotalTime returns distribution + compression virtual time.
func (b *Breakdown) TotalTime(p cost.Params) time.Duration {
	return b.DistributionTime(p) + b.CompressionTime(p)
}

// WallDistribution returns the measured wall-clock distribution time.
func (b *Breakdown) WallDistribution() time.Duration {
	return b.WallRootDist + maxDur(b.WallRankDist)
}

// WallCompression returns the measured wall-clock compression time.
func (b *Breakdown) WallCompression() time.Duration {
	return b.WallRootComp + maxDur(b.WallRankComp)
}

func maxTime(p cost.Params, cs []cost.Counter) time.Duration {
	var m time.Duration
	for _, c := range cs {
		if t := p.Time(c); t > m {
			m = t
		}
	}
	return m
}

func maxDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

// Result carries the distributed compressed arrays plus the cost
// breakdown. Exactly one of LocalCRS/LocalCCS/LocalJDS is populated,
// per the chosen method; entries are indexed by part, and part k lives
// on rank k.
type Result struct {
	Scheme    string
	Partition string
	Method    Method
	LocalCRS  []*compress.CRS
	LocalCCS  []*compress.CCS
	LocalJDS  []*compress.JDS
	Breakdown *Breakdown
}

// NNZ returns the number of nonzeros the parts hold, an O(p) sum: every
// nonzero of the array lands in exactly one part, so it is the array's
// count without a scan of the array.
func (r *Result) NNZ() int {
	n := 0
	for _, a := range r.PartArrays() {
		if a != nil {
			n += a.NNZ()
		}
	}
	return n
}

// PartArrays returns the populated per-part arrays as the generic
// PartArray interface, indexed by part — the shape the check package's
// differential oracle consumes.
func (r *Result) PartArrays() []compress.PartArray {
	switch r.Method {
	case CCS:
		out := make([]compress.PartArray, len(r.LocalCCS))
		for k, a := range r.LocalCCS {
			out[k] = a
		}
		return out
	case JDS:
		out := make([]compress.PartArray, len(r.LocalJDS))
		for k, a := range r.LocalJDS {
			out[k] = a
		}
		return out
	default:
		out := make([]compress.PartArray, len(r.LocalCRS))
		for k, a := range r.LocalCRS {
			out[k] = a
		}
		return out
	}
}

// MethodNames lists the compression method names for CLI help strings.
func MethodNames() string { return "CRS, CCS, JDS" }

// Schemes returns the three schemes in paper order: SFC, CFS, ED.
func Schemes() []Codec { return []Codec{SFC{}, CFS{}, ED{}} }

// CodecByName returns the scheme with the given (case-sensitive) name.
func CodecByName(name string) (Codec, error) {
	for _, s := range Schemes() {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("dist: unknown scheme %q (want SFC, CFS or ED)", name)
}

// checkSetup validates the common preconditions of Run.
func checkSetup(m *machine.Machine, g *sparse.Dense, part partition.Partition) error {
	if m == nil || g == nil || part == nil {
		return fmt.Errorf("dist: nil machine, array or partition")
	}
	if part.NumParts() != m.P() {
		return fmt.Errorf("dist: partition has %d parts but machine has %d processors", part.NumParts(), m.P())
	}
	pr, pc := part.Shape()
	if pr != g.Rows() || pc != g.Cols() {
		return fmt.Errorf("dist: partition shape %dx%d does not match array %dx%d", pr, pc, g.Rows(), g.Cols())
	}
	return nil
}

// rowContiguousPart reports whether part k is a contiguous full-width
// row block of the global array, i.e. its dense local array is a
// contiguous slice of global memory that SFC can send without packing.
func rowContiguousPart(part partition.Partition, k, globalCols int) bool {
	cm := part.ColMap(k)
	if len(cm) != globalCols || !partition.Contiguous(cm) {
		return false
	}
	return partition.Contiguous(part.RowMap(k))
}

// minorOffsetAndMap returns the receiver-side conversion for part k: if
// the format's minor ownership map (columns for the row-major formats,
// rows for CCS) is contiguous, conversion is the paper's subtraction of
// the map origin (Cases x.2/x.3; zero offset is Case x.1); otherwise
// the map itself is returned for search-based conversion (cyclic
// partitions).
func minorOffsetAndMap(part partition.Partition, k int, f *compress.Format) (offset int, idxMap []int) {
	var m []int
	if f.MinorIsRow {
		m = part.RowMap(k)
	} else {
		m = part.ColMap(k)
	}
	if partition.Contiguous(m) {
		if len(m) == 0 {
			return 0, nil
		}
		return m[0], nil
	}
	return 0, m
}
