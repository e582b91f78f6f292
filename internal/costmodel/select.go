package costmodel

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cost"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/sparse"
)

// Plan selection (ROADMAP item 3): predict the best
// (scheme x partition x method x workers) for a concrete array from its
// measured statistics, using the same closed forms as Predict — and,
// when a topology is configured, the same discrete-event replay as
// RemarksUnder, so contention moves the choice exactly as it moves the
// Remarks. Selection is deterministic: candidates are enumerated in a
// fixed order and ties break by strict < toward the earlier candidate,
// never by map iteration.

// ArrayStats are the measured statistics Select works from: shape,
// nonzero count, the per-row/per-column histograms (which give s' for
// each candidate partition), and the band structure.
type ArrayStats struct {
	Rows, Cols int
	NNZ        int
	RowCounts  []int // per-row nonzero counts, len Rows
	ColCounts  []int // per-column nonzero counts, len Cols
	// Bandwidth is max |i-j| over nonzeros (0 for diagonal or empty
	// arrays): reported for diagnostics and kept in the stats cache so
	// future partitioners can use it.
	Bandwidth int
}

// S returns the global sparse ratio.
func (st ArrayStats) S() float64 {
	if st.Rows <= 0 || st.Cols <= 0 {
		return 0
	}
	return float64(st.NNZ) / (float64(st.Rows) * float64(st.Cols))
}

// MeasureStats scans the array once and returns its statistics.
func MeasureStats(g *sparse.Dense) ArrayStats {
	st := ArrayStats{Rows: g.Rows(), Cols: g.Cols()}
	st.RowCounts = make([]int, g.Rows())
	st.ColCounts = make([]int, g.Cols())
	for i := 0; i < g.Rows(); i++ {
		for j, v := range g.Row(i) {
			if v == 0 {
				continue
			}
			st.NNZ++
			st.RowCounts[i]++
			st.ColCounts[j]++
			if d := i - j; d > st.Bandwidth {
				st.Bandwidth = d
			} else if -d > st.Bandwidth {
				st.Bandwidth = -d
			}
		}
	}
	return st
}

// SelectOptions constrain and parameterise Select. The zero value asks
// for a fully free choice on 4 processors under the calibrated default
// params and the flat (uniform) network model.
type SelectOptions struct {
	// Procs is the processor count; <= 0 defaults to 4.
	Procs int
	// MeshRows/MeshCols pin the mesh grid when both are set and
	// multiply to Procs; otherwise the most square factorisation is
	// used for mesh candidates.
	MeshRows, MeshCols int
	// Kind, when non-nil, pins the partition kind (the caller already
	// chose a partition; Select only ranks schemes and methods for it).
	Kind *PartitionKind
	// Method, when non-nil, pins the compression method.
	Method *Method
	// Params are the unit costs; the zero value means
	// cost.DefaultParams.
	Params cost.Params
	// Topology, when non-nil, prices every candidate by replaying its
	// closed-form workload through the discrete-event simulator instead
	// of the flat model. Topology.Ranks() must equal Procs.
	Topology *simnet.Topology
}

// Candidate is one ranked (scheme, kind, method) point.
type Candidate struct {
	Scheme   string
	Kind     PartitionKind
	Method   Method
	Estimate Estimate
}

// Choice is Select's winner plus the full ranking that produced it.
type Choice struct {
	Scheme  string
	Kind    PartitionKind
	Method  Method
	Workers int // suggested root encode workers; 0 = engine default
	// Predicted is the winner's estimate.
	Predicted Estimate
	// Ranked lists every candidate in enumeration order (not sorted),
	// so callers can audit how close the decision was.
	Ranked []Candidate
}

// smallNNZ is the nonzero count below which starting root encode
// helpers costs more than it wins and Select suggests a single worker.
const smallNNZ = 1 << 15

// Select predicts the best plan for an array with the given statistics.
// Degenerate arrays (empty shape or no nonzeros) get a deterministic
// default — ED, row partition, CRS, one worker — rather than an error:
// every scheme handles them identically, so there is nothing to rank.
func Select(st ArrayStats, opts SelectOptions) (Choice, error) {
	if opts.Procs <= 0 {
		opts.Procs = 4
	}
	if (opts.Params == cost.Params{}) {
		opts.Params = cost.DefaultParams
	}
	if opts.Topology != nil && opts.Topology.Ranks() != opts.Procs {
		return Choice{}, fmt.Errorf("costmodel: Select: topology has %d ranks, want procs = %d", opts.Topology.Ranks(), opts.Procs)
	}

	kinds := []PartitionKind{RowPart, ColPart, MeshPart}
	if opts.Kind != nil {
		kinds = []PartitionKind{*opts.Kind}
	}
	methods := []Method{CRS, CCS}
	if opts.Method != nil {
		methods = []Method{*opts.Method}
	}

	def := Choice{Scheme: "ED", Kind: kinds[0], Method: methods[0], Workers: 1}
	if st.Rows <= 0 || st.Cols <= 0 || st.NNZ <= 0 {
		return def, nil
	}

	// The model analyses square n x n arrays; a rows x cols array is
	// mapped to the equal-area n = sqrt(rows*cols).
	n := int(math.Round(math.Sqrt(float64(st.Rows) * float64(st.Cols))))
	if n < 1 {
		n = 1
	}
	s := st.S()
	pr, pc := opts.MeshRows, opts.MeshCols
	if pr <= 0 || pc <= 0 || pr*pc != opts.Procs {
		pr, pc = partition.SquareGrid(opts.Procs)
	}

	choice := def
	choice.Workers = workersFor(st.NNZ)
	best := false
	for _, kind := range kinds {
		sp := st.sPrimeFor(kind, opts.Procs, pr, pc)
		for _, method := range methods {
			in := Inputs{N: n, P: opts.Procs, Pr: pr, Pc: pc, S: s, SPrime: sp, Kind: kind, Method: method}
			for _, scheme := range Schemes {
				est, err := estimateFor(scheme, in, opts)
				if err != nil {
					return Choice{}, err
				}
				cand := Candidate{Scheme: scheme, Kind: kind, Method: method, Estimate: est}
				choice.Ranked = append(choice.Ranked, cand)
				// Strict <: ties keep the earlier candidate in the
				// fixed enumeration order, so the winner is stable.
				if !best || est.Total() < choice.Predicted.Total() {
					best = true
					choice.Scheme, choice.Kind, choice.Method = scheme, kind, method
					choice.Predicted = est
				}
			}
		}
	}
	return choice, nil
}

func estimateFor(scheme string, in Inputs, opts SelectOptions) (Estimate, error) {
	if opts.Topology == nil {
		return Predict(scheme, in, opts.Params)
	}
	net, err := replayScheme(scheme, opts.Topology, in, opts.Params)
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{Distribution: net.Distribution, Compression: net.Compression}, nil
}

func workersFor(nnz int) int {
	if nnz < smallNNZ {
		return 1
	}
	return 0
}

// sPrimeFor estimates s' — the largest local sparse ratio — for a
// candidate partition kind from the nonzero histograms, using the same
// contiguous ceil-div blocks the Block partitions cut.
func (st ArrayStats) sPrimeFor(kind PartitionKind, p, pr, pc int) float64 {
	s := st.S()
	switch kind {
	case RowPart:
		return clamp01(maxBlockRatio(st.RowCounts, p, st.Cols), s)
	case ColPart:
		return clamp01(maxBlockRatio(st.ColCounts, p, st.Rows), s)
	default:
		// The mesh tile histograms are not kept; under an independence
		// assumption the worst tile ratio is the product of the worst
		// row-band and column-band ratios relative to the global ratio:
		// s'_mesh ~= s'_row * s'_col / s.
		sr := maxBlockRatio(st.RowCounts, pr, st.Cols)
		sc := maxBlockRatio(st.ColCounts, pc, st.Rows)
		if s <= 0 {
			return 0
		}
		return clamp01(sr*sc/s, s)
	}
}

// maxBlockRatio cuts counts into p contiguous ceil-div blocks and
// returns the largest block nonzero ratio, where each block spans
// len(block) lines of `minor` elements each.
func maxBlockRatio(counts []int, p, minor int) float64 {
	if len(counts) == 0 || minor <= 0 || p <= 0 {
		return 0
	}
	per := ceilDiv(len(counts), p)
	best := 0.0
	for lo := 0; lo < len(counts); lo += per {
		hi := lo + per
		if hi > len(counts) {
			hi = len(counts)
		}
		nnz := 0
		for _, c := range counts[lo:hi] {
			nnz += c
		}
		r := float64(nnz) / (float64(hi-lo) * float64(minor))
		if r > best {
			best = r
		}
	}
	return best
}

// clamp01 bounds a ratio estimate to [floor, 1]: a local ratio can
// never be below the global one at the busiest rank, nor above 1.
func clamp01(r, floor float64) float64 {
	if r < floor {
		r = floor
	}
	if r > 1 {
		r = 1
	}
	return r
}

// KindFor maps a core partition name (or HPF descriptor) to the model's
// partition kind: the axis the partition blocks determines which
// histogram drives s'. Cyclic variants share their blocked axis's kind.
func KindFor(name string) PartitionKind {
	switch name {
	case "col", "cyclic-col":
		return ColPart
	case "mesh", "cyclic-mesh":
		return MeshPart
	}
	if rows, cols, err := partition.DescriptorAxes(name); err == nil {
		switch {
		case !rows:
			return ColPart
		case cols:
			return MeshPart
		}
	}
	return RowPart // row, cyclic-row, brs, balanced-row, (Block,*), unknown
}

// MethodFor maps a core method name to the model's method. JDS has no
// closed form in the paper; its row-major access pattern is modelled as
// CRS.
func MethodFor(method string) Method {
	if strings.EqualFold(method, "CCS") {
		return CCS
	}
	return CRS
}
