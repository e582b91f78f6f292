// Package costmodel implements the paper's theoretical analysis (§4):
// closed-form data distribution and data compression times for the SFC,
// CFS and ED schemes, parameterised by the unit costs T_Startup, T_Data
// and T_Operation, the array size n, the processor count p, the global
// sparse ratio s, and the largest local sparse ratio s'.
//
// Tables 1 and 2 of the paper give the row-partition formulas for the
// CRS and CCS methods; this package reproduces those verbatim and
// extends them, with the same structural accounting, to the column and
// 2D mesh partitions (which the paper evaluates experimentally and
// summarises through the modified Remark 5 thresholds).
package costmodel

import (
	"fmt"
	"time"

	"repro/internal/cost"
)

// PartitionKind selects the partition method.
type PartitionKind int

const (
	// RowPart is the row partition (Block, *).
	RowPart PartitionKind = iota
	// ColPart is the column partition (*, Block).
	ColPart
	// MeshPart is the 2D mesh partition (Block, Block).
	MeshPart
)

// String implements fmt.Stringer.
func (k PartitionKind) String() string {
	switch k {
	case RowPart:
		return "row"
	case ColPart:
		return "col"
	case MeshPart:
		return "mesh"
	default:
		return fmt.Sprintf("PartitionKind(%d)", int(k))
	}
}

// Method selects the compression format.
type Method int

const (
	// CRS is Compressed Row Storage.
	CRS Method = iota
	// CCS is Compressed Column Storage.
	CCS
)

// String implements fmt.Stringer.
func (m Method) String() string {
	if m == CRS {
		return "CRS"
	}
	return "CCS"
}

// Inputs are the model parameters. The array is N x N (the paper's
// analysis assumes square arrays). For MeshPart, Pr x Pc must multiply
// to P; for the other kinds Pr/Pc are ignored.
type Inputs struct {
	N      int
	P      int
	Pr, Pc int
	S      float64 // global sparse ratio s
	SPrime float64 // largest local sparse ratio s'; if 0, S is used
	Kind   PartitionKind
	Method Method
}

// Validate checks the inputs.
func (in Inputs) Validate() error {
	if in.N <= 0 {
		return fmt.Errorf("costmodel: n = %d must be positive", in.N)
	}
	if in.P <= 0 {
		return fmt.Errorf("costmodel: p = %d must be positive", in.P)
	}
	if in.S < 0 || in.S > 1 {
		return fmt.Errorf("costmodel: s = %g out of [0, 1]", in.S)
	}
	if in.SPrime < 0 || in.SPrime > 1 {
		return fmt.Errorf("costmodel: s' = %g out of [0, 1]", in.SPrime)
	}
	if in.Kind == MeshPart {
		if in.Pr <= 0 || in.Pc <= 0 || in.Pr*in.Pc != in.P {
			return fmt.Errorf("costmodel: mesh grid %dx%d does not multiply to p = %d", in.Pr, in.Pc, in.P)
		}
	}
	return nil
}

func (in Inputs) sPrime() float64 {
	if in.SPrime > 0 {
		return in.SPrime
	}
	return in.S
}

// localShape returns the local array dimensions (paper: ⌈n/p⌉ x n for
// the row partition, and so on).
func (in Inputs) localShape() (rows, cols int) {
	switch in.Kind {
	case RowPart:
		return ceilDiv(in.N, in.P), in.N
	case ColPart:
		return in.N, ceilDiv(in.N, in.P)
	default:
		return ceilDiv(in.N, in.Pr), ceilDiv(in.N, in.Pc)
	}
}

// majorLines returns the number of "lines" of the compressed major
// dimension per local array: rows for CRS, columns for CCS. This is the
// length of the per-part counts region (ED) and, +1, of the pointer
// array (CFS).
func (in Inputs) majorLines() int {
	lr, lc := in.localShape()
	if in.Method == CRS {
		return lr
	}
	return lc
}

// conversionNeeded reports whether receivers must convert global minor
// indices to local ones (Cases 3.2.2/3.2.3 and 3.3.2/3.3.3): the minor
// dimension of the compression must be split by the partition.
func (in Inputs) conversionNeeded() bool {
	switch in.Kind {
	case RowPart:
		return in.Method == CCS // minor dim is rows, split by row partition
	case ColPart:
		return in.Method == CRS
	default:
		return true // mesh splits both dimensions
	}
}

// Estimate is a predicted phase breakdown.
type Estimate struct {
	Distribution time.Duration
	Compression  time.Duration
}

// Total returns distribution + compression.
func (e Estimate) Total() time.Duration { return e.Distribution + e.Compression }

// Predict returns the modelled phase times of the named scheme ("SFC",
// "CFS" or "ED") under the given unit costs. The formulas specialise to
// the paper's Table 1 (RowPart+CRS) and Table 2 (RowPart+CCS) exactly.
func Predict(scheme string, in Inputs, params cost.Params) (Estimate, error) {
	if err := in.Validate(); err != nil {
		return Estimate{}, err
	}
	if err := params.Validate(); err != nil {
		return Estimate{}, err
	}
	n := float64(in.N)
	p := float64(in.P)
	s := in.S
	sp := in.sPrime()
	lr, lc := in.localShape()
	localSize := float64(lr) * float64(lc)
	lines := float64(in.majorLines()) // counts per part
	nnzWire := 2 * n * n * s          // index+value words, all parts
	maxLocalNNZ := localSize * sp     // nonzeros at the busiest rank
	ts, td, to := params.TStartup.Seconds(), params.TData.Seconds(), params.TOperation.Seconds()

	var dist, comp float64
	switch scheme {
	case "SFC":
		// Table 1/2: T_Dist = p·Ts + n²·Td; T_Comp = localSize·(1+3s')·To
		// incurred in parallel at the receivers. Column and mesh parts
		// are strided in the root's memory and must be packed into the
		// send buffer first (n² extra operations in total) — the cost
		// that turns Remark 5's row thresholds (1+3s)/(1-2s) and
		// (1+5s)/(1-2s) into the column/mesh thresholds 3s/(1-2s) and
		// 5s/(1-2s).
		dist = p*ts + n*n*td
		if in.Kind != RowPart {
			dist += n * n * to
		}
		comp = localSize * (1 + 3*sp) * to
	case "CFS":
		// Wire carries the packed RO/CO/VL: 2n²s values plus the pointer
		// arrays, p·(lines+1) words in total (Table 1's n + p for the
		// row partition with CRS).
		ptrWords := p * (lines + 1)
		wire := nnzWire + ptrWords
		unpack := float64(in.majorLines()) + 1 + 2*maxLocalNNZ
		conv := 0.0
		if in.conversionNeeded() {
			conv = maxLocalNNZ
		}
		dist = p*ts + wire*td + (wire+unpack+conv)*to
		comp = n * n * (1 + 3*s) * to
	case "ED":
		// The special buffers carry the counts regions (p·lines words
		// total; n for the row partition with CRS, p·n with CCS) plus
		// the (C, V) pairs. No packing ops at all.
		wire := nnzWire + p*lines
		dist = p*ts + wire*td
		decode := float64(in.majorLines()) + 1 + 2*maxLocalNNZ
		if in.conversionNeeded() {
			decode += maxLocalNNZ
		}
		comp = (n*n*(1+3*s))*to + decode*to
	default:
		return Estimate{}, fmt.Errorf("costmodel: unknown scheme %q", scheme)
	}
	return Estimate{
		Distribution: time.Duration(dist * float64(time.Second)),
		Compression:  time.Duration(comp * float64(time.Second)),
	}, nil
}

// Schemes lists the model's scheme names in the paper's canonical
// order. Every ordered API in this package iterates in this order, so
// ties always break the same way.
var Schemes = []string{"SFC", "CFS", "ED"}

// SchemeEstimate pairs a scheme name with its estimate — the element of
// PredictAllOrdered's ordered result.
type SchemeEstimate struct {
	Scheme   string
	Estimate Estimate
}

// PredictAllOrdered returns estimates for SFC, CFS and ED, in that
// order, so a comparison or tie-break across schemes is deterministic.
func PredictAllOrdered(in Inputs, params cost.Params) ([]SchemeEstimate, error) {
	out := make([]SchemeEstimate, 0, len(Schemes))
	for _, s := range Schemes {
		e, err := Predict(s, in, params)
		if err != nil {
			return nil, err
		}
		out = append(out, SchemeEstimate{Scheme: s, Estimate: e})
	}
	return out, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
