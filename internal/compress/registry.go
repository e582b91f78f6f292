package compress

import (
	"repro/internal/cost"
	"repro/internal/sparse"
)

// Storage formats. The distribution engine is storage-format-agnostic:
// what it does to a part's compressed array — size and pack it for the
// wire, localise its minor indices — are PartArray methods that *CRS,
// *CCS and *JDS implement, and what builds an array of a format —
// compressing a dense part, unpacking a wire buffer, decoding an ED
// buffer — are methods of its Format. Adding a fourth compression
// method means one more type and one more case in each constructor
// below, not switch statements across the dist package.

// PartArray is one part's compressed local array in any storage format
// (*CRS, *CCS, *JDS). "Minor" is the index dimension stored per
// nonzero: columns for the row-major formats (CRS, JDS), rows for CCS.
type PartArray interface {
	// NNZ returns the stored nonzero count.
	NNZ() int
	// Validate checks structural invariants.
	Validate() error
	// HeaderExtra is the format-specific word the wire header carries
	// beyond the part shape (JDS: diagonal count; otherwise 0).
	HeaderExtra() int64
	// PackInto appends the array's wire form to buf (CFS root side).
	PackInto(buf []float64, ctr *cost.Counter) []float64
	// ShiftMinor rebases minor indices by -delta (contiguous parts,
	// Cases 3.2.2/3.2.3).
	ShiftMinor(delta int, ctr *cost.Counter)
	// ConvertMinor maps global minor indices to local ones through the
	// part's index map (non-contiguous parts, Case 3.2.1).
	ConvertMinor(idxMap []int, ctr *cost.Counter) error
}

// The PartArray operations of each format, documented on the interface.

func (m *CRS) HeaderExtra() int64                                  { return 0 }
func (m *CRS) PackInto(buf []float64, ctr *cost.Counter) []float64 { return PackCRSInto(m, buf, ctr) }
func (m *CRS) ShiftMinor(delta int, ctr *cost.Counter)             { m.ShiftCols(delta, ctr) }
func (m *CRS) ConvertMinor(idxMap []int, ctr *cost.Counter) error {
	return m.ConvertColsToLocal(idxMap, ctr)
}

func (m *CCS) HeaderExtra() int64 { return 0 }
func (m *CCS) PackInto(buf []float64, ctr *cost.Counter) []float64 {
	return m.lines().packInto(buf, ctr)
}
func (m *CCS) ShiftMinor(delta int, ctr *cost.Counter) { m.ShiftRows(delta, ctr) }
func (m *CCS) ConvertMinor(idxMap []int, ctr *cost.Counter) error {
	return m.ConvertRowsToLocal(idxMap, ctr)
}

func (m *JDS) HeaderExtra() int64                      { return int64(m.MaxRowNNZ()) }
func (m *JDS) ShiftMinor(delta int, ctr *cost.Counter) { m.ShiftCols(delta, ctr) }
func (m *JDS) ConvertMinor(idxMap []int, ctr *cost.Counter) error {
	return m.ConvertColsToLocal(idxMap, ctr)
}

// Format names a storage format and builds its arrays.
type Format struct {
	// Name is the format's name ("CRS", "CCS", "JDS").
	Name string
	// Major is the ED buffer orientation that decodes into this format.
	Major Major
	// MinorIsRow reports whether the minor index dimension is rows
	// (true only for CCS).
	MinorIsRow bool
}

// The storage formats. JDS has no ED decoder of its own: it rides the
// row-major CRS buffer and re-lays diagonals on arrival.
var (
	CRSFormat = &Format{Name: "CRS", Major: RowMajor}
	CCSFormat = &Format{Name: "CCS", Major: ColMajor, MinorIsRow: true}
	JDSFormat = &Format{Name: "JDS", Major: RowMajor}
)

// CompressDense compresses a dense local array (SFC's receiver-side
// compression phase).
func (f *Format) CompressDense(d *sparse.Dense, ctr *cost.Counter) PartArray {
	switch f.Name {
	case "CCS":
		return CompressCCS(d, ctr)
	case "JDS":
		return CompressJDS(d, ctr)
	}
	return CompressCRS(d, ctr)
}

// ofLines is the format's array over lines in its Major orientation
// (JDS re-lays the rows as diagonals and charges the permutation).
func (f *Format) ofLines(l lines, ctr *cost.Counter) PartArray {
	switch f.Name {
	case "CCS":
		return ccsOf(l)
	case "JDS":
		ctr.AddOps(l.n) // permutation bookkeeping
		return CRSToJDS(crsOf(l))
	}
	return crsOf(l)
}

// Unpack rebuilds an array of the given shape from its wire form;
// extra is the HeaderExtra word (CFS receiver side). Minor indices may
// still be global — callers localise and Validate.
func (f *Format) Unpack(buf []float64, rows, cols int, extra int64, ctr *cost.Counter) (PartArray, error) {
	switch f.Name {
	case "CCS":
		return part(UnpackCCS(buf, rows, cols, ctr))
	case "JDS":
		return part(UnpackJDS(buf, rows, cols, int(extra), ctr))
	}
	return part(UnpackCRS(buf, rows, cols, ctr))
}

// DecodeED decodes an ED special buffer straight into this format,
// localising minor indices via idxMap when non-nil, else by offset
// (Cases 3.3.1-3.3.3).
func (f *Format) DecodeED(buf []float64, rows, cols, offset int, idxMap []int, ctr *cost.Counter) (PartArray, error) {
	if f.Name == "CCS" {
		if idxMap != nil {
			return part(DecodeEDToCCSMap(buf, cols, idxMap, ctr))
		}
		return part(DecodeEDToCCS(buf, rows, cols, offset, ctr))
	}
	var m *CRS
	var err error
	if idxMap != nil {
		m, err = DecodeEDToCRSMap(buf, rows, idxMap, ctr)
	} else {
		m, err = DecodeEDToCRS(buf, rows, cols, offset, ctr)
	}
	if err != nil || f.Name != "JDS" {
		return part(m, err)
	}
	// Re-lay as jagged diagonals; charged like the local permutation
	// bookkeeping of direct JDS compression.
	ctr.AddOps(rows)
	return CRSToJDS(m), nil
}

// part returns a as a PartArray, or a nil one beside an error.
func part[T PartArray](a T, err error) (PartArray, error) {
	if err != nil {
		return nil, err
	}
	return a, nil
}
