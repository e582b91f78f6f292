package compress

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/sparse"
)

// Format registry. The distribution engine is storage-format-agnostic:
// every per-format operation it needs — compressing a part, packing it
// for the wire, unpacking, localising minor indices, decoding an ED
// buffer — lives behind a Format entry keyed by the format's name.
// Adding a fourth compression method means registering one more Format
// here, not growing switch statements across the dist package.

// PartArray is one part's compressed local array in any registered
// storage format (*CRS, *CCS, *JDS).
type PartArray interface {
	// NNZ returns the stored nonzero count.
	NNZ() int
	// Validate checks structural invariants.
	Validate() error
}

// Format bundles the per-storage-format operations the distribution
// schemes compose. "Minor" is the index dimension stored per nonzero:
// columns for the row-major formats (CRS, JDS), rows for CCS.
type Format struct {
	// Name keys the registry ("CRS", "CCS", "JDS").
	Name string
	// Major is the ED buffer orientation that decodes into this format.
	Major Major
	// MinorIsRow reports whether the minor index dimension is rows
	// (true only for CCS).
	MinorIsRow bool

	// CompressDense compresses a dense local array (SFC's receiver-side
	// compression phase).
	CompressDense func(d *sparse.Dense, ctr *cost.Counter) PartArray
	// ofLines is the format's array over lines in its Major orientation
	// (JDS re-lays the rows as diagonals and charges the permutation).
	ofLines func(l lines, ctr *cost.Counter) PartArray
	// HeaderExtra is the format-specific word the wire header carries
	// beyond the part shape (JDS: diagonal count; otherwise 0).
	HeaderExtra func(a PartArray) int64
	// WireCap returns the packed size in words, used to draw a
	// right-sized buffer from the wire pool before PackInto.
	WireCap func(a PartArray) int
	// PackInto appends the array's wire form to buf (CFS root side).
	PackInto func(a PartArray, buf []float64, ctr *cost.Counter) []float64
	// Unpack rebuilds an array of the given shape from its wire form;
	// extra is the HeaderExtra word (CFS receiver side). Minor indices
	// may still be global — callers localise and Validate.
	Unpack func(buf []float64, rows, cols int, extra int64, ctr *cost.Counter) (PartArray, error)
	// ShiftMinor rebases minor indices by -delta (contiguous parts,
	// Cases 3.2.2/3.2.3).
	ShiftMinor func(a PartArray, delta int, ctr *cost.Counter)
	// ConvertMinor maps global minor indices to local ones through the
	// part's index map (non-contiguous parts, Case 3.2.1).
	ConvertMinor func(a PartArray, idxMap []int, ctr *cost.Counter) error
	// DecodeED decodes an ED special buffer straight into this format,
	// localising minor indices via idxMap when non-nil, else by offset
	// (Cases 3.3.1-3.3.3).
	DecodeED func(buf []float64, rows, cols, offset int, idxMap []int, ctr *cost.Counter) (PartArray, error)
}

var formats = map[string]*Format{}

// RegisterFormat adds a storage format to the registry. It panics on a
// duplicate or empty name: registration is an init-time programming
// act, not a runtime condition.
func RegisterFormat(f Format) {
	if f.Name == "" {
		panic("compress: RegisterFormat: empty format name")
	}
	if _, dup := formats[f.Name]; dup {
		panic(fmt.Sprintf("compress: RegisterFormat: duplicate format %q", f.Name))
	}
	fc := f
	formats[f.Name] = &fc
}

// FormatByName looks up a registered storage format.
func FormatByName(name string) (*Format, error) {
	f, ok := formats[name]
	if !ok {
		return nil, fmt.Errorf("compress: unknown storage format %q (have %v)", name, FormatNames())
	}
	return f, nil
}

// FormatNames lists the registered formats in sorted order.
func FormatNames() []string {
	names := make([]string, 0, len(formats))
	for n := range formats {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterFormat(Format{
		Name:       "CRS",
		Major:      RowMajor,
		MinorIsRow: false,
		CompressDense: func(d *sparse.Dense, ctr *cost.Counter) PartArray {
			return CompressCRS(d, ctr)
		},
		ofLines:     func(l lines, _ *cost.Counter) PartArray { return crsOf(l) },
		HeaderExtra: func(PartArray) int64 { return 0 },
		WireCap:     func(a PartArray) int { return a.(*CRS).lines().wireCap() },
		PackInto: func(a PartArray, buf []float64, ctr *cost.Counter) []float64 {
			return PackCRSInto(a.(*CRS), buf, ctr)
		},
		Unpack: func(buf []float64, rows, cols int, _ int64, ctr *cost.Counter) (PartArray, error) {
			m, err := UnpackCRS(buf, rows, cols, ctr)
			if err != nil {
				return nil, err
			}
			return m, nil
		},
		ShiftMinor: func(a PartArray, delta int, ctr *cost.Counter) {
			a.(*CRS).ShiftCols(delta, ctr)
		},
		ConvertMinor: func(a PartArray, idxMap []int, ctr *cost.Counter) error {
			return a.(*CRS).ConvertColsToLocal(idxMap, ctr)
		},
		DecodeED: func(buf []float64, rows, cols, offset int, idxMap []int, ctr *cost.Counter) (PartArray, error) {
			m, err := decodeEDCRS(buf, rows, cols, offset, idxMap, ctr)
			if err != nil {
				return nil, err
			}
			return m, nil
		},
	})

	RegisterFormat(Format{
		Name:       "CCS",
		Major:      ColMajor,
		MinorIsRow: true,
		CompressDense: func(d *sparse.Dense, ctr *cost.Counter) PartArray {
			return CompressCCS(d, ctr)
		},
		ofLines:     func(l lines, _ *cost.Counter) PartArray { return ccsOf(l) },
		HeaderExtra: func(PartArray) int64 { return 0 },
		WireCap:     func(a PartArray) int { return a.(*CCS).lines().wireCap() },
		PackInto: func(a PartArray, buf []float64, ctr *cost.Counter) []float64 {
			return PackCCSInto(a.(*CCS), buf, ctr)
		},
		Unpack: func(buf []float64, rows, cols int, _ int64, ctr *cost.Counter) (PartArray, error) {
			m, err := UnpackCCS(buf, rows, cols, ctr)
			if err != nil {
				return nil, err
			}
			return m, nil
		},
		ShiftMinor: func(a PartArray, delta int, ctr *cost.Counter) {
			a.(*CCS).ShiftRows(delta, ctr)
		},
		ConvertMinor: func(a PartArray, idxMap []int, ctr *cost.Counter) error {
			return a.(*CCS).ConvertRowsToLocal(idxMap, ctr)
		},
		DecodeED: func(buf []float64, rows, cols, offset int, idxMap []int, ctr *cost.Counter) (PartArray, error) {
			var m *CCS
			var err error
			if idxMap != nil {
				m, err = DecodeEDToCCSMap(buf, cols, idxMap, ctr)
			} else {
				m, err = DecodeEDToCCS(buf, rows, cols, offset, ctr)
			}
			if err != nil {
				return nil, err
			}
			return m, nil
		},
	})

	RegisterFormat(Format{
		Name: "JDS",
		// JDS has no ED decoder of its own: it rides the row-major CRS
		// buffer and re-lays diagonals on arrival.
		Major:      RowMajor,
		MinorIsRow: false,
		CompressDense: func(d *sparse.Dense, ctr *cost.Counter) PartArray {
			return CompressJDS(d, ctr)
		},
		ofLines: func(l lines, ctr *cost.Counter) PartArray {
			ctr.AddOps(l.n) // permutation bookkeeping
			return CRSToJDS(crsOf(l))
		},
		HeaderExtra: func(a PartArray) int64 {
			return int64(a.(*JDS).MaxRowNNZ())
		},
		WireCap: func(a PartArray) int {
			m := a.(*JDS)
			return len(m.Perm) + len(m.JDPtr) + 2*m.NNZ()
		},
		PackInto: func(a PartArray, buf []float64, ctr *cost.Counter) []float64 {
			return PackJDSInto(a.(*JDS), buf, ctr)
		},
		Unpack: func(buf []float64, rows, cols int, extra int64, ctr *cost.Counter) (PartArray, error) {
			m, err := UnpackJDS(buf, rows, cols, int(extra), ctr)
			if err != nil {
				return nil, err
			}
			return m, nil
		},
		ShiftMinor: func(a PartArray, delta int, ctr *cost.Counter) {
			a.(*JDS).ShiftCols(delta, ctr)
		},
		ConvertMinor: func(a PartArray, idxMap []int, ctr *cost.Counter) error {
			return a.(*JDS).ConvertColsToLocal(idxMap, ctr)
		},
		DecodeED: func(buf []float64, rows, cols, offset int, idxMap []int, ctr *cost.Counter) (PartArray, error) {
			m, err := decodeEDCRS(buf, rows, cols, offset, idxMap, ctr)
			if err != nil {
				return nil, err
			}
			// Re-lay as jagged diagonals; charged like the local
			// permutation bookkeeping of direct JDS compression.
			ctr.AddOps(rows)
			return CRSToJDS(m), nil
		},
	})
}

// decodeEDCRS is the shared row-major ED decode (CRS itself, and the
// CRS staging step of JDS).
func decodeEDCRS(buf []float64, rows, cols, offset int, idxMap []int, ctr *cost.Counter) (*CRS, error) {
	if idxMap != nil {
		return DecodeEDToCRSMap(buf, rows, idxMap, ctr)
	}
	return DecodeEDToCRS(buf, rows, cols, offset, ctr)
}
