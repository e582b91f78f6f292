package compress

import "repro/internal/cost"

// Wire packing for the CFS scheme (paper §3.2): after compressing each
// local piece, the root packs RO, CO, VL into one flat word buffer, sends
// it, and the receiver unpacks it back into a compressed array. One
// operation is charged per copied word on both sides, which yields the
// paper's packing term (2·n²·s + n + p) and unpacking term
// (⌈n/p⌉·n·(2s' + 1/n) + 1) when summed over parts.
//
// Layout: [ RowPtr (rows+1 words) | ColIdx (nnz words) | Val (nnz words) ]
// (dually ColPtr/RowIdx for CCS). Shape metadata travels in the message
// header, not the payload, as an MPI implementation would do with a
// derived datatype.

// PackCRS serialises a CRS into a flat word buffer, charging one
// operation per word.
func PackCRS(m *CRS, ctr *cost.Counter) []float64 {
	return m.PackInto(nil, ctr)
}

// PackCRSInto serialises a CRS by appending to buf, growing it only
// when its capacity is too small. Charging is identical to PackCRS:
// one operation per appended word.
func PackCRSInto(m *CRS, buf []float64, ctr *cost.Counter) []float64 {
	return m.lines().packInto(buf, ctr)
}

// UnpackCRS deserialises a buffer produced by PackCRS into a CRS of the
// given shape. The result may still hold global column indices; apply
// ShiftCols afterwards per Case 3.2.2/3.2.3. Validation is deferred to
// the caller for that reason. The charge is made once, after the last
// word has been accepted: a rejected buffer charges nothing.
func UnpackCRS(buf []float64, rows, cols int, ctr *cost.Counter) (*CRS, error) {
	l, err := unpackLines(crsAxes, buf, rows, cols, ctr)
	if err != nil {
		return nil, err
	}
	return crsOf(l), nil
}

// PackCCS serialises a CCS into a flat word buffer; see PackCRS.
func PackCCS(m *CCS, ctr *cost.Counter) []float64 {
	return m.PackInto(nil, ctr)
}

// UnpackCCS deserialises a buffer produced by PackCCS into a CCS of the
// given shape. RowIdx may still hold global indices; apply ShiftRows.
// As with UnpackCRS, a rejected buffer charges nothing.
func UnpackCCS(buf []float64, rows, cols int, ctr *cost.Counter) (*CCS, error) {
	l, err := unpackLines(ccsAxes, buf, cols, rows, ctr)
	if err != nil {
		return nil, err
	}
	return ccsOf(l), nil
}
