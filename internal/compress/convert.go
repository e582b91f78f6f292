package compress

// Format conversions between CRS and CCS. These are not needed by the
// distribution schemes themselves but round out the library for
// downstream sparse kernels (e.g. transposed SpMV) and give the tests a
// second, independent construction path to verify against. All three
// are one counting sort, (lines).transpose, relabelled.

// CRSToCCS converts a CRS array to CCS using a counting sort over
// columns; O(nnz + cols).
func CRSToCCS(m *CRS) *CCS { return ccsOf(m.lines().transpose()) }

// CCSToCRS converts a CCS array to CRS using a counting sort over rows;
// O(nnz + rows).
func CCSToCRS(m *CCS) *CRS { return crsOf(m.lines().transpose()) }
