package compress_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/compress"
	"repro/internal/cost"
)

// TestWholeArrayKernels: CompressCCS and CompressJDS are block and CRS
// kernels applied to the whole array, so they are held — array and
// charge — to the accessor forms over identity maps, which share no
// scan with them, on the adversarial shapes: empty dimensions, single
// rows and columns, all-zero, fully dense, banded.
func TestWholeArrayKernels(t *testing.T) {
	for _, c := range check.Adversarial(120, 20) {
		d := c.G
		rowMap, colMap := make([]int, d.Rows()), make([]int, d.Cols())
		for i := range rowMap {
			rowMap[i] = i
		}
		for j := range colMap {
			colMap[j] = j
		}
		var got, want cost.Counter
		ccs := compress.CompressCCS(d, &got)
		if err := check.CCS(ccs); err != nil {
			t.Errorf("%s: CompressCCS: %v", c.Name, err)
		}
		if !ccs.Equal(compress.CompressCCSPartGlobal(d.At, rowMap, colMap, &want)) || got != want {
			t.Errorf("%s: CompressCCS differs from the accessor form (charged %v, want %v)", c.Name, got, want)
		}
		got.Reset()
		want.Reset()
		jds := compress.CompressJDS(d, &got)
		if err := check.JDS(jds); err != nil {
			t.Errorf("%s: CompressJDS: %v", c.Name, err)
		}
		if !jds.Equal(compress.CompressJDSPartGlobal(d.At, rowMap, colMap, &want)) || got != want {
			t.Errorf("%s: CompressJDS differs from the accessor form (charged %v, want %v)", c.Name, got, want)
		}
	}
}
