package compress

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/sparse"
)

// testFormats are the storage formats the per-format tests range over.
var testFormats = []*Format{CRSFormat, CCSFormat, JDSFormat}

func registryFixture(t *testing.T) *sparse.Dense {
	t.Helper()
	d, err := sparse.DenseFromSlice(4, 5, []float64{
		1, 0, 0, 2, 0,
		0, 3, 0, 0, 0,
		4, 0, 5, 6, 0,
		0, 0, 0, 0, 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFormatRegistryRoundTrip drives every registered format through
// the full CFS-style path — compress-from-global, pack, unpack with the
// HeaderExtra word, localise minor indices —
// and checks costs match the direct (non-registry) calls.
func TestFormatRegistryRoundTrip(t *testing.T) {
	d := registryFixture(t)
	rowMap := []int{1, 2, 3}
	colMap := []int{0, 2, 4} // non-contiguous: exercises ConvertMinor
	for _, f := range testFormats {
		name := f.Name
		var comp, dist cost.Counter
		a := f.CompressPart(d, rowMap, colMap, &comp)
		buf := a.PackInto(nil, &dist)
		var rctr cost.Counter
		got, err := f.Unpack(buf, len(rowMap), len(colMap), a.HeaderExtra(), &rctr)
		if err != nil {
			t.Fatalf("%s: unpack: %v", name, err)
		}
		idxMap := colMap
		if f.MinorIsRow {
			idxMap = rowMap
		}
		if err := got.ConvertMinor(idxMap, &rctr); err != nil {
			t.Fatalf("%s: convert: %v", name, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: validate: %v", name, err)
		}
		if got.NNZ() != a.NNZ() {
			t.Errorf("%s: round trip lost nonzeros: %d != %d", name, got.NNZ(), a.NNZ())
		}
	}
}

// TestFormatRegistryDecodeED checks the registry ED decoders against
// the dense source for every format, offset and map variants both.
func TestFormatRegistryDecodeED(t *testing.T) {
	d := registryFixture(t)
	rowMap := []int{0, 1, 2, 3}
	colMap := []int{1, 2, 3, 4}
	for _, f := range testFormats {
		name := f.Name
		var ectr cost.Counter
		buf := EncodeED(d, rowMap, colMap, f.Major, nil, &ectr)
		rows, cols := len(rowMap), len(colMap)
		offset := colMap[0]
		if f.MinorIsRow {
			offset = rowMap[0]
		}
		for _, useMap := range []bool{false, true} {
			var idxMap []int
			if useMap {
				if f.MinorIsRow {
					idxMap = rowMap
				} else {
					idxMap = colMap
				}
			}
			var ctr cost.Counter
			got, err := f.DecodeED(buf, rows, cols, offset, idxMap, &ctr)
			if err != nil {
				t.Fatalf("%s map=%v: %v", name, useMap, err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s map=%v: validate: %v", name, useMap, err)
			}
			want := 0
			for _, i := range rowMap {
				for _, j := range colMap {
					if d.At(i, j) != 0 {
						want++
					}
				}
			}
			if got.NNZ() != want {
				t.Errorf("%s map=%v: decoded %d nonzeros, want %d", name, useMap, got.NNZ(), want)
			}
		}
	}
}

// TestWordToIndexRange locks in the 2^53 exactness guard.
func TestWordToIndexRange(t *testing.T) {
	if _, err := wordToIndex(float64(maxExactWord)); err == nil {
		t.Error("2^53 accepted")
	}
	if _, err := wordToIndex(-float64(maxExactWord)); err == nil {
		t.Error("-2^53 accepted")
	}
	if n, err := wordToIndex(float64(maxExactWord - 1)); err != nil || n != maxExactWord-1 {
		t.Errorf("2^53-1 rejected: %v", err)
	}
}
