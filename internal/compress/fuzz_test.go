package compress

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/sparse"
)

// Fuzz targets for the receiver-side wire decoders: whatever bytes
// arrive, a decoder must return an error or a Validate-clean array —
// never panic, never allocate from a hostile length word. CI runs each
// target briefly via `make fuzz-smoke`.

// wordsFromBytes reinterprets the fuzzer's byte soup as float64 wire
// words (8 bytes each, little endian; the tail remainder is dropped).
func wordsFromBytes(b []byte) []float64 {
	buf := make([]float64, 0, len(b)/8)
	for len(b) >= 8 {
		buf = append(buf, math.Float64frombits(binary.LittleEndian.Uint64(b[:8])))
		b = b[8:]
	}
	return buf
}

func fuzzSeedWords(f *testing.F, seed []float64, rows, cols int16) {
	fuzzSeedWordsAt(f, seed, rows, cols, 0)
}

// fuzzSeedWordsAt seeds the fourth fuzz argument too (the ED decoders'
// index offset, the CFS decoders' header word).
func fuzzSeedWordsAt(f *testing.F, seed []float64, rows, cols, extra int16) {
	b := make([]byte, 8*len(seed))
	for i, w := range seed {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(w))
	}
	f.Add(b, rows, cols, extra)
}

// degenerateSeeds are the adversarial generator's corner shapes: empty
// dimensions, single rows and columns, all-zero and fully dense — the
// shapes whose true wire encodings (zero counts, empty pair regions,
// header-only buffers) the random byte soup is unlikely to hit.
func degenerateSeeds() []*sparse.Dense {
	full := sparse.NewDense(3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			full.Set(i, j, float64(1+i*3+j))
		}
	}
	line := sparse.NewDense(1, 7)
	for j := 0; j < 7; j += 2 {
		line.Set(0, j, float64(j+1))
	}
	return []*sparse.Dense{
		sparse.NewDense(0, 0),
		sparse.NewDense(0, 5),
		sparse.NewDense(5, 0),
		sparse.NewDense(5, 5), // all zero: counts region only
		line,
		line.Transpose(),
		full,
	}
}

func fuzzShape(rows, cols int16) (int, int) {
	// Small positive shapes keep the fuzzer exploring decoder logic
	// instead of huge-allocation paths; negatives still get through to
	// exercise the shape guards.
	return int(rows) % 64, int(cols) % 64
}

// FuzzDecodePartCFS throws malformed wire buffers at all three packed
// format decoders (CRS, CCS, JDS): truncated pointer arrays, lying nnz
// counts, non-integer and out-of-range index words.
func FuzzDecodePartCFS(f *testing.F) {
	var ctr cost.Counter
	d, err := sparse.DenseFromSlice(3, 4, []float64{
		1, 0, 2, 0,
		0, 0, 0, 3,
		4, 5, 0, 0,
	})
	if err != nil {
		f.Fatal(err)
	}
	fuzzSeedWords(f, PackCRS(CompressCRS(d, &ctr), &ctr), 3, 4)
	fuzzSeedWords(f, PackCCS(CompressCCS(d, &ctr), &ctr), 3, 4)
	fuzzSeedWords(f, PackJDS(CompressJDS(d, &ctr), &ctr), 3, 4)
	for _, g := range degenerateSeeds() {
		r, c := int16(g.Rows()), int16(g.Cols())
		fuzzSeedWords(f, PackCRS(CompressCRS(g, &ctr), &ctr), r, c)
		fuzzSeedWords(f, PackCCS(CompressCCS(g, &ctr), &ctr), r, c)
		fuzzSeedWords(f, PackJDS(CompressJDS(g, &ctr), &ctr), r, c)
	}
	f.Add([]byte{}, int16(0), int16(0), int16(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, int16(-1), int16(2), int16(9))

	f.Fuzz(func(t *testing.T, raw []byte, r16, c16, extra16 int16) {
		buf := wordsFromBytes(raw)
		rows, cols := fuzzShape(r16, c16)
		for _, fm := range testFormats {
			var ctr cost.Counter
			a, err := fm.Unpack(buf, rows, cols, int64(extra16), &ctr)
			if err != nil {
				continue
			}
			// Decoders defer Validate so callers can localise indices
			// first; structure (lengths, pointer monotonicity) must
			// already be sound enough that Validate cannot panic.
			_ = a.Validate()
		}
	})
}

// hostileCase is one damaged special buffer and the index offset it is
// decoded under.
type hostileCase struct {
	name string
	buf  []float64
	off  int16
}

// hostileED is a well-formed 3 x 6 row-major special buffer (it is also
// a well-formed column-major one of 6 x 3) and the ways to break it one
// word at a time.
func hostileED() (good []float64, bad []hostileCase) {
	good = []float64{2, 0, 1, 1, 2, 4, 3, 0, 5}
	with := func(i int, w float64) []float64 {
		b := append([]float64(nil), good...)
		b[i] = w
		return b
	}
	add := func(name string, buf []float64, off int16) {
		bad = append(bad, hostileCase{name, buf, off})
	}
	add("count NaN", with(2, math.NaN()), 0)
	add("count +Inf", with(2, math.Inf(1)), 0)
	add("count -Inf", with(1, math.Inf(-1)), 0)
	add("count 2^53", with(0, 1<<53), 0)
	add("count -1", with(1, -1), 0)
	add("count fractional", with(0, 1.5), 0)
	add("count larger than the pair region", with(1, 4), 0)
	add("counts short of the pair region", with(0, 1), 0)
	add("odd pair region", good[:len(good)-1], 0)
	add("shorter than the counts", good[:2], 0)
	add("index NaN", with(7, math.NaN()), 0)
	add("index -Inf", with(3, math.Inf(-1)), 0)
	add("index 2^53", with(5, 1<<53), 0)
	add("index fractional", with(3, 0.5), 0)
	add("index -1", with(3, -1), 0)
	add("index at the span", with(5, 6), 0)
	add("indices descending", with(3, 5), 0)
	add("index repeated", with(5, 1), 0)
	add("explicit zero, last pair", with(8, 0), 0)
	add("explicit negative zero", with(4, math.Copysign(0, -1)), 0)
	add("index in range only before the offset is subtracted", good, 1)
	return good, bad
}

// diffDecodeED holds one live ED decoder to its three-pass reference on
// one input: the same accept/reject decision; on accept the same array
// and the same counter total; on reject a counter left untouched (the
// references charge as they go — that difference is the point).
func diffDecodeED(t *testing.T, name string, got PartArray, gotErr error, gotCtr cost.Counter, want PartArray, wantErr error, wantCtr cost.Counter) {
	t.Helper()
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Errorf("%s: decoder says %v, reference says %v", name, gotErr, wantErr)
	case gotErr != nil:
		if gotCtr != (cost.Counter{}) {
			t.Errorf("%s: rejected buffer charged %v", name, gotCtr)
		}
	default:
		if !sameWords(got, want) {
			t.Errorf("%s: decoded %+v, reference %+v", name, got, want)
		}
		if gotCtr != wantCtr {
			t.Errorf("%s: charged %v, reference %v", name, gotCtr, wantCtr)
		}
	}
}

// sameWords is array equality with values compared as bit patterns: a
// NaN value word is legal payload (only an explicit zero is rejected)
// and must come out of both decoders unchanged.
func sameWords(a, b PartArray) bool {
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	switch a := a.(type) {
	case *CRS:
		b := b.(*CRS)
		return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.RowPtr, b.RowPtr) &&
			slices.Equal(a.ColIdx, b.ColIdx) && slices.Equal(bits(a.Val), bits(b.Val))
	case *CCS:
		b := b.(*CCS)
		return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.ColPtr, b.ColPtr) &&
			slices.Equal(a.RowIdx, b.RowIdx) && slices.Equal(bits(a.Val), bits(b.Val))
	}
	return false
}

// diffDecodeEDAll runs the four live decoders against their references
// on one buffer.
func diffDecodeEDAll(t *testing.T, buf []float64, rows, cols, off int, idxMap []int) {
	t.Helper()
	var c, rc cost.Counter
	crs, err := DecodeEDToCRS(buf, rows, cols, off, &c)
	rcrs, rerr := refDecodeEDToCRS(buf, rows, cols, off, &rc)
	diffDecodeED(t, "DecodeEDToCRS", crs, err, c, rcrs, rerr, rc)

	c, rc = cost.Counter{}, cost.Counter{}
	ccs, err := DecodeEDToCCS(buf, rows, cols, off, &c)
	rccs, rerr := refDecodeEDToCCS(buf, rows, cols, off, &rc)
	diffDecodeED(t, "DecodeEDToCCS", ccs, err, c, rccs, rerr, rc)

	c, rc = cost.Counter{}, cost.Counter{}
	crs, err = DecodeEDToCRSMap(buf, rows, idxMap, &c)
	rcrs, rerr = refDecodeEDToCRSMap(buf, rows, idxMap, &rc)
	diffDecodeED(t, "DecodeEDToCRSMap", crs, err, c, rcrs, rerr, rc)

	c, rc = cost.Counter{}, cost.Counter{}
	ccs, err = DecodeEDToCCSMap(buf, cols, idxMap, &c)
	rccs, rerr = refDecodeEDToCCSMap(buf, cols, idxMap, &rc)
	diffDecodeED(t, "DecodeEDToCCSMap", ccs, err, c, rccs, rerr, rc)
}

// FuzzDecodePartED throws malformed special buffers at the ED decoders
// for every format, with and without an index map: truncated (C, V)
// pair lists, hostile count words, indices outside the map. It is
// differential: the one-pass decoders must agree with the three-pass
// references of edref_test.go on every input.
func FuzzDecodePartED(f *testing.F) {
	var ctr cost.Counter
	d, err := sparse.DenseFromSlice(3, 4, []float64{
		1, 0, 2, 0,
		0, 0, 0, 3,
		4, 5, 0, 0,
	})
	if err != nil {
		f.Fatal(err)
	}
	fuzzSeedWords(f, encodeRect(d, 0, 0, 3, 4, RowMajor, &ctr), 3, 4)
	fuzzSeedWords(f, encodeRect(d, 0, 0, 3, 4, ColMajor, &ctr), 3, 4)
	for _, g := range degenerateSeeds() {
		r, c := int16(g.Rows()), int16(g.Cols())
		fuzzSeedWords(f, encodeRect(g, 0, 0, g.Rows(), g.Cols(), RowMajor, &ctr), r, c)
		fuzzSeedWords(f, encodeRect(g, 0, 0, g.Rows(), g.Cols(), ColMajor, &ctr), r, c)
	}
	good, bad := hostileED()
	fuzzSeedWords(f, good, 3, 6)
	fuzzSeedWords(f, good, 6, 3)
	fuzzSeedWordsAt(f, []float64{1, 0, 1, 7, 2, 4, 3}, 3, 6, 2)               // in range only after the subtraction
	fuzzSeedWords(f, []float64{1, 0, 1, 2, math.NaN(), 4, math.Inf(1)}, 3, 6) // NaN and Inf are legal values
	for _, h := range bad {
		fuzzSeedWordsAt(f, h.buf, 3, 6, h.off)
		fuzzSeedWordsAt(f, h.buf, 6, 3, h.off)
	}
	f.Add([]byte{}, int16(0), int16(0), int16(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, int16(2), int16(2), int16(1))

	f.Fuzz(func(t *testing.T, raw []byte, r16, c16, off16 int16) {
		buf := wordsFromBytes(raw)
		rows, cols := fuzzShape(r16, c16)
		idxMap := make([]int, 8)
		for i := range idxMap {
			idxMap[i] = 2 * i
		}
		diffDecodeEDAll(t, buf, rows, cols, int(off16), idxMap)
		for _, fm := range testFormats {
			name := fm.Name
			for _, m := range [][]int{nil, idxMap} {
				var ctr cost.Counter
				a, err := fm.DecodeED(buf, rows, cols, int(off16), m, &ctr)
				if err != nil {
					continue
				}
				if err := a.Validate(); err != nil {
					t.Errorf("%s: DecodeED returned invalid array without error: %v", name, err)
				}
			}
		}
	})
}

// TestDecodeEDRejectedChargesNothing: a decode that fails books no
// work — the charge is made once, after the last check — so
// dist.decodeTimed, which books the decode with one pr.Charge and only
// after the decode succeeds, never charges compute for a part that was
// not produced. Every hostile buffer is also rejected by the reference
// decoders, and the intact one decodes identically.
func TestDecodeEDRejectedChargesNothing(t *testing.T) {
	good, bad := hostileED()
	idxMap := []int{0, 1, 2, 4, 5, 7} // strided, holds every index of good
	diffDecodeEDAll(t, good, 3, 6, 0, idxMap)
	for _, h := range bad {
		var ctr cost.Counter
		if m, err := DecodeEDToCRS(h.buf, 3, 6, int(h.off), &ctr); err == nil {
			t.Errorf("%s: accepted as %+v", h.name, m)
		} else if ctr != (cost.Counter{}) {
			t.Errorf("%s: rejected (%v) but charged %v", h.name, err, ctr)
		}
		diffDecodeEDAll(t, h.buf, 3, 6, int(h.off), idxMap)
		diffDecodeEDAll(t, h.buf, 6, 3, int(h.off), idxMap)
	}
}
