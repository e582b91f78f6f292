package compress

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/sparse"
)

// Wire-format stability goldens: the exact word streams of the ED
// buffer and the CFS pack are part of the system's "network protocol";
// accidental layout changes must fail loudly, not silently produce
// incompatible peers. Hashes computed over the IEEE-754 bit patterns of
// the Figure 1 example (platform-independent).

func hashWords(buf []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range buf {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestWireFormatStability(t *testing.T) {
	g := sparse.PaperFigure1()

	ed := encodeRect(g, 0, 0, 10, 8, RowMajor, nil)
	if got, want := hashWords(ed), uint64(0x04b26784f37a2890); got != want {
		t.Errorf("ED row-major buffer hash = %#x, want %#x — wire layout changed", got, want)
	}
	edc := encodeRect(g, 0, 0, 10, 8, ColMajor, nil)
	if got, want := hashWords(edc), uint64(0x5350218fff77c6ef); got != want {
		t.Errorf("ED col-major buffer hash = %#x, want %#x — wire layout changed", got, want)
	}
	crs := PackCRS(CompressCRS(g, nil), nil)
	if got, want := hashWords(crs), uint64(0xb6fb588f08f7a923); got != want {
		t.Errorf("CFS CRS pack hash = %#x, want %#x — wire layout changed", got, want)
	}
	ccs := PackCCS(CompressCCS(g, nil), nil)
	if got, want := hashWords(ccs), uint64(0x99255516352835d9); got != want {
		t.Errorf("CFS CCS pack hash = %#x, want %#x — wire layout changed", got, want)
	}
	jds := PackJDS(CompressJDS(g, nil), nil)
	if got, want := hashWords(jds), uint64(0x40f8c8a8907b4623); got != want {
		t.Errorf("JDS pack hash = %#x, want %#x — wire layout changed", got, want)
	}
}
