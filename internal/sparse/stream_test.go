package sparse

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// streamAll drains a ChunkReader into one entry slice.
func streamAll(t *testing.T, src ChunkReader) []Entry {
	t.Helper()
	var out []Entry
	for {
		ch, err := src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out
			}
			t.Fatal(err)
		}
		out = append(out, ch.Entries...)
	}
}

// readCOO drains the stream parser open builds over r's bytes into a
// COO, dropping explicit zeros: the whole-file read the format tests
// are written against. The streams are the only parsers, so this is
// also the only way a file becomes a COO.
func readCOO(r io.Reader, open func(*bytes.Reader) (ChunkReader, error)) (*COO, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	src, err := open(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	c := NewCOO(src.Shape())
	for {
		ch, err := src.Next()
		if err == io.EOF {
			return c, nil
		}
		if err != nil {
			return nil, err
		}
		for _, e := range ch.Entries {
			if e.Val != 0 {
				c.Entries = append(c.Entries, e)
			}
		}
	}
}

func readText(r io.Reader) (*COO, error) {
	return readCOO(r, func(b *bytes.Reader) (ChunkReader, error) { return NewTextStream(b, 256) })
}

func readHB(r io.Reader) (*COO, error) {
	return readCOO(r, func(b *bytes.Reader) (ChunkReader, error) { return NewHBStream(b, 256) })
}

// sameArray asserts a streamed source materializes to exactly the array
// that was written.
func sameArray(t *testing.T, src ChunkReader, want *COO) {
	t.Helper()
	got, err := Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want.ToDense()) {
		t.Error("streamed array differs from the array written")
	}
}

// nearArray is sameArray for Harwell-Boeing sources, whose fixed-width
// value fields (E20.12) round.
func nearArray(t *testing.T, src ChunkReader, want *COO) {
	t.Helper()
	got, err := Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ApproxEqual(want.ToDense(), 1e-11) {
		t.Error("streamed array differs from the array written")
	}
}

func TestTextStreamMatchesReadText(t *testing.T) {
	c := FromDense(Uniform(17, 11, 0.3, 3))
	var buf bytes.Buffer
	if err := WriteText(&buf, c); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, chunk := range []int{1, 3, 1024} {
		ts, err := NewTextStream(bytes.NewReader(data), chunk)
		if err != nil {
			t.Fatal(err)
		}
		if r, cols := ts.Shape(); r != 17 || cols != 11 {
			t.Fatalf("shape %dx%d, want 17x11", r, cols)
		}
		sameArray(t, ts, c)
		// Reset rewinds to the first entry.
		if err := ts.Reset(); err != nil {
			t.Fatal(err)
		}
		sameArray(t, ts, c)
	}
}

func TestTextStreamSymmetricAndPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 2
2 1 5
3 3 7
`
	want := NewCOO(3, 3)
	want.Add(1, 0, 5)
	want.Add(0, 1, 5)
	want.Add(2, 2, 7)
	// One entry per chunk: a mirrored pair must not be split or lost at
	// a chunk boundary.
	ts, err := NewTextStream(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	sameArray(t, ts, want)

	pat := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
`
	wantPat := NewCOO(2, 2)
	wantPat.Add(0, 1, 1)
	wantPat.Add(1, 0, 1)
	ps, err := NewTextStream(strings.NewReader(pat), 8)
	if err != nil {
		t.Fatal(err)
	}
	sameArray(t, ps, wantPat)
}

// TestNNZMismatchError: a header that lies about the entry count — in
// either direction — must surface as the typed error, whether the
// stream is drained chunk by chunk or through Materialize, so callers
// can distinguish truncated/overgrown files from parse garbage.
func TestNNZMismatchError(t *testing.T) {
	const banner = "%%MatrixMarket matrix coordinate real general\n"
	short := banner + "3 3 5\n1 1 1\n2 2 2\n"
	long := banner + "3 3 1\n1 1 1\n2 2 2\n3 3 3\n"
	for name, in := range map[string]string{"short": short, "long": long} {
		t.Run("ReadText/"+name, func(t *testing.T) {
			_, err := readText(strings.NewReader(in))
			var mism *NNZMismatchError
			if !errors.As(err, &mism) {
				t.Fatalf("error %v, want *NNZMismatchError", err)
			}
			if mism.Header == mism.Actual {
				t.Errorf("mismatch error reports equal counts: %+v", mism)
			}
			if !strings.Contains(mism.Error(), "header declares") {
				t.Errorf("unhelpful message %q", mism.Error())
			}
		})
		t.Run("TextStream/"+name, func(t *testing.T) {
			ts, err := NewTextStream(strings.NewReader(in), 64)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Materialize(ts)
			var mism *NNZMismatchError
			if !errors.As(err, &mism) {
				t.Fatalf("error %v, want *NNZMismatchError", err)
			}
		})
	}
}

// TestMaterializeRefusesHugeShapes: a two-line file whose header
// declares more cells than a dense array can hold must be an error that
// names the shape, not a makeslice panic. 2^62 x 1 exceeds the largest
// []float64; 2^32 x 2^32 overflows int and would wrap to 0 cells.
func TestMaterializeRefusesHugeShapes(t *testing.T) {
	const banner = "%%MatrixMarket matrix coordinate real general\n"
	for _, c := range []struct{ header, shape string }{
		{"4611686018427387904 1 0", "4611686018427387904x1"},
		{"4294967296 4294967296 0", "4294967296x4294967296"},
	} {
		t.Run(c.shape, func(t *testing.T) {
			ts, err := NewTextStream(strings.NewReader(banner+c.header+"\n"), 64)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Materialize(ts); err == nil || !strings.Contains(err.Error(), c.shape) {
				t.Fatalf("Materialize: %v; want an error naming %s", err, c.shape)
			}
		})
	}
}

func TestHBStreamMatchesReadHB(t *testing.T) {
	for _, seed := range []int64{1, 9} {
		c := FromDense(Uniform(15, 12, 0.2, seed))
		var buf bytes.Buffer
		if err := WriteHB(&buf, c, "stream test", "STRM"); err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 5, 1024} {
			hs, err := NewHBStream(bytes.NewReader(buf.Bytes()), chunk)
			if err != nil {
				t.Fatal(err)
			}
			nearArray(t, hs, c)
			if err := hs.Reset(); err != nil {
				t.Fatal(err)
			}
			nearArray(t, hs, c)
		}
	}
}

func TestOpenStreamSniffsFormats(t *testing.T) {
	c := FromDense(Uniform(9, 9, 0.3, 2))
	dir := t.TempDir()
	write := func(name string, enc func(*bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := enc(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		kind, path string
		same       func(*testing.T, ChunkReader, *COO)
	}{
		{"text", write("a.mtx", func(b *bytes.Buffer) error { return WriteText(b, c) }), sameArray},
		{"hb", write("a.rua", func(b *bytes.Buffer) error { return WriteHB(b, c, "t", "K") }), nearArray},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			src, closer, err := OpenStream(tc.path, 16)
			if err != nil {
				t.Fatal(err)
			}
			defer closer.Close()
			tc.same(t, src, c)
		})
	}
}

func TestScanStatsMatchesRowNNZ(t *testing.T) {
	g := Uniform(23, 17, 0.2, 8)
	c := FromDense(g)
	counts, err := ScanStats(NewStreamCOO(c, 10))
	if err != nil {
		t.Fatal(err)
	}
	wantRows := RowNNZ(g)
	if len(counts) != len(wantRows) {
		t.Fatalf("RowNNZ length %d, want %d", len(counts), len(wantRows))
	}
	total := 0
	for i := range wantRows {
		if counts[i] != wantRows[i] {
			t.Errorf("RowNNZ[%d] = %d, want %d", i, counts[i], wantRows[i])
		}
		total += counts[i]
	}
	if total != c.NNZ() {
		t.Errorf("NNZ = %d, want %d", total, c.NNZ())
	}
}

// TestScanStatsLeavesSourceRewound: a count pass must hand the source
// back positioned at the first entry, ready for the distribution pass.
func TestScanStatsLeavesSourceRewound(t *testing.T) {
	c := FromDense(Uniform(8, 8, 0.4, 1))
	src := NewStreamCOO(c, 5)
	if _, err := ScanStats(src); err != nil {
		t.Fatal(err)
	}
	sameArray(t, src, c)
}

func TestUniformStreamProperties(t *testing.T) {
	const rows, cols, nnz = 200, 150, 5000
	u := NewUniformStream(rows, cols, nnz, 42, 512)
	entries := streamAll(t, u)
	if len(entries) != nnz {
		t.Fatalf("emitted %d entries, want %d", len(entries), nnz)
	}
	seen := make(map[[2]int]bool, nnz)
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			t.Fatalf("entry (%d,%d) out of range", e.Row, e.Col)
		}
		if e.Val == 0 {
			t.Fatal("zero value emitted")
		}
		key := [2]int{e.Row, e.Col}
		if seen[key] {
			t.Fatalf("duplicate position (%d,%d)", e.Row, e.Col)
		}
		seen[key] = true
	}
	// Deterministic and rewindable: a Reset replays the same sequence.
	if err := u.Reset(); err != nil {
		t.Fatal(err)
	}
	again := streamAll(t, u)
	for i := range entries {
		if entries[i] != again[i] {
			t.Fatalf("entry %d differs after Reset: %+v vs %+v", i, entries[i], again[i])
		}
	}
	// A different seed permutes positions.
	other := streamAll(t, NewUniformStream(rows, cols, nnz, 43, 512))
	diff := 0
	for i := range entries {
		if entries[i] != other[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("seed change produced identical stream")
	}
}

func TestMaterializeLastWriteWins(t *testing.T) {
	c := NewCOO(3, 3)
	c.Add(1, 1, 7)
	c.Add(1, 1, 9)
	g, err := Materialize(NewStreamCOO(c, 1))
	if err != nil {
		t.Fatal(err)
	}
	if g.At(1, 1) != 9 {
		t.Errorf("At(1,1) = %v, want 9 (last write wins, matching ToDense)", g.At(1, 1))
	}
}

// TestBalancedRowFromCountsMatchesDense: streamed planning (count pass
// + FromCounts) must land on exactly the boundaries the materialized
// planner picks.
func TestBalancedRowStreamPlanningParity(t *testing.T) {
	g := Uniform(64, 40, 0.18, 13)
	counts, err := ScanStats(NewStreamCOO(FromDense(g), 33))
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 64 {
		t.Fatalf("RowNNZ length %d, want 64", len(counts))
	}
	want := RowNNZ(g)
	for i, n := range want {
		if counts[i] != n {
			t.Fatalf("row %d count %d, want %d", i, counts[i], n)
		}
	}
}
