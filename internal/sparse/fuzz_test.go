package sparse

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"testing"
)

// drainDigest reads src to the end and returns the number of entries
// and a digest of them in order, without keeping them, so the caller's
// own allocations stay out of FuzzOpenStream's budget.
func drainDigest(src ChunkReader) (n int, digest uint64, err error) {
	h := fnv.New64a()
	var w [24]byte
	for {
		ch, err := src.Next()
		if err == io.EOF {
			return n, h.Sum64(), nil
		}
		if err != nil {
			return n, h.Sum64(), err
		}
		for _, e := range ch.Entries {
			binary.LittleEndian.PutUint64(w[0:8], uint64(e.Row))
			binary.LittleEndian.PutUint64(w[8:16], uint64(e.Col))
			binary.LittleEndian.PutUint64(w[16:24], math.Float64bits(e.Val))
			h.Write(w[:])
		}
		n += len(ch.Entries)
	}
}

// FuzzOpenStream aims arbitrary bytes at the two file parsers through
// the sniff OpenStream uses — the path the CLI's -input takes, with or
// without -stream — and at what reads a stream that opened: the count
// pass ScanStats and, for shapes of at most 2^16 cells, the oracle
// Materialize. No input may panic; a stream that opened rewinds, and
// every pass yields the same entries and ends the same way; and what
// the parser allocates is bounded by its fixed buffers and the bytes on
// file, with 1 MiB of slack for anything a header declares — a count in
// a header is a claim, not an allocation size. Only what the readers
// must size by the shape widens the budget: ScanStats' two histograms,
// 8·(rows+cols) bytes, and Materialize's dense array, 8·rows·cols
// bytes. ScanStats runs on every shape but those of more than 2^20 and
// at most 2^28 indices (CheckIndexSpan's bound), whose histograms alone
// would take 8 MiB to 2 GiB a run.
func FuzzOpenStream(f *testing.F) {
	for _, c := range textErrorCases {
		f.Add([]byte(c.in))
	}
	for _, c := range hbErrorCases {
		f.Add([]byte(c.in))
	}
	f.Add([]byte(hbSymmetric))
	f.Add([]byte(hbPattern))
	f.Add([]byte("%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2\n2 1 -1\n3 3 4\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern general\n2 3 2\n1 2\n2 3\n"))
	c := FromDense(PaperFigure1())
	rect := FromDense(Uniform(13, 7, 0.3, 1))
	for _, write := range []func(io.Writer) error{
		func(w io.Writer) error { return WriteText(w, c) },
		func(w io.Writer) error { return WriteHB(w, c, "fuzz seed", "SEED") },
		func(w io.Writer) error { return WriteText(w, rect) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Fixed buffers: the scanners' 64 KiB, chunk-sized entry
		// batches. Per byte on file: line strings, scanner growth,
		// 8-byte pointers from one-character fields.
		budget := uint64(1<<20 + 1<<20 + 64*len(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		defer func() {
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > budget {
				t.Errorf("%d-byte input made the parser and its readers allocate %d bytes, budget %d", len(data), got, budget)
			}
		}()

		src, err := sniffStream(bytes.NewReader(data), 16)
		if err != nil {
			return
		}
		n1, d1, err1 := drainDigest(src)
		if err := src.Reset(); err != nil {
			t.Fatalf("Reset of a stream that opened: %v", err)
		}
		n2, d2, err2 := drainDigest(src)
		if n1 != n2 || d1 != d2 || (err1 == nil) != (err2 == nil) {
			t.Errorf("second pass differs: %d entries (digest %x, err %v), then %d (digest %x, err %v)",
				n1, d1, err1, n2, d2, err2)
		}
		// A pass that succeeds hands the stream back rewound, so the next
		// drain yields the same entries; one that fails leaves it where
		// it stopped, for the caller to Reset.
		settled := func(pass string, err error) {
			if err == nil {
				if n, d, derr := drainDigest(src); n != n1 || d != d1 || (derr == nil) != (err1 == nil) {
					t.Errorf("after %s: %d entries (digest %x, err %v), want %d (digest %x, err %v)", pass, n, d, derr, n1, d1, err1)
				}
			} else if err1 == nil {
				t.Errorf("%s failed on a stream the parser read whole: %v", pass, err)
			}
			if err := src.Reset(); err != nil {
				t.Fatalf("Reset after %s: %v", pass, err)
			}
		}
		if err := src.Reset(); err != nil {
			t.Fatalf("Reset of a stream that opened: %v", err)
		}
		rows, cols := src.Shape()
		if span := CheckIndexSpan(rows, cols); span != nil {
			if _, err := ScanStats(src); err == nil {
				t.Errorf("ScanStats counted a shape CheckIndexSpan refuses: %v", span)
			}
			return
		}
		if rows+cols > 1<<20 {
			return // histograms of 8 MiB to 2 GiB a run: more than a fuzzer may take
		}
		budget += 8 * uint64(rows+cols)
		st, err := ScanStats(src)
		if err == nil && (err1 != nil || st.NNZ != n1 || st.Rows != rows || st.Cols != cols) {
			t.Errorf("ScanStats counted %d entries of a %dx%d array, the parser yielded %d of %dx%d (err %v)",
				st.NNZ, st.Rows, st.Cols, n1, rows, cols, err1)
		}
		settled("ScanStats", err)
		if rows < 0 || cols < 0 || rows > 0 && cols > 1<<16/rows {
			return
		}
		budget += 8 * uint64(rows*cols)
		g, err := Materialize(src)
		if err == nil && (err1 != nil || g.Rows() != rows || g.Cols() != cols || g.NNZ() > n1) {
			t.Errorf("Materialize built a %dx%d array with %d nonzeros, the parser yielded %d entries of %dx%d (err %v)",
				g.Rows(), g.Cols(), g.NNZ(), n1, rows, cols, err1)
		}
		settled("Materialize", err)
	})
}
