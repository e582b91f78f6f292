package core

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"repro/internal/check"
	"repro/internal/sparse"
)

// FuzzDiffDistribute is the end-to-end differential fuzz target: the
// fuzzer's bytes become a small dense array and an axis selector, the
// array is distributed with the invariant checker on the hot path, and
// the differential oracle proves the result exact. Whatever shape or
// pattern the fuzzer invents, a distribution must either fail cleanly
// at Distribute or reassemble to exactly the input — anything else
// (panic, violation, mismatch) is a bug. Seeds come from the
// adversarial generator's corner corpus.
func FuzzDiffDistribute(f *testing.F) {
	for i, c := range check.Adversarial(1, 1) {
		if i >= 24 { // the corner product; the random tail adds nothing here
			break
		}
		f.Add(patternBytes(c.G), int16(c.G.Rows()), int16(c.G.Cols()), uint8(c.Procs), uint8(i))
	}

	schemes := []string{"SFC", "CFS", "ED"}
	methods := []string{"CRS", "CCS", "JDS"}
	partitions := []string{"row", "col", "mesh", "cyclic-row"}
	f.Fuzz(func(t *testing.T, raw []byte, r16, c16 int16, procs8, axis8 uint8) {
		rows, cols := int(r16)%24, int(c16)%24
		if rows < 0 {
			rows = -rows
		}
		if cols < 0 {
			cols = -cols
		}
		g := sparse.NewDense(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if k := i*cols + j; k < len(raw) && raw[k] != 0 {
					g.Set(i, j, float64(raw[k]))
				}
			}
		}
		axis := int(axis8)
		d, err := Distribute(g, Config{
			Scheme:    schemes[axis%len(schemes)],
			Method:    methods[(axis/3)%len(methods)],
			Partition: partitions[(axis/9)%len(partitions)],
			Procs:     1 + int(procs8)%7,
			Check:     true,
		})
		if err != nil {
			t.Fatalf("distribute: %v", err) // no config above is invalid
		}
		defer d.Close()
		if err := d.DiffCheck(); err != nil {
			t.Fatalf("oracle: %v", err)
		}
	})
}

// patternBytes flattens an array's nonzero pattern into the fuzz
// target's byte encoding (zero byte = empty cell).
func patternBytes(g *sparse.Dense) []byte {
	out := make([]byte, g.Rows()*g.Cols())
	for i := 0; i < g.Rows(); i++ {
		for j := 0; j < g.Cols(); j++ {
			if g.At(i, j) != 0 {
				out[i*g.Cols()+j] = byte(1 + (i+j)%250)
			}
		}
	}
	return out
}

// FuzzStreamPlan aims the bytes of a file at NewStreamPlan, the planner
// `sparsedist -stream -input` runs on whatever the parsers accept: the
// stream opens through the exported text or HB constructor (the first
// two bytes pick, as sparse.OpenStream's sniff does), one byte picks the
// partition kind and one the part count. No input may panic. A plan
// fails only on a stream that cannot be read whole; one that builds
// divides the stream's shape into the config's part count and hands
// the source back rewound: its drain equals a fresh open's. A plan
// keeps only the partition's rule, so every shape sparse.CheckIndexSpan
// accepts is planned, but for balanced-row over more than 2^20 rows:
// its count pass holds 8 bytes a row. A shape CheckIndexSpan refuses
// must fail. Seeds are FuzzOpenStream's well-formed inputs and two
// shapes at those bounds.
func FuzzStreamPlan(f *testing.F) {
	seeds := [][]byte{
		[]byte("%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2\n2 1 -1\n3 3 4\n"),
		[]byte("%%MatrixMarket matrix coordinate pattern general\n2 3 2\n1 2\n2 3\n"),
		[]byte("%%X\n2000000 1 0\n"),
		[]byte("%%X\n300000000 1 0\n"),
	}
	c := sparse.FromDense(sparse.PaperFigure1())
	rect := sparse.FromDense(sparse.Uniform(13, 7, 0.3, 1))
	for _, write := range []func(io.Writer) error{
		func(w io.Writer) error { return sparse.WriteText(w, c) },
		func(w io.Writer) error { return sparse.WriteHB(w, c, "fuzz seed", "SEED") },
		func(w io.Writer) error { return sparse.WriteText(w, rect) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	for i, data := range seeds {
		for k := range partitionNames {
			f.Add(data, uint8(k), uint8(i+k))
		}
	}

	open := func(data []byte) (sparse.ChunkReader, error) {
		if bytes.HasPrefix(data, []byte("%%")) {
			return sparse.NewTextStream(bytes.NewReader(data), 16)
		}
		return sparse.NewHBStream(bytes.NewReader(data), 16)
	}
	f.Fuzz(func(t *testing.T, data []byte, kind8, procs8 uint8) {
		src, err := open(data)
		if err != nil {
			return
		}
		cfg := Config{Partition: partitionNames[int(kind8)%len(partitionNames)], Procs: int(procs8) % 17}.Normalized()
		rows, cols := src.Shape()
		if span := sparse.CheckIndexSpan(rows, cols); span != nil {
			if _, err := NewStreamPlan(src, cfg); err == nil {
				t.Errorf("%s planned a shape CheckIndexSpan refuses: %v", cfg.Partition, span)
			}
			return
		}
		if cfg.Partition == "balanced-row" && rows > 1<<20 {
			return // a histogram of 8 MiB to 2 GiB a run: more than a fuzzer may take
		}
		plan, err := NewStreamPlan(src, cfg)
		if err != nil {
			if err := src.Reset(); err != nil {
				t.Fatalf("Reset after a failed plan: %v", err)
			}
			if _, _, derr := drainDigest(src); derr == nil {
				t.Errorf("%s p=%d failed on a %dx%d stream that reads whole: %v", cfg.Partition, cfg.Procs, rows, cols, err)
			}
			return
		}
		if got := plan.Partition.NumParts(); got != cfg.Procs {
			t.Errorf("%s: %d parts, want %d", plan.Partition.Name(), got, cfg.Procs)
		}
		if r, c := plan.Partition.Shape(); r != rows || c != cols {
			t.Errorf("%s: shape %dx%d, want the stream's %dx%d", plan.Partition.Name(), r, c, rows, cols)
		}
		if plan.Source != src {
			t.Fatal("plan does not carry the source it was built from")
		}
		fresh, err := open(data)
		if err != nil {
			t.Fatalf("second open of the same bytes: %v", err)
		}
		n, d, derr := drainDigest(src)
		wn, wd, werr := drainDigest(fresh)
		if n != wn || d != wd || (derr == nil) != (werr == nil) {
			t.Errorf("%s: source after planning drains %d entries (digest %x, err %v), a fresh open %d (digest %x, err %v)",
				cfg.Partition, n, d, derr, wn, wd, werr)
		}
	})
}

// drainDigest reads src to its end and returns the entry count and an
// FNV-1a digest of the entries in order.
func drainDigest(src sparse.ChunkReader) (n int, digest uint64, err error) {
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
