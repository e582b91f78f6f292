package sparse

import (
	"fmt"
	"io"
	"math"
	"os"
)

// Out-of-core streaming ingest. A ChunkReader yields bounded batches of
// coordinate entries instead of a materialized COO or Dense, so the
// distribution engine can partition, encode and ship tiles while the
// input is still being read, with root memory bounded by the chunk size
// plus the engine's frame budget rather than by nnz.

// DefaultChunkEntries is the chunk size used when a reader is built
// with chunkEntries <= 0: 64k entries ≈ 1.5 MiB of Entry structs.
const DefaultChunkEntries = 64 * 1024

// Chunk is one bounded batch of coordinate entries (0-based, nonzero
// values). The backing array is owned by the reader and is only valid
// until the next call to Next.
type Chunk struct {
	Entries []Entry
}

// ChunkReader streams a sparse array as a sequence of bounded chunks.
//
// Next returns io.EOF after the last chunk. Readers may repeat a
// coordinate (e.g. a file listing duplicates); consumers that need
// set-semantics must dedup with last-write-wins, matching ToDense.
// Reset rewinds the stream to the beginning so it can be scanned again
// (e.g. a stats count pass before the distribution pass).
type ChunkReader interface {
	// Shape returns the declared array dimensions.
	Shape() (rows, cols int)
	// NNZHint returns the declared number of entries the stream will
	// yield, or -1 when the source does not declare one.
	NNZHint() int
	// Next returns the next chunk, or io.EOF when the stream is done.
	Next() (Chunk, error)
	// Reset rewinds the stream to the beginning.
	Reset() error
}

// ScanStats is the count pass that plans a balanced partition without
// materializing the array: it consumes src to the end, returns each
// row's entry count (duplicate coordinates count once each, as the
// next pass will deliver them) and rewinds src. O(rows) memory, no
// entry storage; every other partition needs only the shape.
func ScanStats(src ChunkReader) ([]int, error) {
	rows, cols := src.Shape()
	if err := CheckIndexSpan(rows, cols); err != nil {
		return nil, fmt.Errorf("sparse: %w", err)
	}
	rowNNZ := make([]int, rows)
	for {
		ch, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for _, e := range ch.Entries {
			if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
				return nil, fmt.Errorf("sparse: stream entry (%d, %d) out of range %dx%d", e.Row, e.Col, rows, cols)
			}
			rowNNZ[e.Row]++
		}
	}
	if err := src.Reset(); err != nil {
		return nil, fmt.Errorf("sparse: rewinding stream after count pass: %w", err)
	}
	return rowNNZ, nil
}

// maxDenseCells is the most cells a Dense can hold: the runtime refuses
// a slice above 2^48 bytes on 64-bit hosts, and above the address space
// on 32-bit ones.
const maxDenseCells = min(1<<45, math.MaxInt/8)

// maxIndexSpan is the most rows plus columns a shape may have. What a
// run tabulates by index is O(rows + cols) words: ScanStats' row
// histogram, a partition's ownership maps (built on first use, 8 bytes
// an index) and a Locator's owner tables (4 bytes an index). A file
// header alone could otherwise size them at gigabytes and end the
// process in a fatal out of memory. The bound is also far below the
// int32 range the owner tables are stored in.
const maxIndexSpan = 1 << 28

// CheckIndexSpan returns an error naming the shape if its rows plus
// columns exceed maxIndexSpan. Each dimension is checked before they
// are added, so the sum cannot overflow.
func CheckIndexSpan(rows, cols int) error {
	if rows > maxIndexSpan || cols > maxIndexSpan || rows+cols > maxIndexSpan {
		return fmt.Errorf("a %dx%d array: rows %d plus cols %d exceed the %d indices a run may tabulate", rows, cols, rows, cols, maxIndexSpan)
	}
	return nil
}

// Materialize drains src into a dense array (last write wins for
// duplicate coordinates) and rewinds it. It is the differential oracle
// for streamed runs and deliberately costs the memory streaming avoids.
// A shape with more cells than a dense array can hold is an error that
// names it, returned before anything is allocated.
func Materialize(src ChunkReader) (*Dense, error) {
	rows, cols := src.Shape()
	if rows > 0 && cols > maxDenseCells/rows {
		return nil, fmt.Errorf("sparse: a %dx%d array has more cells than a dense array can hold (%d)", rows, cols, maxDenseCells)
	}
	d := NewDense(rows, cols)
	for {
		ch, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for _, e := range ch.Entries {
			if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
				return nil, fmt.Errorf("sparse: stream entry (%d, %d) out of range %dx%d", e.Row, e.Col, rows, cols)
			}
			d.Set(e.Row, e.Col, e.Val)
		}
	}
	if err := src.Reset(); err != nil {
		return nil, fmt.Errorf("sparse: rewinding stream after materialize: %w", err)
	}
	return d, nil
}

// StreamCOO adapts an in-memory COO to the ChunkReader interface,
// yielding its entries in order in bounded chunks. The COO must not be
// mutated while streaming.
type StreamCOO struct {
	coo   *COO
	chunk int
	pos   int
}

// NewStreamCOO wraps c in a ChunkReader with the given chunk size
// (entries per chunk; <= 0 uses DefaultChunkEntries).
func NewStreamCOO(c *COO, chunkEntries int) *StreamCOO {
	if chunkEntries <= 0 {
		chunkEntries = DefaultChunkEntries
	}
	return &StreamCOO{coo: c, chunk: chunkEntries}
}

func (s *StreamCOO) Shape() (rows, cols int) { return s.coo.Rows, s.coo.Cols }
func (s *StreamCOO) NNZHint() int            { return len(s.coo.Entries) }
func (s *StreamCOO) Reset() error            { s.pos = 0; return nil }

func (s *StreamCOO) Next() (Chunk, error) {
	if s.pos >= len(s.coo.Entries) {
		return Chunk{}, io.EOF
	}
	end := s.pos + s.chunk
	if end > len(s.coo.Entries) {
		end = len(s.coo.Entries)
	}
	ch := Chunk{Entries: s.coo.Entries[s.pos:end]}
	s.pos = end
	return ch, nil
}

// UniformStream generates exactly nnz distinct nonzero positions of a
// rows x cols array in O(1) memory per entry: positions walk an affine
// bijection pos(k) = (a·k + b) mod (rows·cols) with gcd(a, rows·cols)=1,
// so all positions are distinct without any materialized sample set,
// and values come from a splitmix64 hash of the index. This is how the
// bounded-memory tests and benches get a ~10M-nonzero input that never
// exists in memory at once.
type UniformStream struct {
	rows, cols int
	nnz        int
	a, b       uint64
	seed       uint64
	chunk      int
	pos        int
	buf        []Entry
}

// NewUniformStream builds a deterministic synthetic stream with exactly
// nnz distinct nonzero positions. nnz must not exceed rows*cols.
func NewUniformStream(rows, cols, nnz int, seed int64, chunkEntries int) *UniformStream {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("sparse: UniformStream shape %dx%d must be positive", rows, cols))
	}
	size := uint64(rows) * uint64(cols)
	if uint64(nnz) > size {
		panic(fmt.Sprintf("sparse: UniformStream nnz %d exceeds %dx%d", nnz, rows, cols))
	}
	if chunkEntries <= 0 {
		chunkEntries = DefaultChunkEntries
	}
	// Derive an odd multiplier coprime to size; stepping by 2 keeps it
	// odd and terminates because some odd residue is always coprime.
	a := splitmix64(uint64(seed))%size | 1
	for gcd(a, size) != 1 {
		a = (a + 2) % size
		if a == 0 {
			a = 1
		}
	}
	b := splitmix64(uint64(seed)+0x9e3779b97f4a7c15) % size
	return &UniformStream{rows: rows, cols: cols, nnz: nnz,
		a: a, b: b, seed: uint64(seed), chunk: chunkEntries}
}

func (u *UniformStream) Shape() (rows, cols int) { return u.rows, u.cols }
func (u *UniformStream) NNZHint() int            { return u.nnz }
func (u *UniformStream) Reset() error            { u.pos = 0; return nil }

func (u *UniformStream) Next() (Chunk, error) {
	if u.pos >= u.nnz {
		return Chunk{}, io.EOF
	}
	n := u.nnz - u.pos
	if n > u.chunk {
		n = u.chunk
	}
	if cap(u.buf) < n {
		u.buf = make([]Entry, n)
	}
	u.buf = u.buf[:n]
	size := uint64(u.rows) * uint64(u.cols)
	for i := 0; i < n; i++ {
		k := uint64(u.pos + i)
		pos := (u.a*k + u.b) % size
		// Map the hash into (0, 1]: never zero, deterministic per index.
		h := splitmix64(u.seed ^ (k + 1))
		val := float64(h>>11)/float64(1<<53)*0.999 + 0.001
		u.buf[i] = Entry{Row: int(pos / uint64(u.cols)), Col: int(pos % uint64(u.cols)), Val: val}
	}
	u.pos += n
	return Chunk{Entries: u.buf}, nil
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// OpenStream opens path as a ChunkReader, sniffing the format: a "%%"
// banner is text coordinate/Matrix-Market, anything else
// Harwell-Boeing. The caller owns closing the returned
// io.Closer (the underlying file).
func OpenStream(path string, chunkEntries int) (ChunkReader, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	r, err := sniffStream(f, chunkEntries)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f, nil
}

// seekerAt is what the two parsers need of a file between them:
// TextStream rewinds by seeking, HBStream reads its index and value
// sections through two cursors at once.
type seekerAt interface {
	io.ReadSeeker
	io.ReaderAt
}

// sniffStream picks the parser for src by its first bytes; it is
// OpenStream without the file, so arbitrary bytes can be aimed at both
// parsers (FuzzOpenStream).
func sniffStream(src seekerAt, chunkEntries int) (ChunkReader, error) {
	head := make([]byte, 2)
	n, err := src.ReadAt(head, 0)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("sparse: sniffing format: %w", err)
	}
	if string(head[:n]) == "%%" {
		return NewTextStream(src, chunkEntries)
	}
	return NewHBStream(src, chunkEntries)
}
