package sparse

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary COO container: the out-of-core interchange format. Fixed-width
// little-endian records make it seekable and chunkable without parsing,
// so a multi-gigabyte array streams at disk speed.
//
// Layout:
//
//	8 bytes  magic "SPBINCOO"
//	8 bytes  int64 rows
//	8 bytes  int64 cols
//	8 bytes  int64 nnz (record count)
//	nnz records of 24 bytes: int64 row, int64 col, float64 value
const (
	binaryMagic      = "SPBINCOO"
	binaryHeaderLen  = 8 + 3*8
	binaryRecordLen  = 3 * 8
	maxBinaryEntries = 1 << 40 // sanity cap on a declared nnz
)

// WriteBinary writes the COO to w in the binary container format.
func WriteBinary(w io.Writer, c *COO) error {
	bw := bufio.NewWriter(w)
	var hdr [binaryHeaderLen]byte
	copy(hdr[:8], binaryMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(c.Rows))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(c.Cols))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(c.Entries)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("sparse: writing binary header: %w", err)
	}
	var rec [binaryRecordLen]byte
	for _, e := range c.Entries {
		putBinaryRecord(&rec, e)
		if _, err := bw.Write(rec[:]); err != nil {
			return fmt.Errorf("sparse: writing binary entry: %w", err)
		}
	}
	return bw.Flush()
}

func putBinaryRecord(rec *[binaryRecordLen]byte, e Entry) {
	binary.LittleEndian.PutUint64(rec[0:8], uint64(e.Row))
	binary.LittleEndian.PutUint64(rec[8:16], uint64(e.Col))
	binary.LittleEndian.PutUint64(rec[16:24], math.Float64bits(e.Val))
}

// BinaryStream is the chunked reader for the binary COO container. Its
// buffers hold one chunk; the header's nnz only says when to stop.
type BinaryStream struct {
	rs         io.ReadSeeker
	br         *bufio.Reader
	rows, cols int
	nnz        int
	read       int
	chunk      int
	buf        []Entry
	rec        []byte
}

// NewBinaryStream builds a chunked reader over rs (the constructor
// seeks to the start and parses the header).
func NewBinaryStream(rs io.ReadSeeker, chunkEntries int) (*BinaryStream, error) {
	if chunkEntries <= 0 {
		chunkEntries = DefaultChunkEntries
	}
	b := &BinaryStream{rs: rs, chunk: chunkEntries}
	if err := b.Reset(); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *BinaryStream) Shape() (rows, cols int) { return b.rows, b.cols }
func (b *BinaryStream) NNZHint() int            { return b.nnz }

// Reset seeks back to the start and re-parses the header.
func (b *BinaryStream) Reset() error {
	if _, err := b.rs.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("sparse: rewinding binary stream: %w", err)
	}
	b.br = bufio.NewReaderSize(b.rs, 1<<20)
	b.read = 0
	var hdr [binaryHeaderLen]byte
	if _, err := io.ReadFull(b.br, hdr[:]); err != nil {
		return fmt.Errorf("sparse: reading binary header: %w", err)
	}
	if string(hdr[:8]) != binaryMagic {
		return fmt.Errorf("sparse: bad binary magic %q", hdr[:8])
	}
	rows := int64(binary.LittleEndian.Uint64(hdr[8:16]))
	cols := int64(binary.LittleEndian.Uint64(hdr[16:24]))
	nnz := int64(binary.LittleEndian.Uint64(hdr[24:32]))
	if rows < 0 || cols < 0 || nnz < 0 || nnz > maxBinaryEntries {
		return fmt.Errorf("sparse: bad binary header %dx%d nnz %d", rows, cols, nnz)
	}
	b.rows, b.cols, b.nnz = int(rows), int(cols), int(nnz)
	return nil
}

func (b *BinaryStream) Next() (Chunk, error) {
	if b.read >= b.nnz {
		// A well-formed container ends exactly at the declared count;
		// trailing bytes mean the header lied.
		if _, err := b.br.ReadByte(); err == nil {
			return Chunk{}, &NNZMismatchError{Header: b.nnz, Actual: b.nnz + 1}
		}
		return Chunk{}, io.EOF
	}
	n := b.nnz - b.read
	if n > b.chunk {
		n = b.chunk
	}
	if cap(b.buf) < n {
		b.buf = make([]Entry, n)
	}
	b.buf = b.buf[:n]
	if cap(b.rec) < n*binaryRecordLen {
		b.rec = make([]byte, n*binaryRecordLen)
	}
	b.rec = b.rec[:n*binaryRecordLen]
	if _, err := io.ReadFull(b.br, b.rec); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Chunk{}, &NNZMismatchError{Header: b.nnz, Actual: b.read}
		}
		return Chunk{}, fmt.Errorf("sparse: reading binary entries: %w", err)
	}
	for i := 0; i < n; i++ {
		off := i * binaryRecordLen
		row := int64(binary.LittleEndian.Uint64(b.rec[off : off+8]))
		col := int64(binary.LittleEndian.Uint64(b.rec[off+8 : off+16]))
		val := math.Float64frombits(binary.LittleEndian.Uint64(b.rec[off+16 : off+24]))
		if row < 0 || row >= int64(b.rows) || col < 0 || col >= int64(b.cols) {
			return Chunk{}, fmt.Errorf("sparse: binary entry (%d, %d) out of range %dx%d", row, col, b.rows, b.cols)
		}
		b.buf[i] = Entry{Row: int(row), Col: int(col), Val: val}
	}
	b.read += n
	return Chunk{Entries: b.buf}, nil
}
