package machine

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"sync"
	"time"
)

// TCPTransport runs the same message-passing interface over a real
// localhost TCP connection, demonstrating that the schemes work across
// a network stack with framed binary serialisation (the role MPI plays
// on the paper's SP2).
//
// Topology: one loopback connection carries every rank's frames. Sends
// are written on the dialed end; one read loop on the accepted end
// routes each frame by its destination into that rank's inbox, which
// grows with its backlog, so a rank that is slow to receive never holds
// up traffic to the others. The listener closes once dialAccept has paired the ends.
//
// Frame layout (little-endian):
//
//	int64 from | int64 to | int64 tag | 4x int64 meta | int64 nwords | nwords x float64
type TCPTransport struct {
	p        int
	conn     net.Conn      // dialed end: every Send writes here
	hub      net.Conn      // accepted end: the read loop reads here
	w        *bufio.Writer // on conn, guarded by writeMu
	writeMu  sync.Mutex
	inboxes  []msgQueue
	readDone chan struct{} // closed when the read loop returns
}

// tcpBufBytes sizes the connection's reader and writer: a typical frame
// is one write, and a large frame's chunks (bigger) bypass them.
const tcpBufBytes = 16 << 10

// NewTCPTransport creates a TCP transport for p ranks on 127.0.0.1.
func NewTCPTransport(p int) (*TCPTransport, error) {
	if p <= 0 {
		return nil, fmt.Errorf("machine: tcp transport: rank count %d must be positive", p)
	}
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("machine: tcp transport: listen: %w", err)
	}
	conn, hub, err := dialAccept(ln)
	ln.Close()
	if err != nil {
		return nil, fmt.Errorf("machine: tcp transport: %w", err)
	}
	t := &TCPTransport{p: p, conn: conn, hub: hub, w: bufio.NewWriterSize(conn, tcpBufBytes),
		inboxes: make([]msgQueue, p), readDone: make(chan struct{})}
	go t.readLoop()
	return t, nil
}

const helloWait = 5 * time.Second // bounds the dial and the accepts of a new transport

// dialAccept dials ln and accepts that connection. Any local process
// may connect to ln too: one from an address other than the dialed
// end's is closed unread, so a stranger can neither take its place nor
// hold up the handshake. The dialed end writes a random token before
// the accept, and the accepted end reads it back.
func dialAccept(ln *net.TCPListener) (conn, hub net.Conn, err error) {
	if err = ln.SetDeadline(time.Now().Add(helloWait)); err != nil {
		return nil, nil, err
	}
	// The handshake completes in the listen backlog, so the dial returns
	// before the accept below is called.
	if conn, err = net.DialTimeout("tcp", ln.Addr().String(), helloWait); err != nil {
		return nil, nil, fmt.Errorf("dial: %w", err)
	}
	var token, got [8]byte
	binary.LittleEndian.PutUint64(token[:], rand.Uint64())
	_, err = conn.Write(token[:])
	for err == nil {
		if hub, err = ln.Accept(); err != nil {
			break
		}
		if hub.RemoteAddr().String() != conn.LocalAddr().String() {
			hub.Close()
			continue
		}
		if _, err = io.ReadFull(hub, got[:]); err == nil && got == token {
			return conn, hub, nil
		}
		hub.Close()
		if err == nil {
			err = fmt.Errorf("token %x, want %x", got, token)
		}
	}
	conn.Close()
	return nil, nil, fmt.Errorf("handshake: %w", err)
}

// readLoop parses frames off the accepted end and queues each for its
// destination rank without ever waiting on a receiver. A read error —
// the connection closed — ends it and fails every rank's queue, so a
// blocked receive returns at once.
func (t *TCPTransport) readLoop() {
	r := bufio.NewReaderSize(t.hub, tcpBufBytes)
	msg, err := readFrame(r)
	for ; err == nil; msg, err = readFrame(r) {
		// A frame for an out-of-range rank is damaged or hostile: drop it.
		if msg.To >= 0 && msg.To < t.p {
			t.inboxes[msg.To].push(msg)
		}
	}
	for i := range t.inboxes {
		t.inboxes[i].fail(errClosed)
	}
	close(t.readDone)
}

// Ranks implements Transport.
func (t *TCPTransport) Ranks() int { return t.p }

// Send implements Transport: it frames the message onto the shared
// connection; the read loop routes it.
func (t *TCPTransport) Send(msg Message) error {
	if msg.To < 0 || msg.To >= t.p {
		return fmt.Errorf("machine: tcp transport: invalid destination %d", msg.To)
	}
	if msg.From < 0 || msg.From >= t.p {
		return fmt.Errorf("machine: tcp transport: invalid source %d", msg.From)
	}
	// One sender at a time: a frame is written whole, so frames between
	// a pair of ranks arrive in send order. After Close the write fails.
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	if err := writeFrame(t.w, msg); err != nil {
		return fmt.Errorf("machine: tcp transport: write frame: %w", err)
	}
	return t.w.Flush()
}

func (t *TCPTransport) inbox(rank int) *msgQueue { return &t.inboxes[rank] }

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.conn.Close()
	t.hub.Close()
	<-t.readDone
	return nil
}

const (
	frameChunkWords = 4096    // words per chunk a frame is encoded or decoded through
	frameEagerWords = 1 << 13 // a claimed payload up to this is allocated before it arrives
	maxFrameWords   = 1 << 28 // 2 GiB of float64s; guards against corrupt frames
)

type frameChunk = [8 * frameChunkWords]byte

// frameChunks recycles the chunk buffers, so a frame or a checksum
// costs no allocation of its own.
var frameChunks = sync.Pool{New: func() any { return new(frameChunk) }}

// encodeWords writes msg's routing header and metadata, then last,
// then payload, as little-endian 64-bit words into a pooled chunk,
// handing each filled chunk to emit. Frames and checksums both begin
// this way.
func encodeWords(msg Message, last uint64, payload []float64, emit func([]byte) error) error {
	buf := frameChunks.Get().(*frameChunk)
	defer frameChunks.Put(buf)
	n := 0
	for _, v := range [8]uint64{uint64(msg.From), uint64(msg.To), uint64(msg.Tag),
		uint64(msg.Meta[0]), uint64(msg.Meta[1]), uint64(msg.Meta[2]), uint64(msg.Meta[3]), last} {
		binary.LittleEndian.PutUint64(buf[n:], v)
		n += 8
	}
	for {
		k := min(len(payload), (len(buf)-n)/8)
		for _, v := range payload[:k] {
			binary.LittleEndian.PutUint64(buf[n:], math.Float64bits(v))
			n += 8
		}
		if err := emit(buf[:n]); err != nil {
			return err
		}
		if payload = payload[k:]; len(payload) == 0 {
			return nil
		}
		n = 0
	}
}

func writeFrame(w io.Writer, msg Message) error {
	return encodeWords(msg, uint64(len(msg.Data)), msg.Data, func(b []byte) error {
		_, err := w.Write(b)
		return err
	})
}

// readFrame parses one frame: the header in one block, the payload a
// chunk at a time. The payload is drawn from the wire-buffer pool (the
// message is marked Pooled so the consumer may release it after
// decoding) and doubles only as its bytes arrive, so a header claiming
// more words than follow costs frameEagerWords or twice what arrived.
func readFrame(r io.Reader) (Message, error) {
	buf := frameChunks.Get().(*frameChunk)
	defer frameChunks.Put(buf)
	if _, err := io.ReadFull(r, buf[:64]); err != nil {
		return Message{}, err
	}
	word := func(i int) int64 { return int64(binary.LittleEndian.Uint64(buf[8*i:])) }
	msg := Message{From: int(word(0)), To: int(word(1)), Tag: int(word(2)),
		Meta: [4]int64{word(3), word(4), word(5), word(6)}, Pooled: true}
	n := int(word(7))
	if n < 0 || n > maxFrameWords {
		return Message{}, fmt.Errorf("machine: tcp frame claims %d words", n)
	}
	if n > 0 {
		msg.Data = GetBuf(min(n, frameEagerWords))
	}
	for len(msg.Data) < n {
		got := len(msg.Data)
		k := min(n-got, frameChunkWords)
		if _, err := io.ReadFull(r, buf[:8*k]); err != nil {
			PutBuf(msg.Data)
			return Message{}, err
		}
		if old := msg.Data; got+k > cap(old) { // got <= cap and k <= frameEagerWords <= cap: doubling fits
			msg.Data = append(GetBuf(min(n, 2*cap(old))), old...)
			PutBuf(old)
		}
		msg.Data = msg.Data[:got+k]
		for i := range k {
			msg.Data[got+i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
	}
	return msg, nil
}
