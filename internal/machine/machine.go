// Package machine emulates a distributed-memory multicomputer: p
// processors with private memory that communicate only by message
// passing. It stands in for the paper's IBM SP2 + MPI substrate.
//
// Two transports are provided: an in-process channel transport
// (deterministic, fast) and a localhost TCP transport (exercises a real
// network stack with framed serialisation). Both deliver into one inbox
// per rank, which a receive reads by source and tag the way MPI_Recv
// does; the Proc methods add MPI-style collectives on top.
//
// Timing is dual. Wall-clock time is the caller's business (the dist
// package wraps phases with real timers). Virtual time uses cost.Counter:
// Send charges one message and len(data) elements to the counter the
// caller passes, mirroring the paper's T_Startup/T_Data accounting;
// element operations are charged by the compute kernels themselves.
package machine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/simnet"
	"repro/internal/trace"
)

// Message is one point-to-point transfer. Meta carries small header
// integers (shapes, offsets) the way an MPI implementation would use a
// derived datatype header; Data is the word payload.
type Message struct {
	From, To int
	Tag      int
	Meta     [4]int64
	Data     []float64
	// Pooled marks Data as drawn from the wire-buffer pool: the receiver
	// may return it with ReleaseMessage after decoding. Set by SendBuf
	// (stripped over payload-retaining transports) and by transports that
	// allocate receive buffers from the pool.
	Pooled bool
}

// Transport moves messages between ranks. Its receive side is one
// inbox per rank (inbox.go), which only this package's transports
// provide: a wrapper defined elsewhere embeds a Transport and overrides
// Send.
type Transport interface {
	// Send delivers the message to msg.To's inbox. It does not wait for
	// the receiver.
	Send(msg Message) error
	// Ranks returns the number of ranks the transport serves.
	Ranks() int
	// Close releases transport resources. A receive blocked on the
	// transport returns an error at once. A message already in an inbox
	// stays readable; one still in flight may be dropped.
	Close() error
	// inbox returns the queue rank receives from.
	inbox(rank int) *msgQueue
}

// ErrTimeout is returned by a receive when no message arrives in time;
// it usually indicates a deadlocked communication pattern.
var ErrTimeout = errors.New("machine: receive timed out")

// Machine is a group of p processors sharing a transport.
type Machine struct {
	p         int
	transport Transport
	timeout   time.Duration
	net       *simnet.Network
	retains   bool  // transport may retain sent payloads (see PayloadRetainer)
	nextTag   int64 // the tag allocator cursor (see tags.go)
}

// Option configures a Machine.
type Option func(*Machine)

// WithTransport selects the transport; the default is the channel
// transport.
func WithTransport(t Transport) Option { return func(m *Machine) { m.transport = t } }

// WithRecvTimeout sets the receive watchdog (default 30s). A timed-out
// receive aborts the run with ErrTimeout instead of hanging.
func WithRecvTimeout(d time.Duration) Option { return func(m *Machine) { m.timeout = d } }

// WithTracer records nothing; goes when bench stops calling it (ROADMAP 21a).
func WithTracer(*trace.Tracer) Option { return func(*Machine) {} }

// WithNetwork attaches a simnet recorder: every data message (tag >= 0)
// is recorded as a virtual send at the sender and a matched receive at
// the receiver, and compute layers may add charges of their own.
// Finalizing the network replays the run on its topology. Control
// traffic (negative tags) is not recorded, mirroring the cost model.
func WithNetwork(n *simnet.Network) Option { return func(m *Machine) { m.net = n } }

// Network returns the machine's simnet recorder, or nil.
func (m *Machine) Network() *simnet.Network { return m.net }

// New creates a machine with p processors.
func New(p int, opts ...Option) (*Machine, error) {
	if p <= 0 {
		return nil, fmt.Errorf("machine: processor count %d must be positive", p)
	}
	m := &Machine{p: p, timeout: 30 * time.Second}
	for _, o := range opts {
		o(m)
	}
	if m.transport == nil {
		m.transport = NewChanTransport(p)
	}
	if m.transport.Ranks() != p {
		return nil, fmt.Errorf("machine: transport serves %d ranks, machine has %d", m.transport.Ranks(), p)
	}
	m.retains = transportRetainsPayloads(m.transport)
	m.nextTag = allocTagBase
	return m, nil
}

// P returns the processor count.
func (m *Machine) P() int { return m.p }

// Close releases the transport.
func (m *Machine) Close() error { return m.transport.Close() }

// LinkFailed returns a context that is done once a link of the
// machine's reliability layer has spent a retry budget; its cause is
// that link's error. The failure surfaces at the sender's next Send on
// the link and at its flush when its Run body returns, but a rank
// waiting for the lost frame learns of it only here. It is nil where
// sends cannot fail while the transport is open: only the reliability
// layer gives up on a message (ErrRetriesExhausted).
func (m *Machine) LinkFailed() context.Context {
	if rt, ok := m.transport.(*ReliableTransport); ok {
		return rt.failed
	}
	return nil
}

// Drain discards every message waiting in the ranks' inboxes and
// returns the number dropped. A machine pool calls it between jobs so a
// cancelled or failed run cannot leak stale frames into the next one;
// a clean run drains zero. Only call while no Run is in flight, and
// only over transports that do not retain or replay payloads (the bare
// channel transport a pool hands out).
func (m *Machine) Drain() int {
	n := 0
	for rank := 0; rank < m.p; rank++ {
		n += m.transport.inbox(rank).drain()
	}
	return n
}

// Proc is one processor's handle inside a Run: its rank plus the
// communication endpoints. A receive takes the oldest message it
// matches from the rank's inbox, so RecvFrom matches on (source, tag)
// like MPI_Recv — and several concurrent Run sessions on disjoint tag
// ranges never steal each other's frames.
type Proc struct {
	Rank int
	m    *Machine
}

// Run executes fn on every rank concurrently (SPMD style, like
// mpirun -np p) and waits for all to finish. The first error or panic
// from any rank is returned; remaining goroutines are still joined so
// the transport is quiescent afterwards. Over the reliability layer,
// whose sends do not wait for their ACKs, each rank's body ends by
// waiting for its own frames to be acknowledged: a rank whose link
// spent its retry budget returns that link's error if fn returned
// none.
func (m *Machine) Run(fn func(p *Proc) error) error {
	var wg sync.WaitGroup
	errs := make([]error, m.p)
	rt, _ := m.transport.(*ReliableTransport)
	for rank := 0; rank < m.p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[rank] = fmt.Errorf("machine: rank %d panicked: %v", rank, r)
				}
			}()
			errs[rank] = fn(&Proc{Rank: rank, m: m})
			if rt != nil {
				if err := rt.flush(rank); errs[rank] == nil {
					errs[rank] = err
				}
			}
		}(rank)
	}
	wg.Wait()
	return errors.Join(errs...)
}
