package server

import (
	"sync"

	"repro/internal/core"
	"repro/internal/machine"
)

// machinePool recycles emulated machines between jobs. Building a
// machine is cheap but not free (a channel transport with p inboxes),
// and under sustained load the same few processor counts
// repeat — so workers check machines out by processor count and return
// them drained. A machine that served a cancelled or failed job is
// drained the same way; dist.Run joins every rank goroutine before
// returning, so a returned machine is always quiescent.
type machinePool struct {
	mu      sync.Mutex
	idle    map[int][]*machine.Machine
	maxIdle int // per processor count
	// cfg is the node-level machine description (receive watchdog and,
	// when a topology is set, the network model: every machine the pool
	// builds then carries a simnet recorder, and put resets it so the
	// next job replays clean); get fills in the processor count.
	cfg    core.Config
	closed bool

	m *metrics
}

func newMachinePool(maxIdle int, cfg core.Config, m *metrics) *machinePool {
	if maxIdle < 1 {
		maxIdle = 1
	}
	return &machinePool{
		idle:    make(map[int][]*machine.Machine),
		maxIdle: maxIdle,
		cfg:     cfg,
		m:       m,
	}
}

// get checks out a machine with p processors, reusing an idle one when
// available.
func (mp *machinePool) get(p int) (*machine.Machine, error) {
	mp.mu.Lock()
	if q := mp.idle[p]; len(q) > 0 {
		m := q[len(q)-1]
		mp.idle[p] = q[:len(q)-1]
		mp.mu.Unlock()
		mp.m.machinesReused.Add(1)
		return m, nil
	}
	mp.mu.Unlock()
	cfg := mp.cfg
	cfg.Procs = p
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	mp.m.machinesCreated.Add(1)
	return m, nil
}

// put returns a machine to the pool: stale frames from an aborted run
// are drained (and counted) so the next job starts clean. Over-capacity
// and post-close returns close the machine instead.
func (mp *machinePool) put(m *machine.Machine) {
	if n := m.Drain(); n > 0 {
		mp.m.drainedFrames.Add(int64(n))
	}
	if net := m.Network(); net != nil {
		net.Reset() // the next job must replay from an empty recording
	}
	p := m.P()
	mp.mu.Lock()
	if !mp.closed && len(mp.idle[p]) < mp.maxIdle {
		mp.idle[p] = append(mp.idle[p], m)
		mp.mu.Unlock()
		return
	}
	mp.mu.Unlock()
	m.Close()
}

// idleCount reports the total idle machines (for /metrics).
func (mp *machinePool) idleCount() int {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	n := 0
	for _, q := range mp.idle {
		n += len(q)
	}
	return n
}

// close releases every idle machine; subsequent puts close their
// machines directly.
func (mp *machinePool) close() {
	mp.mu.Lock()
	idle := mp.idle
	mp.idle = make(map[int][]*machine.Machine)
	mp.closed = true
	mp.mu.Unlock()
	for _, q := range idle {
		for _, m := range q {
			m.Close()
		}
	}
}
