// Package core is the high-level public API of the library: one call
// distributes a global sparse array over an emulated distributed-memory
// multicomputer with a chosen scheme (SFC, CFS or ED), partition method
// and compression format, and returns a handle for running distributed
// sparse kernels and reading the phase cost breakdown.
//
// The lower-level packages remain available for fine-grained use:
// sparse (arrays and generators), partition (partition methods),
// compress (CRS/CCS/ED buffers), machine (the emulated multicomputer),
// dist (the schemes themselves), costmodel (the paper's closed-form
// analysis) and ops (sparse kernels).
package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/cost"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/sparse"
	"repro/internal/spops"
	"repro/internal/trace"
)

// Config selects how an array is distributed.
type Config struct {
	// Ctx, when non-nil, makes the run cancellable: cancelling it aborts
	// the distribution between parts and inside blocked receives, and
	// Distribute returns an error wrapping ctx.Err(). All machine
	// goroutines are joined before the error returns, so the machine is
	// quiescent (and poolable after machine.Drain) even on a cancelled
	// run. Nil runs to completion.
	Ctx context.Context
	// Scheme is "SFC", "CFS" or "ED" (default "ED", the paper's
	// recommended scheme), or "auto" to let the cost model pick the
	// plan from the array's measured statistics: Distribute resolves
	// (scheme x partition x method x workers), pinning any of those the
	// config sets explicitly, and records the decision in
	// Distribution.Auto. DistributeStream rejects "auto" (ErrAutoStream).
	Scheme string
	// Partition is "row", "col", "mesh", "cyclic-row", "cyclic-col",
	// "brs", "cyclic-mesh", "balanced-row" (nnz-balanced contiguous
	// rows), or an HPF-style descriptor like "(Block,*)" (default
	// "row").
	Partition string
	// Procs is the processor count (default 4). For "mesh", MeshRows x
	// MeshCols overrides Procs when set.
	Procs              int
	MeshRows, MeshCols int
	// BlockSize is the block-cyclic block size for "brs" (default 1).
	BlockSize int
	// Method is "CRS", "CCS" or "JDS" (default "CRS").
	Method string
	// Transport is "chan" (default) or "tcp" (localhost sockets).
	Transport string
	// Topology, when set, turns on the discrete-event network model:
	// every data message and compute charge of the run is recorded
	// against a simnet topology ("uniform", "bus", "star", "mesh",
	// "fattree") and replayed into a contention-aware virtual timeline,
	// read back with Distribution.NetTimeline. "uniform" reproduces the
	// flat counter totals exactly (the parity contract); the others
	// price the same traffic under link contention. DistributeStream
	// refuses it (a *ConflictError): a streamed run moves frames,
	// credits and finalizes the paper's model does not have.
	Topology string
	// LinkBW, in payload words per second, overrides the bandwidth of
	// the topology's bottleneck links (see simnet.Build). Zero keeps the
	// cost-model default of 1/T_Data.
	LinkBW float64
	// LinkLatency overrides the per-message latency of the topology's
	// bottleneck links. Zero keeps T_Startup.
	LinkLatency time.Duration
	// Params are the virtual clock unit costs (default cost.DefaultParams).
	Params cost.Params
	// RecvTimeout guards against deadlock (default 30s).
	RecvTimeout time.Duration
	// Workers is how many goroutines encode the root's parts (1: the
	// root alone, as in the paper; n: the root plus n-1 helpers; 0: one
	// per CPU). Virtual costs are identical for any value; wall time
	// improves on multi-core hosts.
	Workers int
	// Check turns on the invariant checker for the run (dist
	// Options.Check): decoded part arrays are structurally validated and
	// shape-checked, and ED special buffers are verified at the root
	// before sending. Combine with Distribution.DiffCheck for the full
	// differential oracle.
	Check bool

	// Reliable wraps the transport in the ARQ reliability layer
	// (sequence numbers, CRC32C checksums, ACK/NACK, retransmission
	// with exponential backoff). Implied by any of the retry or
	// fault-injection settings below. A message whose retry budget is
	// spent fails the distribution with machine.ErrRetriesExhausted.
	Reliable bool
	// Retries is the retransmission budget per message (0 takes the
	// library default of 4).
	Retries int
	// RetryBackoff is the initial ACK wait; each retry doubles it (0
	// takes the library default of 5ms).
	RetryBackoff time.Duration

	// MemBudget caps the capacity of the streaming root's open frames in
	// bytes (DistributeStream only; 0 takes the dist default of 32 MiB).
	MemBudget int

	// FaultDrops / FaultCorrupt inject transient faults for
	// demonstration and testing: the next n data messages are dropped /
	// have a random payload bit flipped.
	FaultDrops   int
	FaultCorrupt int
}

// withDefaults is the one default table: every front door (the library
// entry points, sparsedist's flags, the daemon's JobSpec) resolves an
// unset field through it. Scheme and method names are folded to upper
// case, so "ed" and "" land on the same plan as "ED".
func (c Config) withDefaults() Config {
	// Under auto an empty partition or method means "the model picks":
	// defaulting it here would silently pin the plan, so it stays empty
	// until ResolveAutoStats fills it in.
	auto := IsAutoScheme(c.Scheme)
	if c.Scheme == "" {
		c.Scheme = "ED"
	}
	c.Scheme = strings.ToUpper(c.Scheme)
	if c.Partition == "" && !auto {
		c.Partition = "row"
	}
	if c.Procs == 0 {
		c.Procs = 4
	}
	if c.Method == "" && !auto {
		c.Method = "CRS"
	}
	c.Method = strings.ToUpper(c.Method)
	if c.Transport == "" {
		c.Transport = "chan"
	}
	if c.Params == (cost.Params{}) {
		c.Params = cost.DefaultParams
	}
	if c.RecvTimeout == 0 {
		c.RecvTimeout = 30 * time.Second
	}
	if c.Partition == "mesh" || c.Partition == "cyclic-mesh" {
		if c.MeshRows == 0 || c.MeshCols == 0 {
			c.MeshRows, c.MeshCols = partition.SquareGrid(c.Procs)
		}
		c.Procs = c.MeshRows * c.MeshCols
	}
	if c.BlockSize == 0 {
		c.BlockSize = 1
	}
	if c.Retries > 0 || c.RetryBackoff > 0 || c.injectsFaults() {
		c.Reliable = true
	}
	return c
}

func (c Config) injectsFaults() bool {
	return c.FaultDrops > 0 || c.FaultCorrupt > 0
}

// Normalized returns the config with every defaultable field resolved —
// scheme, partition, procs, mesh grid, block size, method, transport,
// params, timeouts, implied reliability — exactly as Distribute would
// resolve them. A serving layer keys its plan cache on the normalized
// config, so "ED" and "" (defaulted) hit the same entry.
func (c Config) Normalized() Config { return c.withDefaults() }

// NewPlan turns a config into the dist.Plan that distributes g: the
// partition, the scheme's codec and Options{Method, Workers, Check,
// Ctx}. It is the one plan builder — Distribute runs what it returns,
// and a serving layer caches it (minus Global and the per-job options)
// to drive dist.Run on a pooled machine. cfg must be valid (Validate),
// concrete (scheme auto already resolved, see ResolveAutoStats) and
// Normalized.
func NewPlan(g *sparse.Dense, cfg Config) (dist.Plan, error) {
	part, err := NewPartition(g, cfg)
	if err != nil {
		return dist.Plan{}, err
	}
	codec, opts, err := cfg.codecOptions()
	if err != nil {
		return dist.Plan{}, err
	}
	return dist.Plan{Codec: codec, Global: g, Partition: part, Options: opts}, nil
}

// NewStreamPlan is NewPlan for a chunked source, with the streaming
// memory bound (MemBudget) carried over; DistributeStream runs what it
// returns.
func NewStreamPlan(src sparse.ChunkReader, cfg Config) (dist.StreamPlan, error) {
	part, err := NewStreamPartition(src, cfg)
	if err != nil {
		return dist.StreamPlan{}, err
	}
	codec, opts, err := cfg.codecOptions()
	if err != nil {
		return dist.StreamPlan{}, err
	}
	return dist.StreamPlan{
		Codec: codec, Source: src, Partition: part, Options: opts,
		Stream: dist.StreamOptions{MemBudget: cfg.MemBudget},
	}, nil
}

// codecOptions resolves the partition-independent half of a plan.
func (c Config) codecOptions() (dist.Codec, dist.Options, error) {
	codec, err := dist.CodecByName(c.Scheme)
	if err != nil {
		return nil, dist.Options{}, err
	}
	method, err := ParseMethod(c.Method)
	if err != nil {
		return nil, dist.Options{}, err
	}
	return codec, dist.Options{Method: method, Workers: c.Workers, Check: c.Check, Ctx: c.Ctx}, nil
}

// concrete is the one path from a request to the config a plan is built
// from: validate, resolve scheme auto against g's measured statistics,
// apply the defaults.
func (c Config) concrete(g *sparse.Dense) (Config, *AutoChoice, error) {
	if err := c.Validate(); err != nil {
		return Config{}, nil, err
	}
	var auto *AutoChoice
	if IsAutoScheme(c.Scheme) {
		var err error
		if c, auto, err = ResolveAuto(g, c); err != nil {
			return Config{}, nil, err
		}
	}
	return c.withDefaults(), auto, nil
}

// Distribution is a distributed sparse array: the per-rank compressed
// local pieces plus the machine they live on.
type Distribution struct {
	// Global is the materialized input array; nil for a streamed run
	// (DistributeStream), which never holds the whole array.
	Global    *sparse.Dense
	Partition partition.Partition
	Result    *dist.Result
	Params    cost.Params
	// Streamed marks a distribution produced by DistributeStream.
	Streamed bool
	// Auto records the cost model's plan decision when the config asked
	// for Scheme "auto"; nil for explicit configs.
	Auto *AutoChoice

	machineStack

	// The halo-exchange communication plan is pure index structure, so
	// it is built once on first use and shared by every op on this
	// distribution (see CommPlan).
	commOnce sync.Once
	commPlan *spops.CommPlan
	commErr  error
}

// ParseMethod resolves a Config.Method name to the dist-level method.
func ParseMethod(name string) (dist.Method, error) {
	switch strings.ToUpper(name) {
	case "CRS":
		return dist.CRS, nil
	case "CCS":
		return dist.CCS, nil
	case "JDS":
		return dist.JDS, nil
	default:
		return 0, fmt.Errorf("method %q: want %s", name, dist.MethodNames())
	}
}

// machineStack is one built emulated machine plus the optional
// reliability and fault-injection layers wired beneath it.
type machineStack struct {
	m      *machine.Machine
	rel    *machine.ReliableTransport
	faults *machine.FaultTransport
	net    *simnet.Network
}

// newMachineStack builds the transport stack and machine for cfg
// (already defaulted). Stacking order: Reliable(Fault(base)) — injected
// faults hit the wire *below* the reliability layer, which then
// recovers from them.
func newMachineStack(cfg Config) (*machineStack, error) {
	var net *simnet.Network
	if cfg.Topology != "" {
		top, err := simnet.Build(cfg.Topology, cfg.Procs, cfg.Params, cfg.LinkBW, cfg.LinkLatency)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		net = simnet.NewNetwork(top, cfg.Params)
	}

	var base machine.Transport
	switch cfg.Transport {
	case "chan":
		base = machine.NewChanTransport(cfg.Procs)
	case "tcp":
		tr, err := machine.NewTCPTransport(cfg.Procs)
		if err != nil {
			return nil, err
		}
		base = tr
	default:
		return nil, unknownTransport(cfg.Transport)
	}

	var ft *machine.FaultTransport
	if cfg.injectsFaults() {
		ft = machine.NewFaultTransport(base)
		base = ft
	}
	var rt *machine.ReliableTransport
	if cfg.Reliable {
		rt = machine.NewReliableTransport(base, machine.RetryPolicy{
			MaxRetries: cfg.Retries,
			BaseDelay:  cfg.RetryBackoff,
		})
		base = rt
	}

	opts := []machine.Option{
		machine.WithRecvTimeout(cfg.RecvTimeout),
		machine.WithTransport(base),
	}
	if net != nil {
		opts = append(opts, machine.WithNetwork(net))
	}
	m, err := machine.New(cfg.Procs, opts...)
	if err != nil {
		return nil, err
	}

	if ft != nil {
		if cfg.FaultDrops > 0 {
			ft.DropNext(cfg.FaultDrops)
		}
		if cfg.FaultCorrupt > 0 {
			ft.CorruptNext(cfg.FaultCorrupt)
		}
	}
	return &machineStack{m: m, rel: rt, faults: ft, net: net}, nil
}

// NewMachine builds the emulated machine cfg describes — Procs ranks
// on cfg.Transport under the receive watchdog, with the network
// recorder attached when a Topology is set — without distributing
// anything: what a serving layer pools to run NewPlan's plans on.
func NewMachine(cfg Config) (*machine.Machine, error) {
	st, err := newMachineStack(cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	return st.m, nil
}

// Distribute partitions, distributes and compresses g per the config.
// Scheme "auto" is resolved here: the cost model picks the plan before
// the run, and the decision comes back in Distribution.Auto.
func Distribute(g *sparse.Dense, cfg Config) (*Distribution, error) {
	cfg, auto, err := cfg.concrete(g)
	if err != nil {
		return nil, err
	}
	plan, err := NewPlan(g, cfg)
	if err != nil {
		return nil, err
	}
	st, err := newMachineStack(cfg)
	if err != nil {
		return nil, err
	}
	res, err := dist.Run(st.m, plan)
	if err != nil {
		st.m.Close()
		return nil, err
	}
	return &Distribution{Global: g, Partition: plan.Partition, Result: res, Params: cfg.Params, Auto: auto, machineStack: *st}, nil
}

// DistributeStream is Distribute for an out-of-core source: the global
// array is never materialized. The root routes bounded chunks from src
// straight into per-rank frames under cfg.MemBudget, receivers
// reassemble and compress their parts, and the returned Distribution
// carries a nil Global — use VerifyAgainst/DiffCheckAgainst with an
// independently materialized oracle when one fits in memory. Virtual
// cost counters are identical to the materializing path by construction
// (dist.RunStream's parity contract).
func DistributeStream(src sparse.ChunkReader, cfg Config) (*Distribution, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if IsAutoScheme(cfg.Scheme) {
		return nil, ErrAutoStream
	}
	if cfg.Topology != "" {
		return nil, &ConflictError{
			Fields: "topology with stream",
			Reason: "the network model replays the paper's messages, but a streamed run sends frames, credits and finalizes instead; drop topology or stream",
		}
	}
	cfg = cfg.withDefaults()
	plan, err := NewStreamPlan(src, cfg)
	if err != nil {
		return nil, err
	}
	st, err := newMachineStack(cfg)
	if err != nil {
		return nil, err
	}
	res, err := dist.RunStream(st.m, plan)
	if err != nil {
		st.m.Close()
		return nil, err
	}
	return &Distribution{Partition: plan.Partition, Result: res, Params: cfg.Params, Streamed: true, machineStack: *st}, nil
}

// NewPartition builds the partition cfg describes for g — the
// partition half of NewPlan, exported for callers that drive the dist
// engine themselves. Call it on a Normalized config.
func NewPartition(g *sparse.Dense, cfg Config) (partition.Partition, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil array")
	}
	return newPartitionAt(g.Rows(), g.Cols(), cfg,
		func() ([]int, error) { return sparse.RowNNZ(g), nil })
}

// NewStreamPartition is NewPartition for a chunked source: the shape is
// free, and the nnz-balanced partition takes one cheap counting pass
// (sparse.ScanStats) over the stream, which rewinds it afterwards. The
// count pass feeds the same boundary sweep the materialized planner
// uses, so a streamed plan lands on identical part boundaries.
func NewStreamPartition(src sparse.ChunkReader, cfg Config) (partition.Partition, error) {
	rows, cols := src.Shape()
	return newPartitionAt(rows, cols, cfg, func() ([]int, error) {
		counts, err := sparse.ScanStats(src)
		if err != nil {
			return nil, fmt.Errorf("core: counting pass for balanced partition: %w", err)
		}
		return counts, nil
	})
}

// newPartitionAt resolves cfg.Partition for a rows x cols array whose
// per-row nonzero histogram, if a balanced plan needs it, comes from
// rowNNZ — a dense scan or a streaming count pass.
func newPartitionAt(rows, cols int, cfg Config, rowNNZ func() ([]int, error)) (partition.Partition, error) {
	// HPF-style descriptors like "(Block,*)" or "(Cyclic(2),Cyclic)" go
	// through the partition parser.
	if strings.HasPrefix(cfg.Partition, "(") {
		return partition.Parse(cfg.Partition, rows, cols, cfg.Procs)
	}
	switch cfg.Partition {
	case "row":
		return partition.NewRow(rows, cols, cfg.Procs)
	case "col":
		return partition.NewCol(rows, cols, cfg.Procs)
	case "mesh":
		return partition.NewMesh(rows, cols, cfg.MeshRows, cfg.MeshCols)
	case "cyclic-row":
		return partition.NewCyclicRow(rows, cols, cfg.Procs)
	case "cyclic-col":
		return partition.NewCyclicCol(rows, cols, cfg.Procs)
	case "brs":
		return partition.NewBlockCyclicRow(rows, cols, cfg.Procs, cfg.BlockSize)
	case "cyclic-mesh":
		return partition.NewCyclicMesh(rows, cols, cfg.MeshRows, cfg.MeshCols, cfg.BlockSize, cfg.BlockSize)
	case "balanced-row":
		counts, err := rowNNZ()
		if err != nil {
			return nil, err
		}
		return partition.NewBalancedRowFromCounts(counts, cols, cfg.Procs)
	default:
		return nil, unknownPartition(cfg.Partition)
	}
}

// Close releases the underlying machine. The compressed local arrays
// remain usable.
func (d *Distribution) Close() error { return d.m.Close() }

// Machine exposes the underlying emulated multicomputer for custom
// SPMD kernels.
func (d *Distribution) Machine() *machine.Machine { return d.m }

// NetTimeline replays the recorded network activity into the virtual
// timeline; nil when no Config.Topology was set. Deterministic: the
// timeline is a pure function of the per-rank operation sequences.
func (d *Distribution) NetTimeline() *simnet.Timeline {
	if d.net == nil {
		return nil
	}
	return d.net.Finalize()
}

// ReliableStats returns the reliability layer's counters; ok is false
// when the run was not reliable.
func (d *Distribution) ReliableStats() (st machine.ReliableStats, ok bool) {
	if d.rel == nil {
		return machine.ReliableStats{}, false
	}
	return d.rel.Stats(), true
}

// FaultStats returns the fault injector's counters; ok is false when no
// faults were configured.
func (d *Distribution) FaultStats() (st machine.FaultStats, ok bool) {
	if d.faults == nil {
		return machine.FaultStats{}, false
	}
	return d.faults.FullStats(), true
}

// Verify checks every local compressed array against direct compression
// of its part. A streamed distribution has no retained global array;
// use VerifyAgainst with an independent oracle instead.
func (d *Distribution) Verify() error {
	if d.Global == nil {
		return fmt.Errorf("core: streamed distribution retains no global array; use VerifyAgainst with a materialized oracle")
	}
	return dist.Verify(d.Global, d.Partition, d.Result)
}

// VerifyAgainst is Verify against an externally supplied global array —
// the differential oracle for streamed runs (e.g. sparse.Materialize of
// the same source, when it fits in memory).
func (d *Distribution) VerifyAgainst(g *sparse.Dense) error {
	return dist.Verify(g, d.Partition, d.Result)
}

// DiffCheck runs the differential oracle on the finished distribution:
// every local piece is invariant-checked, the dense global array is
// reassembled from the pieces through the partition's ownership maps,
// and the reassembly is diffed element-wise against the input. It
// returns a typed *check.Violation (malformed piece) or
// *check.DiffError (data in the wrong place), nil when the
// distribution is exact.
func (d *Distribution) DiffCheck() error {
	if d.Global == nil {
		return fmt.Errorf("core: streamed distribution retains no global array; use DiffCheckAgainst with a materialized oracle")
	}
	return d.DiffCheckAgainst(d.Global)
}

// DiffCheckAgainst is DiffCheck against an externally supplied global
// array, for streamed runs.
func (d *Distribution) DiffCheckAgainst(g *sparse.Dense) error {
	return check.Distribution(g, check.Pieces(d.Partition, d.Result.PartArrays()))
}

// DistributionTime returns the virtual data distribution time of the run.
func (d *Distribution) DistributionTime() time.Duration {
	return d.Result.Breakdown.DistributionTime(d.Params)
}

// CompressionTime returns the virtual data compression time of the run.
func (d *Distribution) CompressionTime() time.Duration {
	return d.Result.Breakdown.CompressionTime(d.Params)
}

// Report renders a human-readable summary of the run.
func (d *Distribution) Report() string {
	var b strings.Builder
	bd := d.Result.Breakdown
	fmt.Fprintf(&b, "scheme %s, partition %s, method %s, p = %d\n",
		d.Result.Scheme, d.Result.Partition, d.Result.Method, d.Partition.NumParts())
	if d.Auto != nil {
		fmt.Fprintf(&b, "auto-selected: scheme %s, partition %s, method %s, workers %d (predicted dist %v, comp %v)\n",
			d.Auto.Scheme, d.Auto.Partition, d.Auto.Method, d.Auto.Workers,
			d.Auto.Predicted.Distribution, d.Auto.Predicted.Compression)
	}
	// The parts hold every nonzero, so their count is the array's,
	// whether or not the global array was ever held.
	rows, cols := d.Partition.Shape()
	nnz, ratio := d.Result.NNZ(), 0.0
	if rows*cols > 0 {
		ratio = float64(nnz) / float64(rows*cols)
	}
	streamed := ""
	if d.Global == nil {
		streamed = " (streamed)"
	}
	fmt.Fprintf(&b, "array %dx%d%s, nnz %d (s = %.4f)\n", rows, cols, streamed, nnz, ratio)
	b.WriteString(trace.PhaseTable([]trace.PhaseStat{
		{Name: "T_Distribution", Virtual: d.DistributionTime(), Wall: bd.WallDistribution()},
		{Name: "T_Compression", Virtual: d.CompressionTime(), Wall: bd.WallCompression()},
	}))
	fmt.Fprintf(&b, "wire: %d messages, %d elements; root ops %d; max rank ops %d\n",
		bd.RootDist.Messages, bd.RootDist.Elements, bd.RootDist.Ops+bd.RootComp.Ops, maxRankOps(bd))
	if st, ok := d.ReliableStats(); ok {
		fmt.Fprintf(&b, "reliability: %d data msgs, %d retransmits, %d nacks, %d corrupt, %d duplicates, %d failed\n",
			st.DataSent, st.Retransmits, st.Nacks, st.Corrupt, st.Duplicates, st.Failed)
	}
	if st, ok := d.FaultStats(); ok {
		fmt.Fprintf(&b, "injected faults: %d dropped, %d corrupted, %d duplicated, %d reordered\n",
			st.Dropped, st.Corrupted, st.Duplicated, st.Reordered)
	}
	if tl := d.NetTimeline(); tl != nil {
		b.WriteString(tl.Report())
	}
	return b.String()
}

func maxRankOps(bd *dist.Breakdown) int64 {
	var m int64
	for i := range bd.RankDist {
		if t := bd.RankDist[i].Ops + bd.RankComp[i].Ops; t > m {
			m = t
		}
	}
	return m
}
