package main

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/ops"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/simnet"
	"repro/internal/sparse"
	"repro/internal/spops"
	"repro/internal/trace"
)

// The workloads. Names are fixed: BENCHMARK.json, README.md and later
// issues refer to them. BENCHMARK.json records in one line why each was
// chosen; README.md has the long form.
var workloads = []*workload{
	{name: "dist_ed", setup: setupDistED},
	{name: "dist_cfs_sfc", setup: setupDistCFSSFC},
	{name: "dist_wire", setup: setupDistWire},
	{name: "stream", pooledP95: true, setup: setupStream},
	{name: "compute_sweep", setup: setupComputeSweep},
	{name: "compute_spgemm", setup: setupComputeSpGEMM},
	{name: "serve_warm", setup: setupServeWarm},
	{name: "serve_cold", setup: setupServeCold},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// probe is the input the layer suite measures every layer on: the
// workload's own array and plan, so a per-layer number of a workload is
// about the sizes that workload exercises.
type probe struct {
	g    *sparse.Dense
	cfg  core.Config // scheme, partition, procs, transport of the workload's first slot
	seed int64
}

// vector is the deterministic dense operand of the compute ops.
func vector(n int, seed int64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64((int64(i)*2654435761+seed)%17)/4 + 0.25
	}
	return x
}

// diagDominant returns a copy of g whose diagonal is 1.25 x the absolute
// off-diagonal row sum + 1, so Jacobi converges on it.
func diagDominant(g *sparse.Dense) *sparse.Dense {
	d := g.Clone()
	for i := 0; i < d.Rows(); i++ {
		sum := 0.0
		for j, v := range d.Row(i) {
			if j != i {
				sum += math.Abs(v)
			}
		}
		d.Set(i, i, 1.25*sum+1)
	}
	return d
}

func resultNNZ(res *dist.Result) int {
	n := 0
	for _, a := range res.PartArrays() {
		n += a.NNZ()
	}
	return n
}

// corruptResult flips one stored value of the first non-empty local array.
func corruptResult(res *dist.Result) {
	for k := range res.PartArrays() {
		switch {
		case res.LocalCRS != nil && res.LocalCRS[k].NNZ() > 0:
			res.LocalCRS[k].Val[0] = -res.LocalCRS[k].Val[0]
			return
		case res.LocalCCS != nil && res.LocalCCS[k].NNZ() > 0:
			res.LocalCCS[k].Val[0] = -res.LocalCCS[k].Val[0]
			return
		}
	}
}

func distCounts(bd *dist.Breakdown) counts {
	return counts{
		words: bd.RootDist.Elements,
		msgs:  bd.RootDist.Messages,
		vdist: bd.DistributionTime(cost.DefaultParams),
		vcomp: bd.CompressionTime(cost.DefaultParams),
	}
}

// opCounts prices a compute op on the same virtual clock: its wire
// traffic under vdist, its element operations under vcomp.
func opCounts(st spops.OpStats) counts {
	p := cost.DefaultParams
	return counts{
		words: int64(st.WireWords),
		msgs:  int64(st.Messages),
		vdist: p.Time(cost.Counter{Messages: int64(st.Messages), Elements: int64(st.WireWords)}),
		vcomp: p.Time(cost.Counter{Ops: int64(st.Ops)}),
	}
}

// buildMachine assembles, from the machine and simnet packages' exported
// constructors, the stack core.Distribute builds for cfg (normalized;
// chan or tcp, optionally reliable, optionally with a network model).
func buildMachine(cfg core.Config) (*machine.Machine, error) {
	opts := []machine.Option{machine.WithRecvTimeout(cfg.RecvTimeout)}
	if cfg.Topology != "" {
		top, err := simnet.Build(cfg.Topology, cfg.Procs, cfg.Params, cfg.LinkBW, cfg.LinkLatency)
		if err != nil {
			return nil, err
		}
		opts = append(opts, machine.WithNetwork(simnet.NewNetwork(top, cfg.Params)))
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
		return nil, fmt.Errorf("buildMachine: transport %q", cfg.Transport)
	}
	if cfg.Reliable {
		tracer := trace.New()
		rt := machine.NewReliableTransport(base, machine.RetryPolicy{MaxRetries: cfg.Retries, BaseDelay: cfg.RetryBackoff})
		rt.SetTracer(tracer)
		base = rt
		opts = append(opts, machine.WithTracer(tracer))
	}
	return machine.New(cfg.Procs, append(opts, machine.WithTransport(base))...)
}

// distributed is what one distribution op leaves behind for the checks.
type distributed struct {
	res  *dist.Result
	part partition.Partition
	tl   *simnet.Timeline // nil without a network model
}

// onMachine is the machine half of a traced distribution: build the
// stack core would build for cfg, run on it, replay the network model if
// there is one, close — one span per call into a layer.
func onMachine(sp *opSpans, cfg core.Config, name string, run func(m *machine.Machine) (*dist.Result, error)) (*dist.Result, *simnet.Timeline, error) {
	end := sp.begin("machine.New", "machine")
	m, err := buildMachine(cfg)
	end()
	if err != nil {
		return nil, nil, err
	}
	end = sp.begin(name, "dist")
	res, err := run(m)
	end()
	var tl *simnet.Timeline
	if err == nil && m.Network() != nil {
		end = sp.begin("simnet.Finalize", "simnet")
		tl = m.Network().Finalize()
		end()
	}
	end = sp.begin("machine.Close", "machine")
	cerr := m.Close()
	end()
	if err == nil {
		err = cerr
	}
	return res, tl, err
}

// planFor resolves cfg (normalized) into the dist.Plan core.Distribute
// would run for g; the partition build is the one call into a layer.
func planFor(sp *opSpans, g *sparse.Dense, cfg core.Config) (dist.Plan, error) {
	end := sp.begin("core.NewPartition", "partition")
	part, err := core.NewPartition(g, cfg)
	end()
	if err != nil {
		return dist.Plan{}, err
	}
	codec, err := dist.CodecByName(cfg.Scheme)
	if err != nil {
		return dist.Plan{}, err
	}
	method, err := core.ParseMethod(cfg.Method)
	if err != nil {
		return dist.Plan{}, err
	}
	return dist.Plan{Codec: codec, Global: g, Partition: part, Options: dist.Options{Method: method, Workers: cfg.Workers}}, nil
}

// distribute is one core.Distribute + NetTimeline + Close. With spans it
// is the same thing taken apart into its calls on the lower layers.
func distribute(sp *opSpans, g *sparse.Dense, cfg core.Config) (distributed, error) {
	if sp == nil {
		d, err := core.Distribute(g, cfg)
		if err != nil {
			return distributed{}, err
		}
		tl := d.NetTimeline()
		return distributed{d.Result, d.Partition, tl}, d.Close()
	}
	cfg = cfg.Normalized()
	plan, err := planFor(sp, g, cfg)
	if err != nil {
		return distributed{}, err
	}
	res, tl, err := onMachine(sp, cfg, "dist.Run", func(m *machine.Machine) (*dist.Result, error) { return dist.Run(m, plan) })
	return distributed{res, plan.Partition, tl}, err
}

// distributeStream is distribute for core.DistributeStream.
func distributeStream(sp *opSpans, src sparse.ChunkReader, cfg core.Config) (distributed, error) {
	if sp == nil {
		d, err := core.DistributeStream(src, cfg)
		if err != nil {
			return distributed{}, err
		}
		return distributed{res: d.Result, part: d.Partition}, d.Close()
	}
	cfg = cfg.Normalized()
	end := sp.begin("core.NewStreamPartition", "partition")
	part, err := core.NewStreamPartition(src, cfg)
	end()
	if err != nil {
		return distributed{}, err
	}
	codec, err := dist.CodecByName(cfg.Scheme)
	if err != nil {
		return distributed{}, err
	}
	res, tl, err := onMachine(sp, cfg, "dist.RunStream", func(m *machine.Machine) (*dist.Result, error) {
		return dist.RunStream(m, dist.StreamPlan{Codec: codec, Source: src, Partition: part,
			Stream: dist.StreamOptions{MemBudget: cfg.MemBudget}})
	})
	return distributed{res, part, tl}, err
}

// distInstance is the shared shape of the dist_* and stream workloads:
// one distribution per op over a rotation of configs. oracle is the
// array the parts are verified against (the input itself, or the
// materialized stream).
func distInstance(o runOptions, oracle *sparse.Dense, slots []core.Config, op func(sp *opSpans, cfg core.Config) (distributed, error)) *instance {
	inst := &instance{slots: len(slots), virtualBySlot: true, close: func() {},
		probe: probe{g: oracle, cfg: slots[0], seed: o.seed}}
	nnz := oracle.NNZ()
	inst.run = func(i int, verify bool, sp *opSpans) (opResult, error) {
		cfg := slots[i%len(slots)]
		endOp := sp.begin("op", "bench")
		t0 := time.Now()
		d, err := op(sp, cfg)
		lat := time.Since(t0)
		endOp()
		if err != nil {
			return opResult{}, err
		}
		defer sp.begin("check", "bench")()
		if inst.corrupt && i%2 == 0 {
			corruptResult(d.res)
		}
		if got := resultNNZ(d.res); got != nnz {
			return opResult{}, fmt.Errorf("parts hold %d nonzeros, array has %d", got, nnz)
		}
		if cfg.Topology != "" && (d.tl == nil || d.tl.Unmatched != 0 || d.tl.Makespan <= 0) {
			return opResult{}, fmt.Errorf("network timeline missing or inconsistent")
		}
		if verify {
			if err := dist.Verify(oracle, d.part, d.res); err != nil {
				return opResult{}, err
			}
		}
		return opResult{lat: lat, c: distCounts(d.res.Breakdown), exact: true}, nil
	}
	return inst
}

// arrayInstance is distInstance for core.Distribute on the in-memory array g.
func arrayInstance(o runOptions, g *sparse.Dense, slots []core.Config) *instance {
	return distInstance(o, g, slots, func(sp *opSpans, cfg core.Config) (distributed, error) { return distribute(sp, g, cfg) })
}

func rotate(base core.Config, schemes, partitions []string) []core.Config {
	var out []core.Config
	for _, s := range schemes {
		for _, p := range partitions {
			c := base
			c.Scheme, c.Partition = s, p
			out = append(out, c)
		}
	}
	return out
}

var rowColMesh = []string{"row", "col", "mesh"}

func setupDistED(o runOptions) (*instance, error) {
	g := sparse.UniformExact(1000, 1000, 0.1, o.seed)
	return arrayInstance(o, g, rotate(core.Config{Procs: 4, Method: "CRS"}, []string{"ED"}, rowColMesh)), nil
}

func setupDistCFSSFC(o runOptions) (*instance, error) {
	g := sparse.UniformExact(1000, 1000, 0.1, o.seed)
	return arrayInstance(o, g, rotate(core.Config{Procs: 4, Method: "CRS"}, []string{"CFS", "SFC"}, rowColMesh)), nil
}

func setupDistWire(o runOptions) (*instance, error) {
	g := sparse.UniformExact(240, 240, 0.1, o.seed)
	base := core.Config{Procs: 16, Method: "CRS", Transport: "tcp", Reliable: true, Topology: "mesh"}
	return arrayInstance(o, g, rotate(base, []string{"ED"}, rowColMesh)), nil
}

func setupStream(o runOptions) (*instance, error) {
	const n, nnz = 2000, 400_000
	newSource := func() *sparse.UniformStream { return sparse.NewUniformStream(n, n, nnz, o.seed, 0) }
	oracle, err := sparse.Materialize(newSource())
	if err != nil {
		return nil, err
	}
	slots := rotate(core.Config{Procs: 4, Method: "CRS", MemBudget: 1 << 20}, []string{"ED"}, rowColMesh)
	return distInstance(o, oracle, slots, func(sp *opSpans, cfg core.Config) (distributed, error) {
		return distributeStream(sp, newSource(), cfg)
	}), nil
}

// computeSetup distributes g once (ED, row, p=4) and builds the halo plan;
// the compute workloads then run ops on the live distribution.
func computeSetup(g *sparse.Dense) (*core.Distribution, core.Config, error) {
	cfg := core.Config{Scheme: "ED", Partition: "row", Procs: 4, Method: "CRS"}
	d, err := core.Distribute(g, cfg)
	if err != nil {
		return nil, cfg, err
	}
	if _, err := d.CommPlan(); err != nil {
		d.Close()
		return nil, cfg, err
	}
	return d, cfg, nil
}

func setupComputeSweep(o runOptions) (*instance, error) {
	const n, tol, maxIter = 2000, 1e-10, 500
	g := diagDominant(sparse.Banded(n, n, 8, 0.8, o.seed))
	d, cfg, err := computeSetup(g)
	if err != nil {
		return nil, err
	}
	a := compress.CompressCRS(g, nil)
	b := vector(n, o.seed)
	bmax := ops.Norm2(b)
	var xRef []float64 // the first verified solution; later solves must reproduce it
	inst := &instance{slots: 1, virtualBySlot: true, close: func() { d.Close() },
		probe: probe{g: g, cfg: cfg, seed: o.seed}}
	inst.run = func(i int, verify bool, sp *opSpans) (opResult, error) {
		endOp := sp.begin("op", "bench")
		end := sp.begin("spops.Jacobi", "spops")
		t0 := time.Now()
		x, st, err := d.Jacobi(b, tol, maxIter)
		lat := time.Since(t0)
		end()
		endOp()
		if err != nil {
			return opResult{}, err
		}
		defer sp.begin("check", "bench")()
		if inst.corrupt && i%2 == 0 {
			x[0]++
		}
		if !st.Converged {
			return opResult{}, fmt.Errorf("jacobi did not converge in %d sweeps", st.Iterations)
		}
		if xRef != nil && maxAbsDiff(x, xRef) > 1e-12 {
			return opResult{}, fmt.Errorf("solution differs from the verified one by %g", maxAbsDiff(x, xRef))
		}
		if verify || xRef == nil {
			// Sequential CRS oracle: the residual of the returned solution.
			ax, err := ops.SpMV(a, x)
			if err != nil {
				return opResult{}, err
			}
			if r := maxAbsDiff(ax, b); r > 1e-8*(1+bmax) {
				return opResult{}, fmt.Errorf("residual %g against the sequential CRS oracle", r)
			}
			if xRef == nil {
				xRef = x
			}
		}
		return opResult{lat: lat, c: opCounts(st), exact: true}, nil
	}
	return inst, nil
}

func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	m := 0.0
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}

// crsClose reports whether two CRS arrays have the same structure and
// values within tol.
func crsClose(a, b *compress.CRS, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for q := range a.Val {
		if a.ColIdx[q] != b.ColIdx[q] || math.Abs(a.Val[q]-b.Val[q]) > tol {
			return false
		}
	}
	return true
}

func setupComputeSpGEMM(o runOptions) (*instance, error) {
	const n = 512
	g := sparse.Banded(n, n, 8, 0.8, o.seed)
	d, cfg, err := computeSetup(g)
	if err != nil {
		return nil, err
	}
	b := compress.CompressCRS(g, nil)
	want, err := ops.SpGEMM(b, b)
	if err != nil {
		d.Close()
		return nil, err
	}
	inst := &instance{slots: 1, virtualBySlot: true, close: func() { d.Close() },
		probe: probe{g: g, cfg: cfg, seed: o.seed}}
	inst.run = func(i int, verify bool, sp *opSpans) (opResult, error) {
		endOp := sp.begin("op", "bench")
		end := sp.begin("spops.DistSpGEMM", "spops")
		t0 := time.Now()
		c, st, err := d.SpGEMM(b)
		lat := time.Since(t0)
		end()
		endOp()
		if err != nil {
			return opResult{}, err
		}
		defer sp.begin("check", "bench")()
		if inst.corrupt && i%2 == 0 && c.NNZ() > 0 {
			c.Val[0]++
		}
		if c.NNZ() != want.NNZ() {
			return opResult{}, fmt.Errorf("product has %d nonzeros, ops.SpGEMM has %d", c.NNZ(), want.NNZ())
		}
		if verify && !crsClose(c, want, 1e-9) {
			return opResult{}, fmt.Errorf("product differs from ops.SpGEMM")
		}
		return opResult{lat: lat, c: opCounts(st), exact: true}, nil
	}
	return inst, nil
}

// daemon is an in-process sparsedistd behind a real HTTP listener, driven
// through internal/client like any remote caller would.
type daemon struct {
	srv *server.Server
	ts  *httptest.Server
	cl  *client.Client
}

func startDaemon() *daemon {
	srv := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(srv)
	return &daemon{srv: srv, ts: ts, cl: client.New(ts.URL)}
}

func (d *daemon) close() {
	d.ts.Close()
	d.srv.Close()
}

const (
	jobPoll    = 200 * time.Microsecond
	jobTimeout = 30 * time.Second
)

// jobTrace is what the traced path of one job learned besides the status.
type jobTrace struct {
	polls      int
	observedAt time.Time
	submit     time.Duration
	statusCall time.Duration // mean duration of the Status calls
}

// runJob is one closed-loop job: submit, wait for a terminal state. The
// untraced path is client.Submit + client.Wait; the traced path is the
// same loop spelled out with a span per HTTP call.
func (d *daemon) runJob(spec server.JobSpec, sp *opSpans) (server.JobStatus, time.Duration, jobTrace, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	var jt jobTrace
	t0 := time.Now()
	if sp == nil {
		id, err := d.cl.Submit(ctx, spec)
		if err != nil {
			return server.JobStatus{}, 0, jt, err
		}
		st, err := d.cl.Wait(ctx, id, jobPoll)
		return st, time.Since(t0), jt, err
	}
	end := sp.begin("client.Submit", "client")
	id, err := d.cl.Submit(ctx, spec)
	end()
	jt.submit = time.Since(t0)
	if err != nil {
		return server.JobStatus{}, 0, jt, err
	}
	var inStatus time.Duration
	for {
		ts := time.Now()
		end := sp.begin("client.Status", "client")
		st, err := d.cl.Status(ctx, id)
		end()
		jt.observedAt = time.Now()
		inStatus += jt.observedAt.Sub(ts)
		jt.polls++
		if err != nil {
			return st, 0, jt, err
		}
		switch st.State {
		case server.StateDone, server.StateFailed, server.StateCanceled:
			lat := time.Since(t0)
			jt.statusCall = inStatus / time.Duration(jt.polls)
			if st.StartedAt != nil && st.FinishedAt != nil {
				sp.interval("server.queue", "server", st.SubmittedAt, *st.StartedAt)
				sp.interval("server.run", "server", *st.StartedAt, *st.FinishedAt)
			}
			return st, lat, jt, nil
		}
		select {
		case <-ctx.Done():
			return st, 0, jt, ctx.Err()
		case <-time.After(jobPoll):
		}
	}
}

func jobCounts(r *server.JobResult) counts {
	c := counts{words: r.Elements + r.OpWireWords, msgs: r.Messages + r.OpMessages}
	for _, ph := range r.Phases {
		switch ph.Name {
		case "T_Distribution":
			c.vdist = ph.Virtual
		case "T_Compression":
			c.vcomp = ph.Virtual
		}
	}
	return c
}

// checkJob is the per-job correctness check: terminal state done and the
// result describing the array and plan that were asked for.
func checkJob(spec server.JobSpec, st server.JobStatus) error {
	if st.State != server.StateDone || st.Result == nil {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	r := st.Result
	procs := max(spec.Procs, 1)
	if wantNNZ := int(spec.Ratio*float64(spec.N)*float64(spec.N) + 0.5); r.NNZ != wantNNZ || r.Rows != spec.N || r.Procs != procs {
		return fmt.Errorf("job %s: nnz %d rows %d procs %d, want %d %d %d", st.ID, r.NNZ, r.Rows, r.Procs, wantNNZ, spec.N, procs)
	}
	if auto := strings.EqualFold(spec.Scheme, "auto"); auto != r.Auto || (!auto && r.Scheme != spec.Scheme) {
		return fmt.Errorf("job %s: ran scheme %s (auto=%t), asked for %s", st.ID, r.Scheme, r.Auto, spec.Scheme)
	}
	if spec.Op != "" && (r.Op != spec.Op || r.OpWireWords <= 0) {
		return fmt.Errorf("job %s: op %q moved %d words, asked for %q", st.ID, r.Op, r.OpWireWords, spec.Op)
	}
	return nil
}

// serveInstance runs jobs from specs against a fresh daemon. slots is the
// period of specs in everything but the array seed.
func serveInstance(o runOptions, slots int, specs func(i int) server.JobSpec, virtualBySlot bool, g *sparse.Dense) *instance {
	d := startDaemon()
	inst := &instance{slots: slots, virtualBySlot: virtualBySlot, close: d.close, daemon: d,
		probe: probe{g: g, cfg: core.Config{Procs: 4}, seed: o.seed}}
	inst.run = func(i int, verify bool, sp *opSpans) (opResult, error) {
		spec := specs(i)
		endOp := sp.begin("op", "bench")
		st, lat, jt, err := d.runJob(spec, sp)
		endOp()
		if err != nil {
			return opResult{}, err
		}
		defer sp.begin("check", "bench")()
		if inst.corrupt && i%2 == 0 && st.Result != nil {
			st.Result.NNZ++
		}
		if err := checkJob(spec, st); err != nil {
			return opResult{}, err
		}
		if inst.jobs != nil {
			inst.jobs.observe(st, jt)
		}
		return opResult{lat: lat, c: jobCounts(st.Result), exact: !st.Result.Auto}, nil
	}
	return inst
}

func setupServeWarm(o runOptions) (*instance, error) {
	const n = 400
	type plan struct{ scheme, partition, method string }
	plans := []plan{
		{"ED", "row", "CRS"}, {"ED", "mesh", "CRS"}, {"CFS", "row", "CRS"}, {"CFS", "mesh", "CRS"},
		{"SFC", "row", "CRS"}, {"SFC", "mesh", "CRS"}, {"ED", "col", "CRS"}, {"ED", "col", "CCS"},
	}
	seed := o.seed + 1000 // never 0, which the server would default
	specs := func(i int) server.JobSpec {
		p := plans[i%len(plans)]
		return server.JobSpec{N: n, Ratio: 0.1, Seed: seed, Scheme: p.scheme, Partition: p.partition,
			Method: p.method, Procs: 4, Op: "spmv"}
	}
	return serveInstance(o, len(plans), specs, true, sparse.UniformExact(n, n, 0.1, seed)), nil
}

func setupServeCold(o runOptions) (*instance, error) {
	const shapes = 48
	schemes := []string{"ED", "CFS", "SFC", "auto"}
	base := o.seed*1_000_003 + 1
	specs := func(i int) server.JobSpec {
		s := server.JobSpec{N: 512 + 8*(i%shapes), Ratio: 0.1, Seed: base + int64(i),
			Scheme: schemes[i%len(schemes)], Partition: "row", Procs: 4}
		if s.Scheme != "auto" {
			s.Method = "CRS"
		}
		return s
	}
	// Virtual times depend on the largest part's nonzero count, which
	// changes with every new array: only the wire counts are per-slot.
	return serveInstance(o, shapes, specs, false, sparse.UniformExact(512, 512, 0.1, base)), nil
}
