package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

const (
	floorReps  = 20  // repetitions of a ground-truth floor; the whole series is reported
	maxSamples = 20  // cap on the repetitions of any other layer measurement
	minSamples = 3   // floor on those repetitions, however slow one call is
	spgemmCap  = 512 // layer SpGEMM runs on the leading block of at most this size
	probeJobs  = 16  // jobs a library workload sends through a daemon for the server metrics
)

// tracedPass is the --trace 1 run: an untraced reference window, a traced
// window of the same length over the same instance (their ratio is the
// tracing overhead), then every layer measured on the workload's probe.
func tracedPass(w *workload, r *runner, o runOptions, doc *runDoc) error {
	ref := r.measure(o.seconds*0.3, nil)

	tr := newTracer()
	var jobs *jobStats
	var before map[string]float64
	if d := r.inst.daemon; d != nil {
		jobs = &jobStats{}
		r.inst.jobs = jobs
		var err error
		if before, err = d.cl.Metrics(context.Background()); err != nil {
			return err
		}
	}
	t0 := tr.now()
	win := r.measure(o.seconds*0.3, tr)
	windowNS := tr.now() - t0
	if ref.ops == 0 || win.ops == 0 {
		return fmt.Errorf("%s: no op succeeded in the traced pass; first failure: %v",
			w.name, firstOr(append(ref.failures, win.failures...), "none recorded"))
	}
	if jobs != nil {
		after, err := r.inst.daemon.cl.Metrics(context.Background())
		if err != nil {
			return err
		}
		jobs.hitRatios(before, after)
	}
	win.attempted += ref.attempted
	win.failed += ref.failed
	win.failures = append(ref.failures, win.failures...)
	doc.fillWindow(win)

	sum := summarize(tr.spans, windowNS)
	m := doc.Metrics
	// The median and the tail of the untraced window are per-layer metrics
	// (reported, not bounded): on the shared host they do not repeat from
	// run to run the way op_ms_p01 does.
	p95 := median(ref.p95)
	if w.pooledP95 {
		p95 = percentile(ref.pooledLat, 0.95)
	}
	m["window.ops_per_s"] = metricDoc{Value: median(ref.opsPerS), Unit: "1/s", Series: ref.opsPerS}
	m["window.op_ms_p50"] = metricDoc{Value: median(ref.p50), Unit: "ms", Series: ref.p50}
	m["window.op_ms_p95"] = metricDoc{Value: p95, Unit: "ms", Series: ref.p95}
	// Untraced over traced uncontended op time: the share of its speed a
	// traced op keeps.
	m["trace.overhead_ratio"] = metricDoc{Value: r.fast(ref) / r.fast(win), Unit: "ratio"}
	m["trace.span_coverage"] = metricDoc{Value: sum.Coverage, Unit: "ratio"}
	for _, layer := range tracedLayers {
		m["trace.share_"+layer] = metricDoc{Value: sum.Share[layer], Unit: "ratio"}
	}

	s := &suite{p: r.inst.probe, budget: time.Duration(o.seconds * 0.4 / 64 * float64(time.Second)), m: m}
	if err := s.run(jobs); err != nil {
		return fmt.Errorf("%s: layer suite: %w", w.name, err)
	}

	dir := o.resultsDir
	if dir == "" {
		dir = filepath.Join("bench", "results")
	}
	return writeTrace(dir, traceFile{Workload: w.name, Seed: o.seed, Summary: sum, Spans: tr.spans})
}

// tracedLayers are the layers the op spans can name; each gets a
// trace.share_<layer> metric (self time over op time).
var tracedLayers = []string{"partition", "machine", "dist", "simnet", "spops", "client", "server"}

// suite measures every layer on one probe.
type suite struct {
	p      probe
	budget time.Duration // per measurement
	m      map[string]metricDoc
}

// sample calls fn until the budget is spent (between minSamples and
// maxSamples times) and returns the nanoseconds of each call.
func (s *suite) sample(fn func() error) ([]float64, error) {
	return sampleN(s.budget, minSamples, maxSamples, fn)
}

func sampleN(budget time.Duration, lo, hi int, fn func() error) ([]float64, error) {
	var ns []float64
	start := time.Now()
	for len(ns) < lo || (len(ns) < hi && time.Since(start) < budget) {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		ns = append(ns, float64(time.Since(t0)))
	}
	return ns, nil
}

// put records median(ns)/div under name.
func (s *suite) put(name, unit string, ns []float64, div float64) {
	s.m[name] = metricDoc{Value: median(ns) / div, Unit: unit}
}

// floor records a ground-truth floor: floorReps repetitions of fn (which
// returns one measurement in the metric's unit), the median as the value
// and every repetition in the series.
func (s *suite) floor(name, unit string, fn func() (float64, error)) error {
	series := make([]float64, floorReps)
	for i := range series {
		v, err := fn()
		if err != nil {
			return err
		}
		series[i] = v
	}
	s.m[name] = metricDoc{Value: median(series), Unit: unit, Series: series}
	return nil
}

func mallocs(fn func() error) (float64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), err
}

func fullRange(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

func (s *suite) run(jobs *jobStats) error {
	steps := []func() error{s.sparseLayer, s.partitionLayer, s.compressLayer, s.machineLayer,
		s.distLayer, s.simnetLayer, s.costmodelLayer, s.computeLayers}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return s.serverLayer(jobs)
}

func (s *suite) sparseLayer() error {
	g := s.p.g
	n, nnz := g.Rows(), g.NNZ()
	ns, err := s.sample(func() error {
		sparse.UniformExact(n, n, g.SparseRatio(), s.p.seed)
		return nil
	})
	if err != nil {
		return err
	}
	s.put("sparse.gen_ns_per_cell", "ns", ns, float64(g.Size()))

	ns, err = s.sample(func() error {
		src := sparse.NewUniformStream(n, n, nnz, s.p.seed, 0)
		for {
			if _, err := src.Next(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	s.put("sparse.stream_next_ns_per_nnz", "ns", ns, float64(nnz))
	return err
}

func (s *suite) partitionLayer() error {
	g := s.p.g
	ns, err := s.sample(func() error {
		for _, name := range rowColMesh {
			cfg := s.p.cfg
			cfg.Partition, cfg.MeshRows, cfg.MeshCols = name, 0, 0
			if _, err := core.NewPartition(g, cfg.Normalized()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.put("partition.build_us", "us", ns, 1e3*float64(len(rowColMesh)))

	part, err := core.NewPartition(g, s.p.cfg.Normalized())
	if err != nil {
		return err
	}
	a := compress.CompressCRS(g, nil)
	ns, err = s.sample(func() error {
		loc, err := partition.NewLocator(part)
		if err != nil {
			return err
		}
		for i := 0; i < a.Rows; i++ {
			for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
				if _, err := loc.Owner(i, a.ColIdx[q]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	s.put("partition.locator_ns_per_nnz", "ns", ns, float64(a.NNZ()))
	return err
}

// compressLayer times the kernels on the whole probe array (one part
// covering everything), so ns/cell and ns/nnz are per unit of the
// workload's own density.
func (s *suite) compressLayer() error {
	g := s.p.g
	cells, nnz := float64(g.Size()), float64(g.NNZ())
	rowMap, colMap := fullRange(g.Rows()), fullRange(g.Cols())

	var ed []float64
	ns, err := s.sample(func() error {
		ed = compress.EncodeEDPartInto(g.At, rowMap, colMap, compress.RowMajor, ed[:0], nil)
		return nil
	})
	if err != nil {
		return err
	}
	s.put("compress.ed_encode_ns_per_cell", "ns", ns, cells)
	ns, err = s.sample(func() error {
		_, err := compress.DecodeEDToCRS(ed, g.Rows(), g.Cols(), 0, nil)
		return err
	})
	if err != nil {
		return err
	}
	s.put("compress.ed_decode_ns_per_nnz", "ns", ns, nnz)

	var a *compress.CRS
	ns, _ = s.sample(func() error { a = compress.CompressCRS(g, nil); return nil })
	s.put("compress.crs_ns_per_cell", "ns", ns, cells)
	ns, _ = s.sample(func() error { compress.CompressCCS(g, nil); return nil })
	s.put("compress.ccs_ns_per_cell", "ns", ns, cells)

	var packed []float64
	ns, _ = s.sample(func() error { packed = compress.PackCRSInto(a, packed[:0], nil); return nil })
	s.put("compress.pack_ns_per_nnz", "ns", ns, nnz)
	ns, err = s.sample(func() error {
		_, err := compress.UnpackCRS(packed, a.Rows, a.Cols, nil)
		return err
	})
	if err != nil {
		return err
	}
	s.put("compress.unpack_ns_per_nnz", "ns", ns, nnz)
	// The identity map converts global to (equal) local indices, so the
	// same array can be converted again on every repetition.
	ns, err = s.sample(func() error { return a.ConvertColsToLocal(colMap, nil) })
	s.put("compress.convert_ns_per_nnz", "ns", ns, nnz)
	return err
}

// pingPong times k round trips of w-word messages between ranks 0 and 1
// inside one Machine.Run and returns the nanoseconds per message.
func pingPong(m *machine.Machine, k, w int) (float64, error) {
	tag := m.AllocTags(1)
	data := make([]float64, w)
	var elapsed time.Duration
	err := m.Run(func(p *machine.Proc) error {
		if p.Rank > 1 {
			return nil
		}
		peer := 1 - p.Rank
		t0 := time.Now()
		for i := 0; i < k; i++ {
			if p.Rank == 0 {
				if err := p.Send(peer, tag, [4]int64{}, data, nil); err != nil {
					return err
				}
			}
			msg, err := p.RecvFrom(peer, tag)
			if err != nil {
				return err
			}
			if p.Rank == 1 {
				if err := p.Send(peer, tag, [4]int64{}, msg.Data, nil); err != nil {
					return err
				}
			}
		}
		if p.Rank == 0 {
			elapsed = time.Since(t0)
		}
		return nil
	})
	return float64(elapsed) / float64(2*k), err
}

// transportCosts fits ns/message (1-word messages) and ns/word (the
// extra cost of 4096-word messages) on one machine.
func (s *suite) transportCosts(m *machine.Machine) (perMsg, perWord float64, err error) {
	const k, big = 32, 4096
	var small, large []float64
	_, err = s.sample(func() error {
		a, err := pingPong(m, k, 1)
		if err != nil {
			return err
		}
		b, err := pingPong(m, k, big)
		small, large = append(small, a), append(large, b)
		return err
	})
	perMsg = median(small)
	return perMsg, (median(large) - perMsg) / (big - 1), err
}

func (s *suite) machineLayer() error {
	chanCfg := s.chanMachineCfg()
	tcpCfg, relCfg := chanCfg, chanCfg
	tcpCfg.Transport = "tcp"
	relCfg.Transport, relCfg.Reliable = "tcp", true

	newClose := func(c core.Config) func() error {
		return func() error {
			m, err := buildMachine(c)
			if err != nil {
				return err
			}
			return m.Close()
		}
	}
	ns, err := s.sample(newClose(chanCfg))
	if err != nil {
		return err
	}
	s.put("machine.new_close_chan_us", "us", ns, 1e3)
	ns, err = s.sample(newClose(relCfg))
	if err != nil {
		return err
	}
	s.put("machine.new_close_tcp_us", "us", ns, 1e3)

	for _, tc := range []struct {
		cfg       core.Config
		msg, word string // metric names; word empty when ns/word is not reported
	}{
		{chanCfg, "machine.chan_ns_per_msg", "machine.chan_ns_per_word"},
		{tcpCfg, "machine.tcp_ns_per_msg", "machine.tcp_ns_per_word"},
		{relCfg, "machine.reliable_ns_per_msg", ""},
	} {
		m, err := buildMachine(tc.cfg)
		if err != nil {
			return err
		}
		perMsg, perWord, err := s.transportCosts(m)
		m.Close()
		if err != nil {
			return err
		}
		s.m[tc.msg] = metricDoc{Value: perMsg, Unit: "ns"}
		if tc.word != "" {
			s.m[tc.word] = metricDoc{Value: perWord, Unit: "ns"}
		}
	}

	m, err := buildMachine(chanCfg)
	if err != nil {
		return err
	}
	defer m.Close()
	const k = 32
	collective := func(name string, call func(p *machine.Proc) error) error {
		ns, err := s.sample(func() error {
			return m.Run(func(p *machine.Proc) error {
				for i := 0; i < k; i++ {
					if err := call(p); err != nil {
						return err
					}
				}
				return nil
			})
		})
		s.put(name, "us", ns, 1e3*k)
		return err
	}
	if err := collective("machine.allreduce_us", func(p *machine.Proc) error {
		_, err := p.Allreduce([]float64{1}, machine.SumOp)
		return err
	}); err != nil {
		return err
	}
	if err := collective("machine.barrier_us", func(p *machine.Proc) error { return p.Barrier() }); err != nil {
		return err
	}
	if err := s.floor("machine.run_spawn_us", "us", func() (float64, error) {
		t0 := time.Now()
		err := m.Run(func(*machine.Proc) error { return nil })
		return float64(time.Since(t0)) / 1e3, err
	}); err != nil {
		return err
	}
	return s.floor("machine.floor_msg_ns", "ns", func() (float64, error) { return pingPong(m, k, 0) })
}
