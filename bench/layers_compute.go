package main

import (
	"fmt"
	"time"

	"repro/internal/compress"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/ops"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/sparse"
	"repro/internal/spops"
)

// rowDistribution is an array distributed ED/row over a channel machine
// that records its traffic on a uniform network, plus its halo plan. The
// recorder is how the suite measures the words an op really sent.
type rowDistribution struct {
	m    *machine.Machine
	part partition.Partition
	res  *dist.Result
	plan *spops.CommPlan
}

func (s *suite) distributeRows(g *sparse.Dense) (*rowDistribution, error) {
	cfg := s.chanMachineCfg()
	cfg.Topology = "uniform"
	part, err := partition.NewRow(g.Rows(), g.Cols(), cfg.Procs)
	if err != nil {
		return nil, err
	}
	m, err := buildMachine(cfg)
	if err != nil {
		return nil, err
	}
	res, err := dist.Run(m, dist.Plan{Codec: dist.ED{}, Global: g, Partition: part})
	if err != nil {
		m.Close()
		return nil, err
	}
	plan, err := spops.BuildCommPlan(part, res)
	if err != nil {
		m.Close()
		return nil, err
	}
	return &rowDistribution{m: m, part: part, res: res, plan: plan}, nil
}

// sentWords runs fn with a cleared recorder and returns the payload
// words of every message the machine sent meanwhile.
func (d *rowDistribution) sentWords(fn func() error) (float64, error) {
	d.m.Network().Reset()
	if err := fn(); err != nil {
		return 0, err
	}
	words := 0
	for _, e := range d.m.Network().Finalize().Events {
		if e.Kind == simnet.EvSend {
			words += e.Words
		}
	}
	return float64(words), nil
}

// spmvPair measures halo SpMV and the broadcast baseline on one
// distribution: times, allocations, and measured words of both.
func (s *suite) spmvPair(d *rowDistribution, x []float64) (haloNS, haloAllocs, bcastNS []float64, haloOverBcast float64, err error) {
	haloNS, err = s.sample(func() error {
		n, err := mallocs(func() error {
			_, _, err := spops.SpMV(d.m, d.plan, x)
			return err
		})
		haloAllocs = append(haloAllocs, n)
		return err
	})
	if err != nil {
		return
	}
	bcastNS, err = s.sample(func() error {
		_, err := ops.DistributedSpMV(d.m, d.part, d.res, x)
		return err
	})
	if err != nil {
		return
	}
	halo, err := d.sentWords(func() error { _, _, err := spops.SpMV(d.m, d.plan, x); return err })
	if err != nil {
		return
	}
	bcast, err := d.sentWords(func() error { _, err := ops.DistributedSpMV(d.m, d.part, d.res, x); return err })
	if err != nil {
		return
	}
	if bcast == 0 {
		err = fmt.Errorf("broadcast SpMV recorded no traffic")
		return
	}
	return haloNS, haloAllocs, bcastNS, halo / bcast, nil
}

// computeLayers covers spops and the ops baselines, which really do the
// work: the same array, the same machine, measured words on both sides.
func (s *suite) computeLayers() error {
	g := diagDominant(s.p.g)
	n := g.Rows()
	x := vector(n, s.p.seed)

	d, err := s.distributeRows(g)
	if err != nil {
		return err
	}
	defer d.m.Close()
	ns, err := s.sample(func() error { _, err := spops.BuildCommPlan(d.part, d.res); return err })
	if err != nil {
		return err
	}
	s.put("spops.plan_build_ms", "ms", ns, 1e6)

	var iters, sweep []float64
	_, err = s.sample(func() error {
		t0 := time.Now()
		_, st, err := spops.Jacobi(d.m, d.plan, x, nil, 1e-10, 500)
		took := time.Since(t0)
		if err != nil {
			return err
		}
		if !st.Converged {
			return fmt.Errorf("layer Jacobi did not converge in %d sweeps", st.Iterations)
		}
		iters = append(iters, float64(st.Iterations))
		sweep = append(sweep, float64(took)/float64(st.Iterations))
		return nil
	})
	if err != nil {
		return err
	}
	s.put("spops.jacobi_sweep_us", "us", sweep, 1e3)
	s.put("spops.jacobi_iters", "count", iters, 1)

	haloNS, haloAllocs, bcastNS, ratio, err := s.spmvPair(d, x)
	if err != nil {
		return err
	}
	s.put("spops.spmv_us", "us", haloNS, 1e3)
	s.put("spops.spmv_allocs", "count", haloAllocs, 1)
	s.m["spops.halo_over_bcast"] = metricDoc{Value: ratio, Unit: "ratio"}
	s.put("ops.bcast_spmv_us", "us", bcastNS, 1e3)

	a := compress.CompressCRS(g, nil)
	ns, err = s.sample(func() error { _, err := ops.SpMV(a, x); return err })
	if err != nil {
		return err
	}
	s.put("ops.seq_spmv_us", "us", ns, 1e3)

	// Contrast input: a uniform s=0.02 array of the same size, where
	// every rank needs almost every column and the halo saves little.
	u, err := s.distributeRows(sparse.UniformExact(n, n, 0.02, s.p.seed+1))
	if err != nil {
		return err
	}
	defer u.m.Close()
	haloNS, _, _, ratio, err = s.spmvPair(u, x)
	if err != nil {
		return err
	}
	s.put("spops.spmv_uniform_us", "us", haloNS, 1e3)
	s.m["spops.halo_over_bcast_uniform"] = metricDoc{Value: ratio, Unit: "ratio"}

	return s.spgemmLayer(g)
}

// spgemmLayer multiplies the leading block of the probe (at most
// spgemmCap rows) by itself: distributed row fetch against the
// sequential ops.SpGEMM on the same operand.
func (s *suite) spgemmLayer(g *sparse.Dense) error {
	k := min(g.Rows(), spgemmCap)
	sub := g.SubMatrix(0, 0, k, k)
	b := compress.CompressCRS(sub, nil)
	want, err := ops.SpGEMM(b, b)
	if err != nil {
		return err
	}
	d, err := s.distributeRows(sub)
	if err != nil {
		return err
	}
	defer d.m.Close()
	var allocs []float64
	ns, err := s.sample(func() error {
		var c *compress.CRS
		n, err := mallocs(func() error {
			var err error
			c, _, err = spops.DistSpGEMM(d.m, d.plan, b)
			return err
		})
		if err == nil && c.NNZ() != want.NNZ() {
			err = fmt.Errorf("layer SpGEMM has %d nonzeros, ops.SpGEMM %d", c.NNZ(), want.NNZ())
		}
		allocs = append(allocs, n)
		return err
	})
	if err != nil {
		return err
	}
	s.put("spops.spgemm_ms", "ms", ns, 1e6)
	s.put("spops.spgemm_allocs", "count", allocs, 1)
	words, err := d.sentWords(func() error { _, _, err := spops.DistSpGEMM(d.m, d.plan, b); return err })
	if err != nil {
		return err
	}
	s.m["spops.spgemm_wire_words_per_nnz"] = metricDoc{Value: words / float64(b.NNZ()), Unit: "words"}

	ns, err = s.sample(func() error { _, err := ops.SpGEMM(b, b); return err })
	s.put("ops.seq_spgemm_ms", "ms", ns, 1e6)
	return err
}
