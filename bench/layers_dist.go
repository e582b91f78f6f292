package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/costmodel"
	"repro/internal/dist"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// chanMachineCfg is the probe's config on the plain channel transport
// with no network model: the reference machine of the layer suite.
func (s *suite) chanMachineCfg() core.Config {
	cfg := s.p.cfg.Normalized()
	cfg.Transport, cfg.Reliable, cfg.Topology = "chan", false, ""
	return cfg
}

// probePlan resolves the probe's scheme, partition and method into a dist.Plan.
func (s *suite) probePlan() (dist.Plan, error) {
	return planFor(nil, s.p.g, s.p.cfg.Normalized())
}

func maxDuration(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}

func (s *suite) distLayer() error {
	plan, err := s.probePlan()
	if err != nil {
		return err
	}
	m, err := buildMachine(s.chanMachineCfg())
	if err != nil {
		return err
	}
	defer m.Close()

	// Each sample is a pair: dist.Run on the prebuilt machine and plan
	// (whose Breakdown.Wall* fields split it into the paper's four
	// phases), then the whole of core.Distribute + Close with the
	// workload's own transport. Their difference is partition, machine
	// stack and plumbing; pairing keeps host drift out of it.
	var rootDist, rootComp, rankDist, rankComp, ratio, engine, overhead []float64
	_, err = s.sample(func() error {
		t0 := time.Now()
		res, err := dist.Run(m, plan)
		if err != nil {
			return err
		}
		t1 := time.Now()
		d, err := core.Distribute(s.p.g, s.p.cfg)
		if err != nil {
			return err
		}
		if err := d.Close(); err != nil {
			return err
		}
		run, whole := t1.Sub(t0), time.Since(t1)
		bd := res.Breakdown
		engine = append(engine, float64(run))
		overhead = append(overhead, float64(whole-run))
		rootDist = append(rootDist, float64(bd.WallRootDist))
		rootComp = append(rootComp, float64(bd.WallRootComp))
		rankDist = append(rankDist, float64(maxDuration(bd.WallRankDist)))
		rankComp = append(rankComp, float64(maxDuration(bd.WallRankComp)))
		virtual := bd.TotalTime(cost.DefaultParams)
		ratio = append(ratio, float64(bd.WallDistribution()+bd.WallCompression())/float64(virtual))
		return nil
	})
	if err != nil {
		return err
	}
	s.put("dist.run_ms", "ms", engine, 1e6)
	s.put("dist.root_dist_wall_ms", "ms", rootDist, 1e6)
	s.put("dist.root_comp_wall_ms", "ms", rootComp, 1e6)
	s.put("dist.rank_dist_wall_ms", "ms", rankDist, 1e6)
	s.put("dist.rank_comp_wall_ms", "ms", rankComp, 1e6)
	s.put("dist.wall_over_virtual", "ratio", ratio, 1)
	s.put("core.distribute_overhead_ms", "ms", overhead, 1e6)

	// The out-of-core engine on a stream of the probe's shape and density.
	g := s.p.g
	var allocs []float64
	ns, err := s.sample(func() error {
		src := sparse.NewUniformStream(g.Rows(), g.Cols(), g.NNZ(), s.p.seed, 0)
		n, err := mallocs(func() error {
			_, err := dist.RunStream(m, dist.StreamPlan{Codec: plan.Codec, Source: src, Partition: plan.Partition,
				Options: plan.Options, Stream: dist.StreamOptions{MemBudget: 1 << 20}})
			return err
		})
		allocs = append(allocs, n)
		return err
	})
	if err != nil {
		return err
	}
	s.put("dist.stream_run_ms", "ms", ns, 1e6)
	s.put("dist.stream_allocs", "count", allocs, 1)

	// Floor: an all-zero 8x8 array over 4 ranks pays only the engine's
	// fixed cost (goroutines, one empty message per rank).
	zero := sparse.NewDense(8, 8)
	zpart, err := partition.NewRow(8, 8, 4)
	if err != nil {
		return err
	}
	fcfg := s.chanMachineCfg()
	fcfg.Procs = 4
	fm, err := buildMachine(fcfg)
	if err != nil {
		return err
	}
	defer fm.Close()
	return s.floor("dist.floor_run_us", "us", func() (float64, error) {
		t0 := time.Now()
		_, err := dist.Run(fm, dist.Plan{Codec: dist.ED{}, Global: zero, Partition: zpart})
		return float64(time.Since(t0)) / 1e3, err
	})
}

// simnetLayer prices the network model: what recording costs a run, and
// what the replay costs afterwards.
func (s *suite) simnetLayer() error {
	plan, err := s.probePlan()
	if err != nil {
		return err
	}
	plain, err := buildMachine(s.chanMachineCfg())
	if err != nil {
		return err
	}
	defer plain.Close()
	netCfg := s.chanMachineCfg()
	if netCfg.Topology = s.p.cfg.Topology; netCfg.Topology == "" {
		netCfg.Topology = "mesh"
	}
	recorded, err := buildMachine(netCfg)
	if err != nil {
		return err
	}
	defer recorded.Close()

	var with, without, finalize, rate []float64
	_, err = s.sample(func() error {
		t0 := time.Now()
		if _, err := dist.Run(plain, plan); err != nil {
			return err
		}
		t1 := time.Now()
		recorded.Network().Reset()
		if _, err := dist.Run(recorded, plan); err != nil {
			return err
		}
		t2 := time.Now()
		tl := recorded.Network().Finalize()
		fin := time.Since(t2)
		without = append(without, float64(t1.Sub(t0)))
		with = append(with, float64(t2.Sub(t1)))
		finalize = append(finalize, float64(fin))
		rate = append(rate, float64(len(tl.Events))/fin.Seconds())
		return nil
	})
	s.put("simnet.finalize_us", "us", finalize, 1e3)
	s.put("simnet.events_per_s", "1/s", rate, 1)
	s.m["simnet.record_overhead_ratio"] = metricDoc{Value: median(with) / median(without), Unit: "ratio"}
	return err
}

func (s *suite) costmodelLayer() error {
	g := s.p.g
	var st costmodel.ArrayStats
	ns, _ := s.sample(func() error { st = costmodel.MeasureStats(g); return nil })
	s.put("costmodel.measure_stats_ns_per_cell", "ns", ns, float64(g.Size()))
	ns, err := s.sample(func() error {
		_, err := costmodel.Select(st, costmodel.SelectOptions{Procs: s.p.cfg.Normalized().Procs})
		return err
	})
	s.put("costmodel.select_us", "us", ns, 1e3)
	return err
}
