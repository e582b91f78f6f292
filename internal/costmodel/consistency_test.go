package costmodel_test

// Consistency between the closed-form model (costmodel.Predict) and the
// counts measured by actually running the schemes on the emulated
// machine (dist.Breakdown). The model uses the paper's s/s'
// approximations and drops sub-leading terms, so agreement is checked
// within a tolerance rather than exactly; a real divergence (e.g. a
// scheme doing asymptotically more work than the paper says) fails
// loudly.

import (
	"math"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/costmodel"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// modelTolerance is the largest relative error the 18 subtests read
// (each logs both of its readings), 0.0035 on CFS/col/CRS's
// distribution, plus a margin of 0.0015. The counts are exact on a
// seeded array, so the readings do not vary from run to run; the
// margin leaves room for a change to the model's sub-leading terms,
// not for noise.
const modelTolerance = 0.005

func TestModelMatchesMeasuredCounts(t *testing.T) {
	const n, p = 80, 4
	g := sparse.UniformExact(n, n, 0.1, 21)
	params := cost.DefaultParams

	cases := []struct {
		kind   costmodel.PartitionKind
		method dist.Method
		part   func() (partition.Partition, error)
	}{
		{costmodel.RowPart, dist.CRS, func() (partition.Partition, error) { return partition.NewRow(n, n, p) }},
		{costmodel.RowPart, dist.CCS, func() (partition.Partition, error) { return partition.NewRow(n, n, p) }},
		{costmodel.ColPart, dist.CRS, func() (partition.Partition, error) { return partition.NewCol(n, n, p) }},
		{costmodel.ColPart, dist.CCS, func() (partition.Partition, error) { return partition.NewCol(n, n, p) }},
		{costmodel.MeshPart, dist.CRS, func() (partition.Partition, error) { return partition.NewMesh(n, n, 2, 2) }},
		{costmodel.MeshPart, dist.CCS, func() (partition.Partition, error) { return partition.NewMesh(n, n, 2, 2) }},
	}

	for _, c := range cases {
		part, err := c.part()
		if err != nil {
			t.Fatal(err)
		}
		stats := sparse.LocalStats(partition.ExtractAll(g, part))
		in := costmodel.Inputs{
			N: n, P: p, Pr: 2, Pc: 2,
			S:      stats.GlobalRatio,
			SPrime: stats.MaxRatio,
			Kind:   c.kind,
		}
		if c.method == dist.CCS {
			in.Method = costmodel.CCS
		}
		for _, s := range dist.Schemes() {
			name := s.Name() + "/" + c.kind.String() + "/" + c.method.String()
			t.Run(name, func(t *testing.T) {
				m, err := machine.New(p, machine.WithRecvTimeout(10*time.Second))
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				res, err := dist.Run(m, dist.Plan{Codec: s, Global: g, Partition: part, Options: dist.Options{Method: c.method}})
				if err != nil {
					t.Fatal(err)
				}
				est, err := costmodel.Predict(s.Name(), in, params)
				if err != nil {
					t.Fatal(err)
				}
				gotD := res.Breakdown.DistributionTime(params)
				gotC := res.Breakdown.CompressionTime(params)
				checkWithin(t, "distribution", gotD, est.Distribution, modelTolerance)
				checkWithin(t, "compression", gotC, est.Compression, modelTolerance)
			})
		}
	}
}

func checkWithin(t *testing.T, what string, got, want time.Duration, tol float64) {
	t.Helper()
	g, w := got.Seconds(), want.Seconds()
	if w == 0 {
		if g != 0 {
			t.Errorf("%s: measured %v, model predicts 0", what, got)
		}
		return
	}
	rel := math.Abs(g-w) / w
	t.Logf("%s: measured %v vs model %v (relative error %.5f)", what, got, want, rel)
	if rel > tol {
		t.Errorf("%s: measured %v vs model %v (relative error %.1f%%)", what, got, want, 100*rel)
	}
}
