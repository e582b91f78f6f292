package dist

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/costmodel"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// remarkMargin is how far from a Remark's threshold r = T_Data/T_Op is
// priced: at threshold/remarkMargin and threshold·remarkMargin. The
// closed-form thresholds drop the ranks' parallel work: Remark 2's the
// CFS unpack (2n²s/p operations, which puts the counted row crossover
// near 1 + 1/p = 1.25 times the threshold at p = 4), Remark 5's the SFC
// ranks' compress ((1+3s)·n²/p, near 1 − 1/p = 0.75 times). 1.5 clears
// both on the row partition, with room for the n + p pointer words.
const remarkMargin = 1.5

// TestRemarks2And5OnCountedRuns checks Remarks 2 and 5 as conditions on
// counted runs across the density range, not at one point. SFC, CFS and
// ED each distribute the same array once per (s, partition) on chan;
// the counts do not depend on cost.Params, so each Breakdown is priced
// at r on both sides of the Remark's threshold (the startups cancel:
// every scheme sends p messages from the root). The Remark's ordering
// must hold iff r is above its threshold, except at the counterexamples
// listed below, which EXPERIMENTS.md "Remarks 1–5" records with their
// inputs and cause. A listed counterexample that stops occurring fails
// the test too, so the list stays what the counts say.
func TestRemarks2And5OnCountedRuns(t *testing.T) {
	const n, p = 400, 4
	sweep := []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45}
	// Every counterexample is on the column partition and below the
	// threshold: the ordering holds although r is under it, for every
	// swept s up to sMax. Remark 2 is a row statement (Tables 1–2) and
	// does not price SFC's n² column pack; Remark 5's column thresholds
	// drop the SFC ranks' compress, which lowers the counted crossover
	// by about (1/p)/(1−2s), more than the margin where 3s is near 1/p.
	counterexamples := []struct {
		remark, partition string
		sMax              float64
	}{
		{"Remark 2", "col", 0.45},
		{"Remark 5 ED", "col", 0.2},
		{"Remark 5 CFS", "col", 0.1},
	}
	listed := func(remark, part string, s float64, below bool) bool {
		for _, c := range counterexamples {
			if below && c.remark == remark && c.partition == part && s <= c.sMax {
				return true
			}
		}
		return false
	}

	price := func(r float64) cost.Params {
		return cost.Params{
			TStartup:   cost.DefaultParams.TStartup,
			TData:      time.Duration(r * float64(time.Microsecond)),
			TOperation: time.Microsecond,
		}
	}
	type breakdowns map[string]*Breakdown
	remarks := []struct {
		name      string
		threshold func(s float64, kind costmodel.PartitionKind) (float64, error)
		holds     func(bd breakdowns, pr cost.Params) bool
	}{
		{"Remark 2", func(s float64, _ costmodel.PartitionKind) (float64, error) { return costmodel.Remark2Threshold(s) },
			func(bd breakdowns, pr cost.Params) bool {
				return bd["CFS"].DistributionTime(pr) < bd["SFC"].DistributionTime(pr)
			}},
		{"Remark 5 ED", costmodel.Remark5EDThreshold,
			func(bd breakdowns, pr cost.Params) bool { return bd["ED"].TotalTime(pr) < bd["SFC"].TotalTime(pr) }},
		{"Remark 5 CFS", costmodel.Remark5CFSThreshold,
			func(bd breakdowns, pr cost.Params) bool { return bd["CFS"].TotalTime(pr) < bd["SFC"].TotalTime(pr) }},
	}

	row, err := partition.NewRow(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	col, err := partition.NewCol(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range []struct {
		name string
		part partition.Partition
		kind costmodel.PartitionKind
	}{{"row", row, costmodel.RowPart}, {"col", col, costmodel.ColPart}} {
		for _, s := range sweep {
			g := sparse.UniformExact(n, n, s, 48)
			bd := breakdowns{}
			for _, c := range Schemes() {
				res, err := distribute(c, newMachine(t, p), g, pt.part, Options{})
				if err != nil {
					t.Fatal(err)
				}
				bd[c.Name()] = res.Breakdown
			}
			for _, rm := range remarks {
				th, err := rm.threshold(s, pt.kind)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range []float64{th / remarkMargin, th * remarkMargin} {
					below := r < th
					holds := rm.holds(bd, price(r))
					where := fmt.Sprintf("%s, %s, s = %g, r = %.4f (threshold %.4f)", rm.name, pt.name, s, r, th)
					switch exempt := listed(rm.name, pt.name, s, below); {
					case holds == below && !exempt:
						t.Errorf("%s: ordering holds = %v, but the condition r > threshold is %v", where, holds, !below)
					case holds != below && exempt:
						t.Errorf("%s: listed counterexample no longer occurs", where)
					}
				}
			}
		}
	}
}
