package costmodel

import (
	"math"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/simnet"
)

func uniformTop(t *testing.T, p int) *simnet.Topology {
	t.Helper()
	top, err := simnet.Build("uniform", p, cost.DefaultParams, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// within asserts |got-want| <= tol·want (absolute floor of 1µs for
// tiny phases).
func within(t *testing.T, label string, got, want time.Duration, tol float64) {
	t.Helper()
	diff := math.Abs(float64(got - want))
	lim := tol * math.Abs(float64(want))
	if lim < float64(time.Microsecond) {
		lim = float64(time.Microsecond)
	}
	if diff > lim {
		t.Errorf("%s: replayed %v vs closed-form %v (diff %.2g%%)", label, got, want, 100*diff/math.Abs(float64(want)))
	}
}

// TestRemarksUnderUniformMatchesPredict: replaying the synthesised
// workload through the uniform topology reproduces the closed-form
// estimates (per-part rounding is the only slack) and lands on the
// same best scheme, for every partition kind and method.
func TestRemarksUnderUniformMatchesPredict(t *testing.T) {
	params := cost.DefaultParams
	for _, kind := range []PartitionKind{RowPart, ColPart, MeshPart} {
		for _, method := range []Method{CRS, CCS} {
			in := Inputs{N: 200, P: 4, Pr: 2, Pc: 2, S: 0.1, Kind: kind, Method: method}
			tr, err := RemarksUnder(uniformTop(t, in.P), in, params)
			if err != nil {
				t.Fatalf("%v/%v: %v", kind, method, err)
			}
			best, all, err := BestScheme(in, params)
			if err != nil {
				t.Fatal(err)
			}
			for _, scheme := range []string{"SFC", "CFS", "ED"} {
				got, want := tr.Estimates[scheme], all[scheme]
				within(t, kind.String()+"/"+method.String()+"/"+scheme+" dist", got.Distribution, want.Distribution, 0.01)
				within(t, kind.String()+"/"+method.String()+"/"+scheme+" comp", got.Compression, want.Compression, 0.01)
				if got.Queued != 0 {
					t.Errorf("%v/%v/%s: uniform topology queued %v", kind, method, scheme, got.Queued)
				}
			}
			if tr.Best != best {
				t.Errorf("%v/%v: best under uniform = %s, closed form says %s", kind, method, tr.Best, best)
			}
		}
	}
}

// TestRemarksUnderUniformRemarkBooleans: under the uniform topology
// the Remark orderings agree with the closed-form estimates compared
// directly (the threshold form of the Remarks is asymptotic; the
// estimate comparison is the finite-size ground truth both sides
// share).
func TestRemarksUnderUniformRemarkBooleans(t *testing.T) {
	params := cost.DefaultParams
	in := Inputs{N: 400, P: 4, S: 0.1, Kind: RowPart, Method: CRS}
	tr, err := RemarksUnder(uniformTop(t, in.P), in, params)
	if err != nil {
		t.Fatal(err)
	}
	all := predictByScheme(t, in, params)
	if want := all["ED"].Distribution < all["SFC"].Distribution && all["ED"].Distribution < all["CFS"].Distribution; tr.Remark1 != want {
		t.Errorf("Remark1 = %v, closed form %v", tr.Remark1, want)
	}
	if want := all["CFS"].Distribution < all["SFC"].Distribution; tr.Remark2 != want {
		t.Errorf("Remark2 = %v, closed form %v", tr.Remark2, want)
	}
	if want := all["ED"].Total() < all["SFC"].Total(); tr.Remark5ED != want {
		t.Errorf("Remark5ED = %v, closed form %v", tr.Remark5ED, want)
	}
	if want := all["CFS"].Total() < all["SFC"].Total(); tr.Remark5CFS != want {
		t.Errorf("Remark5CFS = %v, closed form %v", tr.Remark5CFS, want)
	}
}

// TestRemarksUnderCongestedStarFlips documents the headline regime: at
// r = T_Data/T_Operation = 1.2 and s = 0.1 on a row partition, the
// Remark 5 threshold (1+3s)/(1-2s) = 1.625 > r says SFC wins overall
// under the flat model — but a congested star root link (1e6 words/s,
// ~11x T_Data per word) multiplies every wire word's cost, and SFC
// ships n² words against ED's ~0.2·n² + n, so the ordering flips: ED
// wins overall and Remark 5 (ED) turns true.
func TestRemarksUnderCongestedStarFlips(t *testing.T) {
	params := cost.DefaultParams
	in := Inputs{N: 400, P: 4, S: 0.1, Kind: RowPart, Method: CRS}

	uni, err := RemarksUnder(uniformTop(t, in.P), in, params)
	if err != nil {
		t.Fatal(err)
	}
	star, err := simnet.Build("star", in.P, params, 1e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	cong, err := RemarksUnder(star, in, params)
	if err != nil {
		t.Fatal(err)
	}

	if uni.Best != "SFC" {
		t.Fatalf("uniform best = %s, want SFC (r = %.2f below the 1.625 threshold)", uni.Best, params.DataOpRatio())
	}
	if uni.Remark5ED {
		t.Error("Remark5ED true under uniform; the flip needs it false there")
	}
	if cong.Best != "ED" {
		t.Errorf("congested star best = %s, want ED", cong.Best)
	}
	if !cong.Remark5ED {
		t.Error("Remark5ED still false under the congested star")
	}
	// The flip is wire-driven: SFC's distribution must have grown far
	// more than ED's.
	sfcGrow := cong.Estimates["SFC"].Distribution - uni.Estimates["SFC"].Distribution
	edGrow := cong.Estimates["ED"].Distribution - uni.Estimates["ED"].Distribution
	if sfcGrow <= edGrow {
		t.Errorf("SFC distribution grew %v, ED %v; expected SFC to suffer more", sfcGrow, edGrow)
	}
}

// TestRemarksUnderValidation covers the error paths.
func TestRemarksUnderValidation(t *testing.T) {
	params := cost.DefaultParams
	if _, err := RemarksUnder(nil, Inputs{N: 10, P: 2, S: 0.1}, params); err == nil {
		t.Error("nil topology accepted")
	}
	top := uniformTop(t, 4)
	if _, err := RemarksUnder(top, Inputs{N: 10, P: 2, S: 0.1}, params); err == nil {
		t.Error("rank mismatch accepted")
	}
	if _, err := RemarksUnder(top, Inputs{N: 0, P: 4, S: 0.1}, params); err == nil {
		t.Error("invalid inputs accepted")
	}
}
