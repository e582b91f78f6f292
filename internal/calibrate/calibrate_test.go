package calibrate

import (
	"math"
	"testing"
	"time"

	"repro/internal/machine"
)

func TestFitLinearExact(t *testing.T) {
	// y = 3 + 2x fits exactly.
	x := []float64{0, 1, 2, 5, 10}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 3 + 2*x[i]
	}
	fit, err := fitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Intercept-3) > 1e-12 || math.Abs(fit.Slope-2) > 1e-12 {
		t.Errorf("fit = %+v, want intercept 3 slope 2", fit)
	}
	if fit.R2 < 0.999999 {
		t.Errorf("R2 = %g, want ~1", fit.R2)
	}
}

func TestFitLinearNoise(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2.1, 3.9, 6.1, 7.9} // ~ y = 2x
	fit, err := fitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 0.1 {
		t.Errorf("slope = %g, want ~2", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %g", fit.R2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := fitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := fitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := fitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestOperationPositive(t *testing.T) {
	op, err := Operation(1)
	if err != nil {
		t.Fatal(err)
	}
	if op <= 0 {
		t.Errorf("T_Operation = %v, want > 0", op)
	}
	if _, err := Operation(0); err == nil {
		t.Error("iters=0 accepted")
	}
}

func TestWireChanTransport(t *testing.T) {
	fit, err := Wire(func(p int) (machine.Transport, error) {
		return machine.NewChanTransport(p), nil
	}, []int{0, 1000, 10000}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Channel transport: slope can be tiny but must not be wildly
	// negative; intercept (startup) must be non-negative-ish.
	if fit.Slope < -100 {
		t.Errorf("slope = %g ns/word, absurd", fit.Slope)
	}
	if _, err := Wire(func(p int) (machine.Transport, error) {
		return machine.NewChanTransport(p), nil
	}, []int{5}, 1); err == nil {
		t.Error("single size accepted")
	}
}

func TestHostCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration timing in -short mode")
	}
	params, fit, err := Host(nil)
	if err != nil {
		t.Fatal(err)
	}
	if params.TOperation <= 0 {
		t.Errorf("T_Operation = %v", params.TOperation)
	}
	if params.Validate() != nil {
		t.Errorf("invalid params %+v", params)
	}
	_ = fit
}

// TestLinkFitChanTransport pins LinkFit's mapping from the wire fit to
// a simnet link without depending on timing: the link's Latency and
// PerWord are the returned fit's intercept and slope, clamped at 0, and
// the link is named. TestFitLinearExact and TestFitLinearNoise pin the
// fit itself.
func TestLinkFitChanTransport(t *testing.T) {
	link, fit, err := LinkFit(func(p int) (machine.Transport, error) {
		return machine.NewChanTransport(p), nil
	}, []int{0, 2000, 4000}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Duration(max64(0, int64(fit.Intercept))); link.Latency != want {
		t.Errorf("latency %v, want the fit's intercept clamped at 0, %v (fit %+v)", link.Latency, want, fit)
	}
	if want := time.Duration(max64(0, int64(fit.Slope))); link.PerWord != want {
		t.Errorf("per-word %v, want the fit's slope clamped at 0, %v (fit %+v)", link.PerWord, want, fit)
	}
	if link.Name == "" {
		t.Error("fitted link unnamed")
	}
}
