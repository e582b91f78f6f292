// Package calibrate estimates the machine model's unit costs
// (T_Startup, T_Data, T_Operation) for the *host this code runs on*, by
// timing the real primitives and fitting the model:
//
//	T_Operation  – wall time per element operation of the instrumented
//	               compression kernel (ops counted by cost.Counter);
//	T_Startup,   – intercept and slope of a linear least-squares fit of
//	T_Data         message round-trip time against payload size over a
//	               real transport.
//
// The paper estimates its SP2's ratio as T_Data ≈ 1.2·T_Operation from
// measurements; this package automates the same procedure, so the
// virtual clock can be re-based on any machine.
package calibrate

import (
	"fmt"
	"time"

	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/simnet"
	"repro/internal/sparse"
)

// Fit is a fitted linear model y = Intercept + Slope*x with its
// coefficient of determination.
type Fit struct {
	Intercept, Slope float64
	R2               float64
}

// fitLinear computes an ordinary least-squares line through the points.
func fitLinear(x, y []float64) (Fit, error) {
	n := len(x)
	if n != len(y) || n < 2 {
		return Fit{}, fmt.Errorf("calibrate: need >= 2 paired samples, got %d/%d", len(x), len(y))
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, fmt.Errorf("calibrate: degenerate x values")
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 1.0
	if syy > 0 {
		ssRes := 0.0
		for i := range x {
			e := y[i] - (a + b*x[i])
			ssRes += e * e
		}
		r2 = 1 - ssRes/syy
	}
	return Fit{Intercept: a, Slope: b, R2: r2}, nil
}

// Operation measures T_Operation in nanoseconds per element operation,
// unrounded: it times the instrumented CRS compression kernel over a
// reference array and divides wall time by the counted element
// operations. iters >= 1 runs are averaged.
// Readings from before CompressCRS allocated its result once, at its
// size, are higher for the same count: the kernel's time at s = 0.1
// fell to 0.77× (BenchmarkCompressCRS).
func Operation(iters int) (float64, error) {
	if iters < 1 {
		return 0, fmt.Errorf("calibrate: iters %d must be >= 1", iters)
	}
	g := sparse.UniformExact(400, 400, 0.1, 1)
	var totalOps int64
	start := time.Now()
	for i := 0; i < iters; i++ {
		var ctr cost.Counter
		compress.CompressCRS(g, &ctr)
		totalOps += ctr.Ops
	}
	wall := time.Since(start)
	if totalOps == 0 {
		return 0, fmt.Errorf("calibrate: kernel counted no operations")
	}
	return float64(wall) / float64(totalOps), nil
}

// Wire measures T_Startup and T_Data over the given transport factory
// by timing one-way transfers of increasing payloads between two ranks
// and fitting time = T_Startup + words·T_Data. Each size keeps the
// fastest of its reps round trips: scheduling and timer noise only
// ever add to a transfer, so the minimum is the closest sample to the
// transport's own cost.
func Wire(newTransport func(p int) (machine.Transport, error), sizes []int, reps int) (Fit, error) {
	if len(sizes) < 2 {
		return Fit{}, fmt.Errorf("calibrate: need >= 2 payload sizes")
	}
	if reps < 1 {
		reps = 1
	}
	tr, err := newTransport(2)
	if err != nil {
		return Fit{}, err
	}
	m, err := machine.New(2, machine.WithTransport(tr), machine.WithRecvTimeout(30*time.Second))
	if err != nil {
		tr.Close()
		return Fit{}, err
	}
	defer m.Close()

	xs := make([]float64, 0, len(sizes))
	ys := make([]float64, 0, len(sizes))
	for _, words := range sizes {
		if words < 0 {
			return Fit{}, fmt.Errorf("calibrate: negative payload size %d", words)
		}
		payload := make([]float64, words)
		var fastest time.Duration
		err := m.Run(func(p *machine.Proc) error {
			if p.Rank == 0 {
				for r := 0; r < reps; r++ {
					start := time.Now()
					if err := p.Send(1, 1, [4]int64{}, payload, nil); err != nil {
						return err
					}
					// Wait for the ack so the timing covers delivery.
					if _, err := p.RecvFrom(1, 2); err != nil {
						return err
					}
					if d := time.Since(start); r == 0 || d < fastest {
						fastest = d
					}
				}
				return nil
			}
			for r := 0; r < reps; r++ {
				if _, err := p.RecvFrom(0, 1); err != nil {
					return err
				}
				if err := p.Send(0, 2, [4]int64{}, nil, nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return Fit{}, err
		}
		// Each round trip is one payload transfer plus one empty ack:
		// time ≈ 2·T_Startup + words·T_Data. Halve the intercept
		// later; the slope is unaffected.
		xs = append(xs, float64(words))
		ys = append(ys, float64(fastest.Nanoseconds()))
	}
	fit, err := fitLinear(xs, ys)
	if err != nil {
		return Fit{}, err
	}
	fit.Intercept /= 2 // split the round trip's two startups
	return fit, nil
}

// LinkFit measures a simnet.Link for the given transport: the wire
// microbenchmark's intercept becomes the link's per-message Latency and
// its slope the per-word serialisation time. This is how a topology's
// links are grown from wall-clock measurements instead of the paper's
// SP2 constants — feed the result's Latency and PerWord into
// simnet.Build's linkLatency/linkBW overrides (bandwidth in words/s is
// 1s / PerWord) to price the bottleneck links of any topology by what
// the host's transport actually does.
func LinkFit(newTransport func(p int) (machine.Transport, error), sizes []int, reps int) (simnet.Link, Fit, error) {
	fit, err := Wire(newTransport, sizes, reps)
	if err != nil {
		return simnet.Link{}, Fit{}, err
	}
	link := simnet.Link{
		Name:    "calibrated",
		Latency: time.Duration(max(0, int64(fit.Intercept))),
		PerWord: time.Duration(max(0, int64(fit.Slope))),
	}
	return link, fit, nil
}

// Calibration is one host calibration, as measured.
type Calibration struct {
	Wire Fit     // T_Startup is its intercept, T_Data its slope, in ns
	OpNs float64 // T_Operation in ns per element op
}

// Params rounds the calibration to the virtual clock's unit costs, in
// whole nanoseconds and clamped at 0.
func (c Calibration) Params() cost.Params {
	return cost.Params{
		TStartup:   time.Duration(max(0, int64(c.Wire.Intercept))),
		TData:      time.Duration(max(0, int64(c.Wire.Slope))),
		TOperation: time.Duration(c.OpNs),
	}
}

// Ratio returns r = T_Data/T_Operation from the unrounded wire slope,
// clamped at 0 as Params' T_Data is, and ns/op. Params().DataOpRatio
// divides the whole-nanosecond values, which on a host where both are
// a few ns jumps between 1, 1.25, 1.33 and so on from run to run.
func (c Calibration) Ratio() float64 { return max(c.Wire.Slope, 0) / c.OpNs }

// Host runs the full calibration on this host using the given transport
// factory (nil means the channel transport).
func Host(newTransport func(p int) (machine.Transport, error)) (Calibration, error) {
	if newTransport == nil {
		newTransport = func(p int) (machine.Transport, error) { return machine.NewChanTransport(p), nil }
	}
	op, err := Operation(5)
	if err != nil {
		return Calibration{}, err
	}
	fit, err := Wire(newTransport, []int{0, 1024, 4096, 16384, 65536, 262144}, 20)
	if err != nil {
		return Calibration{}, err
	}
	return Calibration{Wire: fit, OpNs: op}, nil
}
