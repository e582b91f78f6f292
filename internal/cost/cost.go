// Package cost provides the abstract cost accounting used by the
// machine's virtual clock. The paper analyses every scheme in terms of
// three unit costs:
//
//	T_Startup   – per message (communication channel startup)
//	T_Data      – per array element transmitted
//	T_Operation – per element operation (memory access, add/sub, ...)
//
// Instrumented code accumulates *counts* of these events in a Counter
// while executing the real algorithm; the virtual clock later converts
// counts to time with a Params. Measuring counts inside the real loops
// (rather than evaluating closed-form formulas) keeps the reported time
// honest: if the implementation does more work, the clock shows it.
package cost

import (
	"fmt"
	"time"
)

// Counter accumulates abstract cost events. The zero value is ready to
// use. A nil *Counter is valid for every method and records nothing, so
// hot paths can be instrumented unconditionally.
type Counter struct {
	Messages int64 // messages sent (each charges T_Startup)
	Elements int64 // array elements transmitted (each charges T_Data)
	Ops      int64 // element operations (each charges T_Operation)
}

// AddOps records n element operations.
func (c *Counter) AddOps(n int) {
	if c != nil {
		c.Ops += int64(n)
	}
}

// AddSend records one message carrying n array elements.
func (c *Counter) AddSend(n int) {
	if c != nil {
		c.Messages++
		c.Elements += int64(n)
	}
}

// Add accumulates another counter into c.
func (c *Counter) Add(o Counter) {
	if c != nil {
		c.Messages += o.Messages
		c.Elements += o.Elements
		c.Ops += o.Ops
	}
}

// Reset zeroes the counter.
func (c *Counter) Reset() {
	if c != nil {
		*c = Counter{}
	}
}

// String renders the counter compactly.
func (c Counter) String() string {
	return fmt.Sprintf("{msgs:%d elems:%d ops:%d}", c.Messages, c.Elements, c.Ops)
}

// Params holds the three unit costs of the paper's machine model.
type Params struct {
	TStartup   time.Duration // per message
	TData      time.Duration // per element transmitted
	TOperation time.Duration // per element operation
}

// DefaultParams is calibrated so that the virtual clock reproduces the
// shape of the paper's IBM SP2 measurements: the paper estimates
// T_Data ≈ 1.2 × T_Operation (§5.1), and the absolute scale is set so a
// 2000x2000 SFC row distribution lands in the paper's few-hundred-ms
// range.
var DefaultParams = Params{
	TStartup:   50 * time.Microsecond,
	TData:      90 * time.Nanosecond,
	TOperation: 75 * time.Nanosecond,
}

// Time converts counted events to virtual time under p.
func (p Params) Time(c Counter) time.Duration {
	return time.Duration(c.Messages)*p.TStartup +
		time.Duration(c.Elements)*p.TData +
		time.Duration(c.Ops)*p.TOperation
}

// DataOpRatio returns T_Data / T_Operation, the ratio governing the
// paper's Remark 2 and Remark 5 crossover conditions.
func (p Params) DataOpRatio() float64 {
	if p.TOperation == 0 {
		return 0
	}
	return float64(p.TData) / float64(p.TOperation)
}

// Validate reports an error for negative unit costs.
func (p Params) Validate() error {
	if p.TStartup < 0 || p.TData < 0 || p.TOperation < 0 {
		return fmt.Errorf("cost: negative unit cost in %+v", p)
	}
	return nil
}
