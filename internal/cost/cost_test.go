package cost

import (
	"testing"
	"time"
)

func TestNilCounterSafe(t *testing.T) {
	var c *Counter
	c.AddOps(5)
	c.AddSend(10)
	c.Add(Counter{Ops: 1})
	c.Reset()
}

func TestCounterAccumulation(t *testing.T) {
	var c Counter
	c.AddOps(3)
	c.AddOps(4)
	c.AddSend(100)
	c.AddSend(50)
	if c.Ops != 7 {
		t.Errorf("Ops = %d, want 7", c.Ops)
	}
	if c.Messages != 2 || c.Elements != 150 {
		t.Errorf("Messages, Elements = %d, %d; want 2, 150", c.Messages, c.Elements)
	}
}

func TestCounterAdd(t *testing.T) {
	a := Counter{Messages: 1, Elements: 2, Ops: 3}
	b := Counter{Messages: 10, Elements: 20, Ops: 30}
	a.Add(b)
	want := Counter{Messages: 11, Elements: 22, Ops: 33}
	if a != want {
		t.Errorf("Add = %v, want %v", a, want)
	}
}

func TestCounterReset(t *testing.T) {
	c := &Counter{Ops: 5}
	c.Reset()
	if *c != (Counter{}) {
		t.Errorf("Reset left %v", *c)
	}
}

func TestParamsTime(t *testing.T) {
	p := Params{TStartup: time.Millisecond, TData: time.Microsecond, TOperation: time.Nanosecond}
	c := Counter{Messages: 2, Elements: 3, Ops: 4}
	want := 2*time.Millisecond + 3*time.Microsecond + 4*time.Nanosecond
	if got := p.Time(c); got != want {
		t.Errorf("Time = %v, want %v", got, want)
	}
}

func TestDefaultParamsRatio(t *testing.T) {
	r := DefaultParams.DataOpRatio()
	if r < 1.15 || r > 1.25 {
		t.Errorf("default T_Data/T_Op = %g, want ~1.2 per the paper's estimate", r)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams.Validate(); err != nil {
		t.Errorf("DefaultParams invalid: %v", err)
	}
	bad := Params{TStartup: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative TStartup accepted")
	}
}

func TestCounterString(t *testing.T) {
	c := Counter{Messages: 1, Elements: 2, Ops: 3}
	if got := c.String(); got != "{msgs:1 elems:2 ops:3}" {
		t.Errorf("String = %q", got)
	}
}
