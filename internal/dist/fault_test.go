package dist

// Failure injection: the schemes must detect lost and corrupted traffic
// rather than produce wrong local arrays.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

func faultMachine(t *testing.T, p int, timeout time.Duration) (*machine.Machine, *machine.FaultTransport) {
	t.Helper()
	ft := machine.NewFaultTransport(machine.NewChanTransport(p))
	m, err := machine.New(p, machine.WithTransport(ft), machine.WithRecvTimeout(timeout))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, ft
}

func TestSchemesDetectDroppedMessage(t *testing.T) {
	g := sparse.Uniform(16, 16, 0.2, 1)
	part, _ := partition.NewRow(16, 16, 4)
	for _, s := range Schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			m, ft := faultMachine(t, 4, 300*time.Millisecond)
			ft.DropNext(1) // rank 0's first data message vanishes
			_, err := distribute(s, m, g, part, Options{})
			if !errors.Is(err, machine.ErrTimeout) {
				t.Errorf("dropped message surfaced as %v, want ErrTimeout", err)
			}
		})
	}
}

func TestCFSAndEDDetectCorruptedPayload(t *testing.T) {
	// The first payload word of a CFS buffer is RowPtr[0] and of an ED
	// buffer a count; NaN in either must be rejected by unpack/decode.
	g := sparse.Uniform(16, 16, 0.2, 2)
	part, _ := partition.NewRow(16, 16, 2)
	for _, s := range []Codec{CFS{}, ED{}} {
		t.Run(s.Name(), func(t *testing.T) {
			m, ft := faultMachine(t, 2, 2*time.Second)
			ft.CorruptPayloads(true)
			_, err := distribute(s, m, g, part, Options{})
			if err == nil {
				t.Fatal("corrupted payload accepted")
			}
			if errors.Is(err, machine.ErrTimeout) {
				t.Fatalf("corruption misreported as timeout: %v", err)
			}
		})
	}
}

func TestSFCSurvivesDelays(t *testing.T) {
	// Latency alone must not change results, only wall time.
	g := sparse.Uniform(12, 12, 0.3, 3)
	part, _ := partition.NewRow(12, 12, 2)
	m, ft := faultMachine(t, 2, 5*time.Second)
	ft.Delay(10 * time.Millisecond)
	res, err := Run(m, Plan{Codec: SFC{}, Global: g, Partition: part})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, part, res); err != nil {
		t.Fatal(err)
	}
}
