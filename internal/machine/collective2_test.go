package machine

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestReduceSum(t *testing.T) {
	m, _ := New(4, WithRecvTimeout(5*time.Second))
	defer m.Close()
	err := m.Run(func(p *Proc) error {
		contrib := []float64{float64(p.Rank), 1}
		acc, err := p.Reduce(0, contrib, SumOp)
		if err != nil {
			return err
		}
		if p.Rank == 0 {
			if acc[0] != 0+1+2+3 || acc[1] != 4 {
				return fmt.Errorf("reduce = %v", acc)
			}
		} else if acc != nil {
			return fmt.Errorf("non-root got reduce result")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSum(t *testing.T) {
	m, _ := New(3, WithRecvTimeout(5*time.Second))
	defer m.Close()
	err := m.Run(func(p *Proc) error {
		acc, err := p.Allreduce([]float64{float64(p.Rank * p.Rank)}, SumOp)
		if err != nil {
			return err
		}
		if acc[0] != 5 {
			return fmt.Errorf("rank %d allreduce sum = %g, want 5", p.Rank, acc[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceLengthMismatch(t *testing.T) {
	m, _ := New(2, WithRecvTimeout(time.Second))
	defer m.Close()
	err := m.Run(func(p *Proc) error {
		data := []float64{1}
		if p.Rank == 1 {
			data = []float64{1, 2}
		}
		_, err := p.Reduce(0, data, SumOp)
		return err
	})
	if err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestFaultTransportDrop(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(2))
	ft.DropNext(1)
	m, err := New(2, WithTransport(ft), WithRecvTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(p *Proc) error {
		if p.Rank == 0 {
			return p.Send(1, 1, [4]int64{}, []float64{1}, nil)
		}
		_, err := p.RecvFrom(0, 1)
		return err
	})
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("dropped message did not surface as timeout: %v", err)
	}
	if d := ft.FullStats().Dropped; d != 1 {
		t.Errorf("dropped = %d, want 1", d)
	}
}

func TestFaultTransportCorrupt(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(2))
	ft.CorruptPayloads(true)
	m, err := New(2, WithTransport(ft), WithRecvTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(p *Proc) error {
		if p.Rank == 0 {
			return p.Send(1, 1, [4]int64{}, []float64{42, 43}, nil)
		}
		msg, err := p.RecvFrom(0, 1)
		if err != nil {
			return err
		}
		if msg.Data[0] == msg.Data[0] { // NaN != NaN
			return fmt.Errorf("payload not corrupted: %v", msg.Data)
		}
		if msg.Data[1] != 43 {
			return fmt.Errorf("corruption touched more than one word")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := ft.FullStats().Corrupted; c != 1 {
		t.Errorf("corrupted = %d, want 1", c)
	}
}

func TestFaultTransportControlPassesThrough(t *testing.T) {
	// Collectives (negative tags) must survive fault injection aimed at
	// data traffic.
	ft := NewFaultTransport(NewChanTransport(3))
	ft.DropNext(100)
	ft.CorruptPayloads(true)
	m, err := New(3, WithTransport(ft), WithRecvTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(p *Proc) error {
		if err := p.Barrier(); err != nil {
			return err
		}
		got, err := p.Bcast(0, []float64{7})
		if err != nil {
			return err
		}
		if got[0] != 7 {
			return fmt.Errorf("bcast corrupted: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ft.String() == "" {
		t.Error("String empty")
	}
}

func TestFaultTransportDelay(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(2))
	ft.Delay(30 * time.Millisecond)
	m, _ := New(2, WithTransport(ft), WithRecvTimeout(2*time.Second))
	defer m.Close()
	start := time.Now()
	err := m.Run(func(p *Proc) error {
		if p.Rank == 0 {
			return p.Send(1, 1, [4]int64{}, []float64{1}, nil)
		}
		_, err := p.RecvFrom(0, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Error("delay not applied")
	}
}
