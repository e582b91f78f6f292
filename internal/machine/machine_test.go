package machine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cost"
)

// transports returns a fresh instance of every transport under test.
func transports(t *testing.T, p int) map[string]Transport {
	t.Helper()
	tcp, err := NewTCPTransport(p)
	if err != nil {
		t.Fatalf("NewTCPTransport: %v", err)
	}
	return map[string]Transport{
		"chan": NewChanTransport(p),
		"tcp":  tcp,
	}
}

func TestPointToPointAllTransports(t *testing.T) {
	for name, tr := range transports(t, 4) {
		t.Run(name, func(t *testing.T) {
			m, err := New(4, WithTransport(tr), WithRecvTimeout(5*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			err = m.Run(func(p *Proc) error {
				if p.Rank == 0 {
					for to := 1; to < 4; to++ {
						data := []float64{float64(to), 2.5, -1}
						if err := p.Send(to, 7, [4]int64{int64(to), 99, 0, 0}, data, nil); err != nil {
							return err
						}
					}
					return nil
				}
				msg, err := p.RecvFrom(0, 7)
				if err != nil {
					return err
				}
				if msg.From != 0 || msg.Tag != 7 {
					return fmt.Errorf("rank %d got from %d tag %d", p.Rank, msg.From, msg.Tag)
				}
				if msg.Meta[0] != int64(p.Rank) || msg.Meta[1] != 99 {
					return fmt.Errorf("rank %d meta %v", p.Rank, msg.Meta)
				}
				if len(msg.Data) != 3 || msg.Data[0] != float64(p.Rank) || msg.Data[2] != -1 {
					return fmt.Errorf("rank %d data %v", p.Rank, msg.Data)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSendChargesCounter(t *testing.T) {
	m, err := New(2, WithRecvTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var ctr cost.Counter
	err = m.Run(func(p *Proc) error {
		if p.Rank == 0 {
			return p.Send(1, 1, [4]int64{}, make([]float64, 10), &ctr)
		}
		_, err := p.RecvFrom(0, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if ctr.Messages != 1 || ctr.Elements != 10 {
		t.Errorf("counter = %v, want 1 message, 10 elements", ctr)
	}
}

func TestRecvFromMatchesOutOfOrder(t *testing.T) {
	m, err := New(2, WithRecvTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(p *Proc) error {
		if p.Rank == 0 {
			// Send tags 1, 2, 3 in order.
			for tag := 1; tag <= 3; tag++ {
				if err := p.Send(1, tag, [4]int64{}, []float64{float64(tag)}, nil); err != nil {
					return err
				}
			}
			return nil
		}
		// Receive in reverse tag order: RecvFrom must buffer.
		for tag := 3; tag >= 1; tag-- {
			msg, err := p.RecvFrom(0, tag)
			if err != nil {
				return err
			}
			if msg.Data[0] != float64(tag) {
				return fmt.Errorf("tag %d carried %g", tag, msg.Data[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTimeout(t *testing.T) {
	m, err := New(1, WithRecvTimeout(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(p *Proc) error {
		_, err := p.RecvFrom(0, 1)
		return err
	})
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	m, err := New(2, WithRecvTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(p *Proc) error {
		if p.Rank == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic in rank did not surface as error")
	}
}

func TestSendInvalidRank(t *testing.T) {
	m, err := New(2, WithRecvTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(p *Proc) error {
		if p.Rank == 0 {
			return p.Send(5, 0, [4]int64{}, nil, nil)
		}
		return nil
	})
	if err == nil {
		t.Fatal("send to rank 5 of 2 succeeded")
	}
}

func TestBarrier(t *testing.T) {
	m, err := New(4, WithRecvTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var entered atomic.Int32
	err = m.Run(func(p *Proc) error {
		entered.Add(1)
		if err := p.Barrier(); err != nil {
			return err
		}
		// After the barrier every rank must have entered.
		if got := entered.Load(); got != 4 {
			return fmt.Errorf("rank %d passed barrier with only %d entered", p.Rank, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	m, err := New(3, WithRecvTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	payload := []float64{3.14, 2.71}
	err = m.Run(func(p *Proc) error {
		var in []float64
		if p.Rank == 1 {
			in = payload
		}
		got, err := p.Bcast(1, in)
		if err != nil {
			return err
		}
		if len(got) != 2 || got[0] != 3.14 || got[1] != 2.71 {
			return fmt.Errorf("rank %d bcast got %v", p.Rank, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	m, err := New(4, WithRecvTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(p *Proc) error {
		contrib := []float64{float64(p.Rank * 10)}
		all, err := p.Gather(0, contrib)
		if err != nil {
			return err
		}
		if p.Rank != 0 {
			if all != nil {
				return fmt.Errorf("non-root rank %d got gather result", p.Rank)
			}
			return nil
		}
		for r := 0; r < 4; r++ {
			if len(all[r]) != 1 || all[r][0] != float64(r*10) {
				return fmt.Errorf("gather[%d] = %v", r, all[r])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesUncharged(t *testing.T) {
	// Barriers/bcasts model synchronisation, which the paper's analysis
	// ignores; they must not disturb the experiment counters. Charged
	// counters are only touched via explicit Send.
	m, err := New(3, WithRecvTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(p *Proc) error {
		if err := p.Barrier(); err != nil {
			return err
		}
		_, err := p.Bcast(0, []float64{1})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0) accepted")
	}
	if _, err := New(3, WithTransport(NewChanTransport(2))); err == nil {
		t.Error("mismatched transport rank count accepted")
	}
}

func TestTCPLargePayload(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(2, WithTransport(tr), WithRecvTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const n = 200_000
	err = m.Run(func(p *Proc) error {
		if p.Rank == 0 {
			data := make([]float64, n)
			for i := range data {
				data[i] = float64(i)
			}
			return p.Send(1, 5, [4]int64{n}, data, nil)
		}
		msg, err := p.RecvFrom(0, 5)
		if err != nil {
			return err
		}
		if len(msg.Data) != n {
			return fmt.Errorf("got %d words, want %d", len(msg.Data), n)
		}
		for i := 0; i < n; i += 9973 {
			if msg.Data[i] != float64(i) {
				return fmt.Errorf("word %d = %g", i, msg.Data[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTransportCloseRejectsSend(t *testing.T) {
	tr := NewChanTransport(2)
	tr.Close()
	if err := tr.Send(Message{To: 0}); err == nil {
		t.Error("send on closed chan transport accepted")
	}

	tcp, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	tcp.Close()
	if err := tcp.Send(Message{From: 0, To: 1}); err == nil {
		t.Error("send on closed tcp transport accepted")
	}
}

func TestPairwiseFIFOAllTransports(t *testing.T) {
	// Messages between a fixed (sender, receiver) pair must arrive in
	// send order on every transport — the property the schemes' "send in
	// sequence" root loop relies on.
	for name, tr := range transports(t, 2) {
		t.Run(name, func(t *testing.T) {
			m, err := New(2, WithTransport(tr), WithRecvTimeout(5*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			const msgs = 200
			err = m.Run(func(p *Proc) error {
				if p.Rank == 0 {
					for i := 0; i < msgs; i++ {
						if err := p.Send(1, 1, [4]int64{int64(i)}, []float64{float64(i)}, nil); err != nil {
							return err
						}
					}
					return nil
				}
				for i := 0; i < msgs; i++ {
					msg, err := p.RecvFrom(0, 1)
					if err != nil {
						return err
					}
					if msg.Meta[0] != int64(i) {
						return fmt.Errorf("message %d arrived at position %d", msg.Meta[0], i)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
