package machine

import (
	"time"

	"repro/internal/cost"
	"repro/internal/simnet"
)

// ModelTransport wraps another transport and *actually spends* the
// machine model's communication time on every data message: the sender
// blocks for the modelled transfer time before the message is
// delivered. With it, wall-clock measurements reproduce the paper's
// distribution orderings directly (an in-process channel alone is so
// fast that wire volume barely shows up in wall time). Control traffic
// (negative tags) passes at full speed, mirroring the cost model which
// ignores synchronisation.
//
// Pricing has two modes. The flat mode charges T_Startup +
// words·T_Data for every data message — *including a rank sending to
// itself*, which matches the legacy counter model (the paper's root
// "sends" its own part through the same accounting as everyone
// else's). The topology mode (Topo set) charges the simnet route
// instead: each hop's Latency + words·PerWord summed along the path,
// so a self-send with an empty route is free local delivery, and a
// remote send pays for every link it crosses. Contention is not
// simulated here — queueing lives in simnet's replay — but route
// heterogeneity (a slow root link, mesh hop distance) already shows up
// in wall time.
type ModelTransport struct {
	Inner  Transport
	Params cost.Params
	// Topo, when set, selects route-based pricing over the flat charge.
	Topo *simnet.Topology
}

// NewModelTransport wraps inner with the given flat unit costs.
func NewModelTransport(inner Transport, params cost.Params) *ModelTransport {
	return &ModelTransport{Inner: inner, Params: params}
}

// NewModelTransportTopo wraps inner with topology-routed pricing.
func NewModelTransportTopo(inner Transport, top *simnet.Topology) *ModelTransport {
	return &ModelTransport{Inner: inner, Topo: top}
}

// Ranks implements Transport.
func (t *ModelTransport) Ranks() int { return t.Inner.Ranks() }

// charge returns the modelled wire time of one data message.
func (t *ModelTransport) charge(msg Message) time.Duration {
	if t.Topo != nil {
		return t.Topo.RouteCharge(msg.From, msg.To, len(msg.Data))
	}
	return t.Params.TStartup + time.Duration(len(msg.Data))*t.Params.TData
}

// Send implements Transport, sleeping the modelled transfer time first.
func (t *ModelTransport) Send(msg Message) error {
	if msg.Tag >= 0 {
		if d := t.charge(msg); d > 0 {
			time.Sleep(d)
		}
	}
	return t.Inner.Send(msg)
}

func (t *ModelTransport) inbox(rank int) *msgQueue { return t.Inner.inbox(rank) }

// Close implements Transport.
func (t *ModelTransport) Close() error { return t.Inner.Close() }

var _ Transport = (*ModelTransport)(nil)
