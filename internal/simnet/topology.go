package simnet

// Topology builders. Every topology is a set of directed Links plus a
// routing rule: arithmetic that names hop h's link on the path from
// one rank to another, so Build is O(links) and asking for a hop
// allocates nothing. Routes are store-and-forward: each hop pays the
// link's full Latency + words·PerWord, and occupies the link for that
// long.
//
// Link pricing: "access" links default to the cost model's units
// (Latency = T_Startup, PerWord = T_Data), so an uncongested
// single-hop route prices exactly like the legacy flat clock. The
// -link-bw / -link-latency overrides apply to each topology's
// *bottleneck* links — the shared bus, the star's root access link,
// every mesh link, the fat tree's core links — which is how a
// congested regime is dialled in without touching the leaf links. For
// the uniform topology (no bottleneck by construction) the overrides
// apply to every link.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cost"
	"repro/internal/partition"
)

// Topology is a routed link graph over p ranks.
type Topology struct {
	Name  string
	Links []Link
	p     int
	// route returns the link of hop h on the path from one rank to
	// another and the path's hop count; zero hops is free local
	// delivery. The link is meaningful only for h < hops.
	route func(from, to, h int) (link, hops int)
}

// Ranks returns the processor count.
func (t *Topology) Ranks() int { return t.p }

// addLink appends a link and returns its index.
func (t *Topology) addLink(name string, l Link) int {
	t.Links = append(t.Links, Link{Name: name, Latency: l.Latency, PerWord: l.PerWord})
	return len(t.Links) - 1
}

// TopologyNames lists the builders for CLI help strings.
func TopologyNames() string { return "uniform, bus, star, mesh, fattree" }

// ValidTopology reports whether name is a known topology (empty means
// "no network model" and is also valid for flag validation).
func ValidTopology(name string) bool {
	switch name {
	case "", "uniform", "bus", "star", "mesh", "fattree":
		return true
	}
	return false
}

// Build constructs the named topology for p ranks. params set the
// default link pricing (Latency = T_Startup, PerWord = T_Data);
// linkBW (payload words per second) and linkLatency, when positive,
// override the topology's bottleneck links as described in the package
// comment. Zero values keep the defaults.
func Build(name string, p int, params cost.Params, linkBW float64, linkLatency time.Duration) (*Topology, error) {
	if p <= 0 {
		return nil, fmt.Errorf("simnet: processor count %d must be positive", p)
	}
	if linkBW < 0 || math.IsNaN(linkBW) || math.IsInf(linkBW, 0) {
		return nil, fmt.Errorf("simnet: link bandwidth %g must be a finite non-negative words/s", linkBW)
	}
	if linkLatency < 0 {
		return nil, fmt.Errorf("simnet: link latency %v must be non-negative", linkLatency)
	}
	base := Link{Latency: params.TStartup, PerWord: params.TData}
	hot := base
	if linkLatency > 0 {
		hot.Latency = linkLatency
	}
	if linkBW > 0 {
		hot.PerWord = time.Duration(float64(time.Second) / linkBW)
	}
	switch name {
	case "uniform":
		return buildUniform(p, hot), nil
	case "bus":
		return buildBus(p, hot), nil
	case "star":
		return buildStar(p, base, hot), nil
	case "mesh":
		return buildMesh(p, hot), nil
	case "fattree":
		return buildFatTree(p, base, hot), nil
	default:
		return nil, fmt.Errorf("simnet: unknown topology %q (want %s)", name, TopologyNames())
	}
}

// buildUniform gives every ordered pair — including self-delivery —
// its own dedicated link, so transfers never contend and each send
// prices exactly Latency + words·PerWord. With default pricing this is
// the legacy flat clock as a topology (the parity anchor); the
// self-loop link is deliberately kept charged, matching the counter
// model where a root's send to itself pays the full wire cost. Link
// from·p+to carries from → to.
func buildUniform(p int, l Link) *Topology {
	t := &Topology{Name: "uniform", p: p, Links: make([]Link, 0, p*p)}
	for from := 0; from < p; from++ {
		for to := 0; to < p; to++ {
			t.addLink(fmt.Sprintf("u%d>%d", from, to), l)
		}
	}
	t.route = func(from, to, _ int) (int, int) { return from*p + to, 1 }
	return t
}

// buildBus routes every remote transfer over one shared link — the
// maximally contended topology. Self-delivery is local and free.
func buildBus(p int, l Link) *Topology {
	t := &Topology{Name: "bus", p: p}
	t.addLink("bus", l)
	t.route = func(from, to, _ int) (int, int) {
		if from == to {
			return 0, 0
		}
		return 0, 1
	}
	return t
}

// buildStar connects every rank to a central hub with an up and a down
// link (2r and 2r+1). Rank 0's access pair is the *root link* — every
// distribution byte crosses it — and is the one the bandwidth/latency
// overrides congest; leaves keep the base pricing. Self-delivery is
// free.
func buildStar(p int, base, hot Link) *Topology {
	t := &Topology{Name: "star", p: p, Links: make([]Link, 0, 2*p)}
	for r := 0; r < p; r++ {
		l := base
		if r == 0 {
			l = hot
		}
		t.addLink(fmt.Sprintf("up%d", r), l)
		t.addLink(fmt.Sprintf("down%d", r), l)
	}
	t.route = upDown
	return t
}

// upDown is the two-hop route through a hub: rank from's up link 2·from,
// then rank to's down link 2·to+1. Self-delivery is free.
func upDown(from, to, h int) (int, int) {
	if from == to {
		return 0, 0
	}
	if h == 0 {
		return 2 * from, 2
	}
	return 2*to + 1, 2
}

// buildMesh arranges the ranks on the most square pr × pc grid with
// bidirectional links between neighbours and XY dimension-ordered
// routing (move along the row to the target column, then along the
// column). Self-delivery is free.
func buildMesh(p int, l Link) *Topology {
	pr, pc := partition.SquareGrid(p)
	t := &Topology{Name: "mesh", p: p, Links: make([]Link, 0, 2*(pr*(pc-1)+pc*(pr-1)))}
	// out[v][d] is the link leaving node v toward direction d.
	const (
		right = iota
		left
		down
		up
	)
	out := make([][4]int, p)
	for v := 0; v < p; v++ {
		if v%pc+1 < pc {
			out[v][right] = t.addLink(fmt.Sprintf("m%d>%d", v, v+1), l)
			out[v+1][left] = t.addLink(fmt.Sprintf("m%d>%d", v+1, v), l)
		}
		if v/pc+1 < pr {
			out[v][down] = t.addLink(fmt.Sprintf("m%d>%d", v, v+pc), l)
			out[v+pc][up] = t.addLink(fmt.Sprintf("m%d>%d", v+pc, v), l)
		}
	}
	t.route = func(from, to, h int) (int, int) {
		dx, dy := to%pc-from%pc, to/pc-from/pc
		hops := abs(dx) + abs(dy)
		switch { // along the row first: right while dx > 0, left while dx < 0
		case h < dx:
			return out[from+h][right], hops
		case h < -dx:
			return out[from-h][left], hops
		}
		turn := from + dx // the node in from's row and to's column
		k := h - abs(dx)
		if dy > 0 {
			return out[turn+k*pc][down], hops
		}
		return out[turn-k*pc][up], hops
	}
	return t
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// buildFatTree is a two-level tree: ranks group under edge switches of
// size ⌈√p⌉; each edge switch connects to a single core. Core links
// carry a whole group's traffic but are "fat" — their per-word time is
// the base divided by the group size — so the tree is balanced by
// default; the overrides apply to the core links, which is where a
// congested spine is dialled in. Same-group traffic never leaves the
// edge switch. Self-delivery is free. Rank r's up/down links are 2r and
// 2r+1, as on the star; switch s's core links follow them at 2p+2s and
// 2p+2s+1.
func buildFatTree(p int, base, hot Link) *Topology {
	g := int(math.Ceil(math.Sqrt(float64(p))))
	if g < 1 {
		g = 1
	}
	nSw := (p + g - 1) / g
	t := &Topology{Name: "fattree", p: p, Links: make([]Link, 0, 2*(p+nSw))}
	for r := 0; r < p; r++ {
		t.addLink(fmt.Sprintf("up%d", r), base)
		t.addLink(fmt.Sprintf("down%d", r), base)
	}
	core := Link{Latency: base.Latency, PerWord: base.PerWord / time.Duration(g)}
	if hot != base {
		core = hot // an explicit override prices the spine verbatim
	}
	for s := 0; s < nSw; s++ {
		t.addLink(fmt.Sprintf("coreup%d", s), core)
		t.addLink(fmt.Sprintf("coredown%d", s), core)
	}
	t.route = func(from, to, h int) (int, int) {
		sf, st := from/g, to/g
		if sf == st {
			return upDown(from, to, h)
		}
		switch h {
		case 0:
			return 2 * from, 4
		case 1:
			return 2*p + 2*sf, 4
		case 2:
			return 2*p + 2*st + 1, 4
		}
		return 2*to + 1, 4
	}
	return t
}
