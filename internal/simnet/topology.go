package simnet

// Topology builders. Every topology is a set of directed Links plus a
// static route (a link sequence) per (from, to) pair. Routes are
// store-and-forward: each hop pays the link's full Latency +
// words·PerWord, and occupies the link for that long.
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
	// routes[from][to] is the link index sequence a message crosses; an
	// empty route is free local delivery.
	routes [][][]int
}

// Ranks returns the processor count.
func (t *Topology) Ranks() int { return len(t.routes) }

// Route returns the link sequence from one rank to another.
func (t *Topology) Route(from, to int) []int { return t.routes[from][to] }

// newTopology allocates an empty p-rank topology.
func newTopology(name string, p int) *Topology {
	t := &Topology{Name: name}
	t.routes = make([][][]int, p)
	for i := range t.routes {
		t.routes[i] = make([][]int, p)
	}
	return t
}

// addLink appends a link and returns its index.
func (t *Topology) addLink(l Link) int {
	t.Links = append(t.Links, l)
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
// model where a root's send to itself pays the full wire cost.
func buildUniform(p int, l Link) *Topology {
	t := newTopology("uniform", p)
	for from := 0; from < p; from++ {
		for to := 0; to < p; to++ {
			li := t.addLink(Link{Name: fmt.Sprintf("u%d>%d", from, to), Latency: l.Latency, PerWord: l.PerWord})
			t.routes[from][to] = []int{li}
		}
	}
	return t
}

// buildBus routes every remote transfer over one shared link — the
// maximally contended topology. Self-delivery is local and free.
func buildBus(p int, l Link) *Topology {
	t := newTopology("bus", p)
	li := t.addLink(Link{Name: "bus", Latency: l.Latency, PerWord: l.PerWord})
	for from := 0; from < p; from++ {
		for to := 0; to < p; to++ {
			if from != to {
				t.routes[from][to] = []int{li}
			}
		}
	}
	return t
}

// buildStar connects every rank to a central hub with an up and a down
// link. Rank 0's access pair is the *root link* — every distribution
// byte crosses it — and is the one the bandwidth/latency overrides
// congest; leaves keep the base pricing. Self-delivery is free.
func buildStar(p int, base, hot Link) *Topology {
	t := newTopology("star", p)
	up := make([]int, p)
	down := make([]int, p)
	for r := 0; r < p; r++ {
		l := base
		if r == 0 {
			l = hot
		}
		up[r] = t.addLink(Link{Name: fmt.Sprintf("up%d", r), Latency: l.Latency, PerWord: l.PerWord})
		down[r] = t.addLink(Link{Name: fmt.Sprintf("down%d", r), Latency: l.Latency, PerWord: l.PerWord})
	}
	for from := 0; from < p; from++ {
		for to := 0; to < p; to++ {
			if from != to {
				t.routes[from][to] = []int{up[from], down[to]}
			}
		}
	}
	return t
}

// buildMesh arranges the ranks on the most square pr × pc grid with
// bidirectional links between neighbours and XY dimension-ordered
// routing (move along the row to the target column, then along the
// column). Self-delivery is free.
func buildMesh(p int, l Link) *Topology {
	pr, pc := partition.SquareGrid(p)
	t := newTopology("mesh", p)
	// hlink[r][c] / vlink[r][c]: directed links between grid neighbours.
	link := make(map[[2]int]int, 4*p)
	id := func(r, c int) int { return r*pc + c }
	addEdge := func(a, b int) {
		if _, ok := link[[2]int{a, b}]; !ok {
			link[[2]int{a, b}] = t.addLink(Link{Name: fmt.Sprintf("m%d>%d", a, b), Latency: l.Latency, PerWord: l.PerWord})
		}
	}
	for r := 0; r < pr; r++ {
		for c := 0; c < pc; c++ {
			if c+1 < pc {
				addEdge(id(r, c), id(r, c+1))
				addEdge(id(r, c+1), id(r, c))
			}
			if r+1 < pr {
				addEdge(id(r, c), id(r+1, c))
				addEdge(id(r+1, c), id(r, c))
			}
		}
	}
	for from := 0; from < p; from++ {
		fr, fc := from/pc, from%pc
		for to := 0; to < p; to++ {
			if from == to {
				continue
			}
			tr, tc := to/pc, to%pc
			var route []int
			r, c := fr, fc
			for c != tc {
				nc := c + 1
				if tc < c {
					nc = c - 1
				}
				route = append(route, link[[2]int{id(r, c), id(r, nc)}])
				c = nc
			}
			for r != tr {
				nr := r + 1
				if tr < r {
					nr = r - 1
				}
				route = append(route, link[[2]int{id(r, c), id(nr, c)}])
				r = nr
			}
			t.routes[from][to] = route
		}
	}
	return t
}

// buildFatTree is a two-level tree: ranks group under edge switches of
// size ⌈√p⌉; each edge switch connects to a single core. Core links
// carry a whole group's traffic but are "fat" — their per-word time is
// the base divided by the group size — so the tree is balanced by
// default; the overrides apply to the core links, which is where a
// congested spine is dialled in. Same-group traffic never leaves the
// edge switch. Self-delivery is free.
func buildFatTree(p int, base, hot Link) *Topology {
	g := int(math.Ceil(math.Sqrt(float64(p))))
	if g < 1 {
		g = 1
	}
	t := newTopology("fattree", p)
	nSw := (p + g - 1) / g
	up := make([]int, p)
	down := make([]int, p)
	for r := 0; r < p; r++ {
		up[r] = t.addLink(Link{Name: fmt.Sprintf("up%d", r), Latency: base.Latency, PerWord: base.PerWord})
		down[r] = t.addLink(Link{Name: fmt.Sprintf("down%d", r), Latency: base.Latency, PerWord: base.PerWord})
	}
	coreUp := make([]int, nSw)
	coreDown := make([]int, nSw)
	for s := 0; s < nSw; s++ {
		core := Link{Latency: base.Latency, PerWord: base.PerWord / time.Duration(g)}
		if hot != base {
			core = hot // an explicit override prices the spine verbatim
		}
		coreUp[s] = t.addLink(Link{Name: fmt.Sprintf("coreup%d", s), Latency: core.Latency, PerWord: core.PerWord})
		coreDown[s] = t.addLink(Link{Name: fmt.Sprintf("coredown%d", s), Latency: core.Latency, PerWord: core.PerWord})
	}
	sw := func(r int) int { return r / g }
	for from := 0; from < p; from++ {
		for to := 0; to < p; to++ {
			if from == to {
				continue
			}
			if sw(from) == sw(to) {
				t.routes[from][to] = []int{up[from], down[to]}
			} else {
				t.routes[from][to] = []int{up[from], coreUp[sw(from)], coreDown[sw(to)], down[to]}
			}
		}
	}
	return t
}
