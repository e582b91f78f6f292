// Package tables defines and runs the paper's experiments: Tables 3, 4
// and 5 (measured distribution/compression times for the SFC, CFS and ED
// schemes under the row, column and 2D mesh partitions) and the
// predicted counterparts of Tables 1 and 2. Output is formatted like the
// paper's tables: one group per processor count, two cost rows per
// scheme, one column per array size, times in milliseconds.
package tables

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cost"
	"repro/internal/costmodel"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// ProcSpec is one processor configuration of an experiment.
type ProcSpec struct {
	P      int
	Pr, Pc int    // mesh grid; zero for row/col partitions
	Label  string // printed label, e.g. "4" or "2x2"
}

// Experiment is one of the paper's measured tables.
type Experiment struct {
	Name   string // "Table 3"
	Title  string
	Kind   costmodel.PartitionKind
	Method dist.Method
	Sizes  []int // square array sizes n
	Procs  []ProcSpec
	Ratio  float64 // sparse ratio s
	Seed   int64
}

// Table3 is the paper's Table 3: row partition, CRS, s = 0.1,
// n ∈ {200, 400, 800, 1000, 2000}, p ∈ {4, 16, 32}.
func Table3() Experiment {
	return Experiment{
		Name:   "Table 3",
		Title:  "row partition method, CRS",
		Kind:   costmodel.RowPart,
		Method: dist.CRS,
		Sizes:  []int{200, 400, 800, 1000, 2000},
		Procs:  []ProcSpec{{P: 4, Label: "4"}, {P: 16, Label: "16"}, {P: 32, Label: "32"}},
		Ratio:  0.1,
		Seed:   1,
	}
}

// Table4 is the paper's Table 4: column partition, same grid.
func Table4() Experiment {
	e := Table3()
	e.Name = "Table 4"
	e.Title = "column partition method, CRS"
	e.Kind = costmodel.ColPart
	e.Seed = 2
	return e
}

// Table5 is the paper's Table 5: 2D mesh partition, CRS, s = 0.1,
// n ∈ {120, 240, 480, 960, 1920}, grids 2x2, 4x4, 6x6.
func Table5() Experiment {
	return Experiment{
		Name:   "Table 5",
		Title:  "2D mesh partition method, CRS",
		Kind:   costmodel.MeshPart,
		Method: dist.CRS,
		Sizes:  []int{120, 240, 480, 960, 1920},
		Procs: []ProcSpec{
			{P: 4, Pr: 2, Pc: 2, Label: "2x2"},
			{P: 16, Pr: 4, Pc: 4, Label: "4x4"},
			{P: 36, Pr: 6, Pc: 6, Label: "6x6"},
		},
		Ratio: 0.1,
		Seed:  3,
	}
}

// Experiments returns all measured experiments in paper order.
func Experiments() []Experiment {
	return []Experiment{Table3(), Table4(), Table5()}
}

// Scale returns a copy of the experiment with every array size divided
// by factor (minimum 8), for quick runs and unit tests.
func (e Experiment) Scale(factor int) Experiment {
	if factor <= 1 {
		return e
	}
	sizes := make([]int, len(e.Sizes))
	for i, n := range e.Sizes {
		s := n / factor
		if s < 8 {
			s = 8
		}
		sizes[i] = s
	}
	e.Sizes = sizes
	return e
}

// Cell is one measurement: the two phase times of one scheme at one
// (p, n) point.
type Cell struct {
	Dist, Comp time.Duration // virtual clock
	WallDist   time.Duration
	WallComp   time.Duration
}

// Group is the block of rows for one processor configuration.
type Group struct {
	Spec  ProcSpec
	Cells map[string][]Cell // scheme name -> per-size cells
}

// Result is a fully-run experiment.
type Result struct {
	Exp    Experiment
	Params cost.Params
	Groups []Group
}

// newPartition builds the experiment's partition for one configuration.
func (e Experiment) newPartition(n int, ps ProcSpec) (partition.Partition, error) {
	switch e.Kind {
	case costmodel.RowPart:
		return partition.NewRow(n, n, ps.P)
	case costmodel.ColPart:
		return partition.NewCol(n, n, ps.P)
	case costmodel.MeshPart:
		return partition.NewMesh(n, n, ps.Pr, ps.Pc)
	default:
		return nil, fmt.Errorf("tables: unknown partition kind %v", e.Kind)
	}
}

// Run executes the experiment on the channel transport and returns the
// measured table. Every (scheme, p, n) cell is one full distribution of
// a fresh sparse array with the experiment's sparse ratio.
func (e Experiment) Run(params cost.Params) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Exp: e, Params: params}
	for _, ps := range e.Procs {
		group := Group{Spec: ps, Cells: map[string][]Cell{}}
		for _, n := range e.Sizes {
			g := sparse.UniformExact(n, n, e.Ratio, e.Seed+int64(n)*31+int64(ps.P))
			part, err := e.newPartition(n, ps)
			if err != nil {
				return nil, err
			}
			for _, s := range dist.Schemes() {
				m, err := machine.New(ps.P, machine.WithRecvTimeout(60*time.Second))
				if err != nil {
					return nil, err
				}
				r, err := dist.Run(m, dist.Plan{Codec: s, Global: g, Partition: part, Options: dist.Options{Method: e.Method}})
				m.Close()
				if err != nil {
					return nil, fmt.Errorf("tables: %s %s p=%s n=%d: %w", e.Name, s.Name(), ps.Label, n, err)
				}
				bd := r.Breakdown
				group.Cells[s.Name()] = append(group.Cells[s.Name()], Cell{
					Dist:     bd.DistributionTime(params),
					Comp:     bd.CompressionTime(params),
					WallDist: bd.WallDistribution(),
					WallComp: bd.WallCompression(),
				})
			}
		}
		res.Groups = append(res.Groups, group)
	}
	return res, nil
}

// ms formats a duration as milliseconds with three decimals, like the
// paper's tables.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}

// Format renders the result in the paper's layout. If wall is true the
// wall-clock columns are shown instead of the virtual clock.
func (r *Result) Format(wall bool) string {
	var b strings.Builder
	clock := "virtual clock"
	if wall {
		clock = "wall clock"
	}
	fmt.Fprintf(&b, "%s: the data distribution and data compression time of the SFC, CFS and ED schemes (%s).\n", r.Exp.Name, r.Exp.Title)
	fmt.Fprintf(&b, "s = %g, %s, T_Startup=%v T_Data=%v T_Operation=%v\n",
		r.Exp.Ratio, clock, r.Params.TStartup, r.Params.TData, r.Params.TOperation)

	header := fmt.Sprintf("%-6s %-7s %-16s", "Procs", "Method", "Cost")
	for _, n := range r.Exp.Sizes {
		header += fmt.Sprintf(" %12s", fmt.Sprintf("%dx%d", n, n))
	}
	b.WriteString(header + "\n")
	b.WriteString(strings.Repeat("-", len(header)) + "\n")
	for _, gr := range r.Groups {
		for _, scheme := range []string{"SFC", "CFS", "ED"} {
			cells := gr.Cells[scheme]
			for row := 0; row < 2; row++ {
				label := "T_Distribution"
				if row == 1 {
					label = "T_Compression"
				}
				procLabel := ""
				if scheme == "SFC" && row == 0 {
					procLabel = gr.Spec.Label
				}
				fmt.Fprintf(&b, "%-6s %-7s %-16s", procLabel, scheme, label)
				for _, c := range cells {
					v := c.Dist
					if wall {
						v = c.WallDist
					}
					if row == 1 {
						v = c.Comp
						if wall {
							v = c.WallComp
						}
					}
					fmt.Fprintf(&b, " %12s", ms(v))
				}
				b.WriteByte('\n')
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("Time: ms\n")
	return b.String()
}

// RunN executes the experiment over several seeds and reports, per
// cell, the mean virtual times and the maximum relative deviation from
// the mean — quantifying how sensitive the tables are to the particular
// random array (the paper reports single runs).
func (e Experiment) RunN(params cost.Params, seeds []int64) (*Result, float64, error) {
	if len(seeds) == 0 {
		return nil, 0, fmt.Errorf("tables: RunN needs at least one seed")
	}
	var results []*Result
	for _, s := range seeds {
		ex := e
		ex.Seed = s
		r, err := ex.Run(params)
		if err != nil {
			return nil, 0, err
		}
		results = append(results, r)
	}
	mean := results[0]
	maxDev := 0.0
	for gi := range mean.Groups {
		for scheme, cells := range mean.Groups[gi].Cells {
			for ci := range cells {
				var sumD, sumC float64
				for _, r := range results {
					c := r.Groups[gi].Cells[scheme][ci]
					sumD += float64(c.Dist)
					sumC += float64(c.Comp)
				}
				mD := sumD / float64(len(results))
				mC := sumC / float64(len(results))
				for _, r := range results {
					c := r.Groups[gi].Cells[scheme][ci]
					if mD > 0 {
						if d := abs(float64(c.Dist)-mD) / mD; d > maxDev {
							maxDev = d
						}
					}
					if mC > 0 {
						if d := abs(float64(c.Comp)-mC) / mC; d > maxDev {
							maxDev = d
						}
					}
				}
				cells[ci].Dist = time.Duration(mD)
				cells[ci].Comp = time.Duration(mC)
			}
		}
	}
	return mean, maxDev, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// FormatCSV renders the result as CSV rows
// (table,procs,scheme,n,dist_ms,comp_ms,wall_dist_ms,wall_comp_ms) for
// external plotting.
func (r *Result) FormatCSV() string {
	var b strings.Builder
	b.WriteString("table,procs,scheme,n,dist_ms,comp_ms,wall_dist_ms,wall_comp_ms\n")
	for _, gr := range r.Groups {
		for _, scheme := range []string{"SFC", "CFS", "ED"} {
			for i, c := range gr.Cells[scheme] {
				fmt.Fprintf(&b, "%s,%s,%s,%d,%s,%s,%s,%s\n",
					r.Exp.Name, gr.Spec.Label, scheme, r.Exp.Sizes[i],
					ms(c.Dist), ms(c.Comp), ms(c.WallDist), ms(c.WallComp))
			}
		}
	}
	return b.String()
}

// PredictedTable evaluates the cost model over the same grid, producing
// the theoretical counterpart (Tables 1 and 2 instantiated): useful for
// comparing model vs measurement side by side.
func PredictedTable(e Experiment, params cost.Params) (*Result, error) {
	res := &Result{Exp: e, Params: params}
	for _, ps := range e.Procs {
		group := Group{Spec: ps, Cells: map[string][]Cell{}}
		for _, n := range e.Sizes {
			in := costmodel.Inputs{
				N: n, P: ps.P, Pr: ps.Pr, Pc: ps.Pc,
				S:    e.Ratio,
				Kind: e.Kind,
			}
			if e.Method == dist.CCS {
				in.Method = costmodel.CCS
			}
			for _, scheme := range []string{"SFC", "CFS", "ED"} {
				est, err := costmodel.Predict(scheme, in, params)
				if err != nil {
					return nil, err
				}
				group.Cells[scheme] = append(group.Cells[scheme], Cell{Dist: est.Distribution, Comp: est.Compression})
			}
		}
		res.Groups = append(res.Groups, group)
	}
	return res, nil
}
