// Command costmodel evaluates the paper's theoretical analysis (§4):
// it prints the predicted distribution and compression times of the
// SFC, CFS and ED schemes for a given configuration, the Remark 2/5
// crossover thresholds on T_Data/T_Operation, and a sweep showing where
// each scheme wins as the machine's T_Data/T_Operation ratio varies.
//
// Example:
//
//	costmodel -n 1000 -p 16 -s 0.1 -partition row
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cost"
	"repro/internal/costmodel"
	"repro/internal/partition"
	"repro/internal/simnet"
)

func main() {
	var (
		n        = flag.Int("n", 1000, "square array size")
		p        = flag.Int("p", 16, "processor count")
		s        = flag.Float64("s", 0.1, "sparse ratio")
		kindStr  = flag.String("partition", "row", "partition method: row, col or mesh")
		method   = flag.String("method", "CRS", "compression method: CRS or CCS")
		formulas = flag.Bool("formulas", false, "print the paper's symbolic Table 1/2 and exit")
		topology = flag.String("topology", "",
			"also replay the schemes over a network topology ("+simnet.TopologyNames()+") and report whether the Remarks survive contention")
		linkBW = flag.Float64("link-bw", 0,
			"bottleneck link bandwidth in payload words/s (0: the cost model's 1/T_Data)")
		linkLatency = flag.Duration("link-latency", 0,
			"bottleneck link per-message latency (0: the cost model's T_Startup)")
	)
	flag.Parse()

	if *formulas {
		m := costmodel.CRS
		if *method == "CCS" {
			m = costmodel.CCS
		}
		fmt.Print(costmodel.Formulas(m))
		return
	}

	kind, err := parseKind(*kindStr)
	if err != nil {
		fatal(err)
	}
	in := costmodel.Inputs{N: *n, P: *p, S: *s, Kind: kind}
	if kind == costmodel.MeshPart {
		in.Pr, in.Pc = partition.SquareGrid(*p)
	}
	if *method == "CCS" {
		in.Method = costmodel.CCS
	} else if *method != "CRS" {
		fatal(fmt.Errorf("unknown method %q", *method))
	}

	params := cost.DefaultParams
	fmt.Printf("Cost model: n=%d p=%d s=%g partition=%s method=%s\n", *n, *p, *s, kind, in.Method)
	fmt.Printf("Unit costs: T_Startup=%v T_Data=%v T_Operation=%v (T_Data/T_Op = %.2f)\n\n",
		params.TStartup, params.TData, params.TOperation, params.DataOpRatio())

	best, all, err := costmodel.BestScheme(in, params)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-6s %16s %16s %16s\n", "Scheme", "T_Distribution", "T_Compression", "Total")
	for _, name := range []string{"SFC", "CFS", "ED"} {
		e := all[name]
		marker := "  "
		if name == best {
			marker = "<-- best"
		}
		fmt.Printf("%-6s %16s %16s %16s %s\n", name, ms(e.Distribution), ms(e.Compression), ms(e.Total()), marker)
	}

	fmt.Println("\nCrossover thresholds on T_Data/T_Operation (paper Remarks 2 and 5):")
	if th, err := costmodel.Remark2Threshold(*s); err == nil {
		fmt.Printf("  CFS beats SFC on distribution when ratio > %.4f\n", th)
	}
	if th, err := costmodel.Remark5EDThreshold(*s, kind); err == nil {
		fmt.Printf("  ED  beats SFC overall      when ratio > %.4f\n", th)
	}
	if th, err := costmodel.Remark5CFSThreshold(*s, kind); err == nil {
		fmt.Printf("  CFS beats SFC overall      when ratio > %.4f\n", th)
	}

	fmt.Println("\nCrossover sparse ratios at this machine's ratio (scheme beats SFC overall below s*):")
	fmt.Printf("  ED:  s* = %.4f\n", costmodel.EDCrossoverS(params.DataOpRatio(), kind))
	fmt.Printf("  CFS: s* = %.4f\n", costmodel.CFSCrossoverS(params.DataOpRatio(), kind))

	fmt.Println("\nWinner sweep over T_Data/T_Operation:")
	for _, ratio := range []float64{0.25, 0.5, 0.75, 1.0, 1.2, 1.5, 2.0, 3.0} {
		sweep := cost.Params{
			TStartup:   params.TStartup,
			TData:      time.Duration(ratio * float64(params.TOperation)),
			TOperation: params.TOperation,
		}
		winner, _, err := costmodel.BestScheme(in, sweep)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  ratio %.2f -> %s\n", ratio, winner)
	}

	if *topology != "" {
		if err := printTopologyRemarks(in, params, *topology, *linkBW, *linkLatency, best); err != nil {
			fatal(err)
		}
	}
}

// printTopologyRemarks replays the three schemes' predicted workloads
// over a network topology and reports the contention-aware estimates
// side by side with the flat predictions — the tool for finding regimes
// where a paper Remark flips once links can saturate.
func printTopologyRemarks(in costmodel.Inputs, params cost.Params, topology string, linkBW float64, linkLatency time.Duration, flatBest string) error {
	top, err := simnet.Build(topology, in.P, params, linkBW, linkLatency)
	if err != nil {
		return err
	}
	tr, err := costmodel.RemarksUnder(top, in, params)
	if err != nil {
		return err
	}
	fmt.Printf("\nUnder the %s topology (p=%d", tr.Topology, tr.P)
	if linkBW > 0 {
		fmt.Printf(", link-bw %g words/s", linkBW)
	}
	if linkLatency > 0 {
		fmt.Printf(", link-latency %v", linkLatency)
	}
	fmt.Println("):")
	fmt.Printf("%-6s %16s %16s %16s %14s\n", "Scheme", "T_Distribution", "T_Compression", "Total", "Queued")
	for _, name := range []string{"SFC", "CFS", "ED"} {
		e := tr.Estimates[name]
		marker := "  "
		if name == tr.Best {
			marker = "<-- best"
		}
		fmt.Printf("%-6s %16s %16s %16s %14s %s\n", name, ms(e.Distribution), ms(e.Compression), ms(e.Total()), ms(e.Queued), marker)
	}
	if tr.Best != flatBest {
		fmt.Printf("\ncontention flips the winner: flat model picked %s, %s picks %s\n", flatBest, tr.Topology, tr.Best)
	} else {
		fmt.Printf("\nwinner unchanged by contention (%s)\n", tr.Best)
	}
	fmt.Printf("Remark 1 (dist: SFC < CFS,ED): %v   Remark 2 (CFS dist beats SFC): %v\n", tr.Remark1, tr.Remark2)
	fmt.Printf("Remark 5 (overall: ED beats SFC): %v   (CFS beats SFC): %v\n", tr.Remark5ED, tr.Remark5CFS)
	return nil
}

func parseKind(s string) (costmodel.PartitionKind, error) {
	switch s {
	case "row":
		return costmodel.RowPart, nil
	case "col":
		return costmodel.ColPart, nil
	case "mesh":
		return costmodel.MeshPart, nil
	default:
		return 0, fmt.Errorf("unknown partition %q (want row, col or mesh)", s)
	}
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f ms", float64(d)/float64(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "costmodel:", err)
	os.Exit(1)
}
