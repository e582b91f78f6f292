// Command calibrate estimates the machine model's unit costs for this
// host by timing the real primitives — the procedure the paper used to
// estimate its SP2's T_Data ≈ 1.2·T_Operation — and prints a
// ready-to-use parameter set plus the scheme crossovers it implies.
// The wire is fitted over localhost TCP: the in-process channel
// transport hands over slices without copying them, so its per-word
// time is zero and would fit nothing.
//
//	calibrate            # T_Startup, T_Data, T_Operation over TCP
//	calibrate -link      # also fit a simnet link (latency/bandwidth)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/calibrate"
	"repro/internal/cost"
	"repro/internal/costmodel"
	"repro/internal/machine"
)

func main() {
	link := flag.Bool("link", false, "also fit a simnet link from the wire microbenchmark and print the -link-bw/-link-latency overrides it implies")
	flag.Parse()

	factory := func(p int) (machine.Transport, error) { return machine.NewTCPTransport(p) }

	cal, err := calibrate.Host(factory)
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
	params := cal.Params()
	fmt.Printf("host calibration over the tcp transport (wire fit R² = %.4f):\n", cal.Wire.R2)
	fmt.Printf("  T_Startup   = %v\n", params.TStartup)
	fmt.Printf("  T_Data      = %.3gns per element (virtual clock: %v)\n", max(cal.Wire.Slope, 0), params.TData)
	fmt.Printf("  T_Operation = %.3gns per element op (virtual clock: %v)\n", cal.OpNs, params.TOperation)
	fmt.Printf("  T_Data/T_Operation = %.3f (paper's SP2 estimate: 1.2)\n\n", cal.Ratio())

	fmt.Println("implied overall winners at s = 0.1 (cost model):")
	for _, kind := range []costmodel.PartitionKind{costmodel.RowPart, costmodel.ColPart, costmodel.MeshPart} {
		in := costmodel.Inputs{N: 1000, P: 16, S: 0.1, Kind: kind}
		if kind == costmodel.MeshPart {
			in.Pr, in.Pc = 4, 4
		}
		best, _, err := costmodel.BestScheme(in, params)
		if err != nil {
			fmt.Fprintln(os.Stderr, "calibrate:", err)
			os.Exit(1)
		}
		fmt.Printf("  %-5s partition -> %s\n", kind, best)
	}
	fmt.Println("\ncompare with the library default:")
	d := cost.DefaultParams
	fmt.Printf("  default: T_Startup=%v T_Data=%v T_Operation=%v (ratio %.2f)\n",
		d.TStartup, d.TData, d.TOperation, d.DataOpRatio())

	if *link {
		l, lfit, err := calibrate.LinkFit(factory, []int{0, 1024, 4096, 16384, 65536}, 10)
		if err != nil {
			fmt.Fprintln(os.Stderr, "calibrate:", err)
			os.Exit(1)
		}
		fmt.Printf("\nfitted simnet link over the tcp transport (R² = %.4f):\n", lfit.R2)
		fmt.Printf("  latency  = %v per message\n", l.Latency)
		perWord := max(lfit.Slope, 0)
		fmt.Printf("  per-word = %.3gns", perWord)
		if perWord > 0 {
			fmt.Printf("  (bandwidth ~%.3g words/s)", float64(time.Second)/perWord)
		}
		fmt.Println()
		fmt.Printf("  use with: -topology star -link-latency %v", l.Latency)
		if perWord > 0 {
			fmt.Printf(" -link-bw %.0f", float64(time.Second)/perWord)
		}
		fmt.Println()
	}
}
