// Command bench is the repository benchmark (see /BENCHMARK.json and
// README.md next to this file). It measures the system from outside:
// every number comes from timing calls into exported functions of
// repro/internal/... or from reading exported result fields.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one run, result on the last stdout line
//	bench all --seed N --seconds S --out FILE                every workload, untraced then traced, each in a child process
//	bench compare A.json B.json                              apply the bounds of BENCHMARK.json to two `all` documents
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	// One processor: the emulated ranks, the daemon's workers and the
	// client are goroutines, and with more of them than cores a second
	// processor adds the host's thread scheduling to every hand-off (on
	// the 2-core host compute_sweep is slower and twice as noisy with
	// two). Recorded in the result header.
	runtime.GOMAXPROCS(1)

	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "compare":
		err = compareMain(args[1:])
	case len(args) > 0 && args[0] == "all":
		err = allMain(args[1:])
	default:
		err = runMain(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runMain is the driver's entry: one workload, one pass, one process.
func runMain(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 12, "length of the measured window")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, 1: traced pass with the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := workloadByName(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (want one of %v)", *name, workloadNames())
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		return fmt.Errorf("want --seconds > 0, --trace 0|1 and no positional arguments")
	}
	doc, err := runWorkload(w, runOptions{seed: *seed, seconds: *seconds, traced: *traced == 1})
	if err != nil {
		return err
	}
	// The detail document (header, per-round values, floor series) goes
	// on its own line first; the contract line is last.
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return enc.Encode(doc.summary())
}
