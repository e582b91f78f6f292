// Command sparsedist distributes a sparse array over an emulated
// distributed-memory multicomputer with a chosen scheme, partition
// method and compression format, then prints the paper-style phase
// breakdown.
//
// Examples:
//
//	sparsedist -n 1000 -ratio 0.1 -scheme ED -partition row -procs 16
//	sparsedist -input matrix.txt -scheme CFS -partition mesh -mesh 2x2 -method CCS
//	sparsedist -n 500 -scheme SFC -transport tcp -procs 4
//	sparsedist -stream -input big.mtx -mem-budget 32M -partition balanced-row
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/simnet"
	"repro/internal/sparse"
	"repro/internal/spops"
)

func main() {
	// Plan flags bind straight to the core.Config they describe; an empty
	// string flag is an untyped one, which core's default table resolves
	// (and which, under -scheme auto, leaves the choice to the model).
	var cfg core.Config
	flag.StringVar(&cfg.Scheme, "scheme", "",
		"distribution scheme: SFC, CFS, ED (default ED), or auto (pick the predicted-fastest scheme, partition and method from the array's measured statistics with the cost model)")
	flag.StringVar(&cfg.Partition, "partition", "", "partition method: "+core.PartitionNames()+" (default row)")
	flag.IntVar(&cfg.Procs, "procs", 4, "number of processors")
	flag.IntVar(&cfg.BlockSize, "block", 1, "block size for the brs partition")
	flag.StringVar(&cfg.Method, "method", "", "compression method: "+dist.MethodNames()+" (default CRS)")
	flag.StringVar(&cfg.Transport, "transport", "", "message transport: chan or tcp (default chan)")
	flag.StringVar(&cfg.Topology, "topology", "",
		"network model topology: "+simnet.TopologyNames()+" (empty: no network model); records the run against a discrete-event simulator and prints the contention-aware timing section")
	flag.Float64Var(&cfg.LinkBW, "link-bw", 0,
		"bottleneck link bandwidth in payload words/s (0: the cost model's 1/T_Data); applies to the topology's bottleneck links")
	flag.DurationVar(&cfg.LinkLatency, "link-latency", 0,
		"bottleneck link per-message latency (0: the cost model's T_Startup)")
	flag.BoolVar(&cfg.Check, "check", false,
		"run the invariant checker during the run and the differential oracle after it (reassemble the global array from the distributed pieces and diff element-wise)")
	flag.IntVar(&cfg.Workers, "workers", 0,
		"root-side encode workers (0: one per CPU, 1: the paper's sequential root loop)")
	flag.IntVar(&cfg.Retries, "retries", 0,
		"retransmission budget per message; > 0 enables the reliable transport (seq numbers, checksums, ACK/retransmit)")
	flag.DurationVar(&cfg.RetryBackoff, "retry-backoff", 0,
		"initial ACK wait for the reliable transport, doubling per retry (0: library default 5ms)")
	flag.IntVar(&cfg.FaultDrops, "fault-drop", 0, "inject: drop the next N data messages on the wire")
	flag.IntVar(&cfg.FaultCorrupt, "fault-corrupt", 0, "inject: flip a random payload bit in the next N data messages")

	var cli cliFlags
	flag.IntVar(&cli.n, "n", 500, "square array size for synthetic input")
	flag.Float64Var(&cli.ratio, "ratio", 0.1, "sparse ratio s for synthetic input")
	flag.StringVar(&cli.input, "input", "",
		"read the array from a file instead of generating: text/Matrix-Market or Harwell-Boeing, sniffed; with or without -stream")
	flag.StringVar(&cli.batch, "batch", "",
		"comma-separated schemes (e.g. SFC,CFS,ED) each distributed in turn and compared in one table; overrides -scheme")
	flag.StringVar(&cli.op, "op", "",
		"run a distributed compute op on the finished distribution: spmv (halo-exchange y = A·x), jacobi (solve A·x = b; synthetic inputs are made diagonally dominant) or spgemm (row-fetch C = A·A)")
	flag.BoolVar(&cli.trace, "trace", false,
		"print the network model's per-rank activity chart on the virtual clock (deterministic); without -topology, records on the uniform topology")
	flag.BoolVar(&cli.stream, "stream", false,
		"out-of-core mode: stream the input in bounded chunks instead of materializing it; the root's memory stays within -mem-budget")
	var (
		seed       = flag.Int64("seed", 1, "random seed for synthetic input and for -op's operands (the daemon's job seed)")
		mesh       = flag.String("mesh", "", "mesh grid as RxC (e.g. 2x2); defaults to the most square grid")
		verify     = flag.Bool("verify", true, "verify the distributed result against direct compression")
		spy        = flag.Bool("spy", false, "print an ASCII spy plot of the array's sparsity pattern")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		memBudget  = flag.String("mem-budget", "32M",
			"streaming root memory budget for routing buffers (bytes, with optional K/M/G suffix)")
	)
	flag.Parse()

	if *mesh != "" {
		var err error
		if cfg.MeshRows, cfg.MeshCols, err = parseMesh(*mesh); err != nil {
			fatal(err)
		}
	}
	if err := validateFlags(cfg, cli); err != nil {
		fatal(err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle live objects before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	if cli.stream {
		if cli.batch != "" || *spy {
			fatal(fmt.Errorf("-stream is incompatible with -batch and -spy (both need the materialized array)"))
		}
		var err error
		if cfg.MemBudget, err = parseSize(*memBudget); err != nil {
			fatal(err)
		}
		if err := runStream(cfg, cli.input, cli.n, cli.ratio, *seed, *verify); err != nil {
			fatal(err)
		}
		return
	}

	g, err := loadArray(cli.input, cli.n, cli.ratio, *seed)
	if err != nil {
		fatal(err)
	}
	// Jacobi diverges on a random array, so a synthetic input is made
	// strictly diagonally dominant before distribution. File inputs are
	// the user's to shape — they pass through untouched.
	if cli.op == "jacobi" && cli.input == "" {
		sparse.MakeDiagDominant(g)
	}

	if cli.batch != "" {
		if err := runBatch(g, cfg, cli.batch, *verify, *spy); err != nil {
			fatal(err)
		}
		return
	}

	if cli.trace && cfg.Topology == "" {
		cfg.Topology = "uniform" // the chart is drawn from the network model's replay
	}
	d, err := core.Distribute(g, cfg)
	if err != nil {
		fatal(err)
	}
	defer d.Close()

	if *spy {
		fmt.Print(sparse.Spy(g, 64, 24))
		fmt.Println()
	}
	fmt.Print(d.Report())
	if cli.trace {
		fmt.Println()
		fmt.Print(d.NetTimeline().Gantt(64))
	}
	if *verify {
		if err := d.Verify(); err != nil {
			fatal(fmt.Errorf("verification FAILED: %w", err))
		}
		fmt.Println("verification: OK (all local compressed arrays match direct compression)")
	}
	if cfg.Check {
		if err := d.DiffCheck(); err != nil {
			fatal(fmt.Errorf("differential check FAILED: %w", err))
		}
		fmt.Println("differential check: OK (reassembled array matches the input element-wise)")
	}
	if cli.op != "" {
		if err := runOp(d, g, cli.op, *seed, *verify); err != nil {
			fatal(err)
		}
	}
}

// runOp runs the requested op on the finished distribution through
// spops.RunOp, on the daemon's operands for -seed, prints its traffic
// and, under -verify, checks the answer with core's sequential oracle.
func runOp(d *core.Distribution, g *sparse.Dense, op string, seed int64, verify bool) error {
	fmt.Println()
	pl, err := d.CommPlan()
	if err != nil {
		return fmt.Errorf("%s: %w", op, err)
	}
	vec, c, st, err := spops.RunOp(d.Machine(), pl, g, op, seed, 0)
	if err != nil {
		return fmt.Errorf("%s: %w", op, err)
	}
	fmt.Println("distributed " + core.OpStatsString(st))
	if c != nil {
		fmt.Printf("product: %dx%d with %d nonzeros\n", c.Rows, c.Cols, len(c.Val))
	}
	if op == "jacobi" && !st.Converged {
		fmt.Println("jacobi did NOT converge — the array is not diagonally dominant " +
			"(synthetic inputs are adjusted automatically; file inputs are not)")
	}
	if verify {
		if err := core.CheckOp(g, op, seed, vec, c); err != nil {
			return fmt.Errorf("%s oracle: %w", op, err)
		}
		fmt.Printf("op oracle: OK (distributed %s matches core's sequential oracle)\n", op)
	}
	return nil
}

// parseMesh parses a strict RxC grid: two positive integers joined by
// one 'x' (or 'X'), nothing else — `2x3junk` is an error, not a 2x3
// grid.
func parseMesh(s string) (rows, cols int, err error) {
	lo := strings.ToLower(s)
	i := strings.IndexByte(lo, 'x')
	if i < 0 || strings.IndexByte(lo[i+1:], 'x') >= 0 {
		return 0, 0, fmt.Errorf("bad -mesh %q: want RxC (e.g. 2x2)", s)
	}
	rows, err1 := strconv.Atoi(lo[:i])
	cols, err2 := strconv.Atoi(lo[i+1:])
	if err1 != nil || err2 != nil || rows < 1 || cols < 1 {
		return 0, 0, fmt.Errorf("bad -mesh %q: want RxC with positive integers", s)
	}
	return rows, cols, nil
}

// cliFlags carries the flag values that describe the run rather than
// the plan — everything validateFlags inspects beyond core.Config.
type cliFlags struct {
	n      int
	ratio  float64
	input  string
	batch  string
	stream bool
	trace  bool
	op     string
}

// validateFlags rejects bad flag values and combinations up front with
// one clear error each, instead of a downstream panic (-ratio out of
// range), a half-run batch (unknown
// -batch scheme), or a silently pinned auto plan (-scheme auto with an
// explicit -method). What a valid plan is comes from cfg.Validate, in
// its words; the rules here are the ones only the CLI knows: the input
// array, -procs (its default is 4, so 0 is a typo, not "unset"), the
// -batch list, and which flags this front door refuses to combine.
func validateFlags(cfg core.Config, f cliFlags) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if f.input == "" {
		if f.n < 0 {
			return fmt.Errorf("-n %d: array size cannot be negative", f.n)
		}
		if f.ratio < 0 || f.ratio > 1 {
			return fmt.Errorf("-ratio %g: sparse ratio must be in [0, 1]", f.ratio)
		}
	}
	if cfg.Procs < 1 {
		return fmt.Errorf("-procs %d: need at least one processor", cfg.Procs)
	}
	if f.batch != "" {
		for _, s := range strings.Split(f.batch, ",") {
			name := strings.TrimSpace(s)
			if core.IsAutoScheme(name) {
				// The batch table compares schemes under one pinned
				// partition/method; auto picks its own plan, which would
				// make the columns incomparable.
				return &core.ConflictError{
					Fields: "-batch with scheme auto",
					Reason: "the batch table compares schemes under one pinned plan, but auto picks its own; run -scheme auto separately",
				}
			}
			if _, err := dist.CodecByName(strings.ToUpper(name)); err != nil {
				return fmt.Errorf("-batch: %w", err)
			}
		}
	}
	if core.IsAutoScheme(cfg.Scheme) {
		if cfg.Method != "" {
			return &core.ConflictError{
				Fields: "-scheme auto with -method",
				Reason: "auto picks the compression method from the array's statistics; drop -method or pick the scheme explicitly",
			}
		}
		if f.stream {
			return &core.ConflictError{
				Fields: "-scheme auto with -stream",
				Reason: "plan selection needs full array statistics, which a streamed run never materializes; pick a scheme explicitly",
			}
		}
	}
	if f.trace && f.stream {
		return &core.ConflictError{
			Fields: "-trace with -stream",
			Reason: "the chart draws the network model's replay of the paper's messages, which a streamed run does not send; drop -trace or -stream",
		}
	}
	if f.trace && f.batch != "" {
		return &core.ConflictError{
			Fields: "-trace with -batch",
			Reason: "the chart draws one distribution's replay, but the batch table compares several; drop -trace or -batch",
		}
	}
	if !spops.ValidOp(f.op) {
		return fmt.Errorf("-op %q: want %s", f.op, spops.OpNames())
	}
	if f.op != "" {
		if f.stream {
			return &core.ConflictError{
				Fields: "-op with -stream",
				Reason: "the compute ops run on a materialized distribution; drop -stream",
			}
		}
		if f.batch != "" {
			return &core.ConflictError{
				Fields: "-op with -batch",
				Reason: "the compute ops run on one distribution, not a scheme comparison; drop -batch",
			}
		}
	}
	return nil
}

// runBatch distributes the array under every scheme in the -batch list,
// one after the other, each on a machine of its own, and prints a
// comparison table.
func runBatch(g *sparse.Dense, cfg core.Config, batch string, verify, spy bool) error {
	var ds []*core.Distribution
	for _, s := range strings.Split(batch, ",") {
		c := cfg
		c.Scheme = strings.TrimSpace(s)
		d, err := core.Distribute(g, c)
		if err != nil {
			return err
		}
		d.Close() // the local arrays outlive the machine
		ds = append(ds, d)
	}

	if spy {
		fmt.Print(sparse.Spy(g, 64, 24))
		fmt.Println()
	}
	fmt.Printf("%d distributions of one array (p = %d):\n\n", len(ds), ds[0].Partition.NumParts())
	fmt.Printf("%-8s %14s %14s %14s\n", "scheme", "T_dist", "T_comp", "T_total")
	for _, d := range ds {
		bd := d.Result.Breakdown
		fmt.Printf("%-8s %14v %14v %14v\n", d.Result.Scheme,
			d.DistributionTime(), d.CompressionTime(), bd.TotalTime(d.Params))
	}
	if verify {
		for _, d := range ds {
			if err := d.Verify(); err != nil {
				return fmt.Errorf("%s verification FAILED: %w", d.Result.Scheme, err)
			}
		}
		fmt.Println("\nverification: OK (every scheme's local arrays match direct compression)")
	}
	if cfg.Check {
		for _, d := range ds {
			if err := d.DiffCheck(); err != nil {
				return fmt.Errorf("%s differential check FAILED: %w", d.Result.Scheme, err)
			}
		}
		fmt.Println("differential check: OK (every scheme reassembles to the input element-wise)")
	}
	return nil
}

// openSource builds the chunked source for a streamed run: a file in
// any supported on-disk format, or the synthetic generator with the
// same nonzero count UniformExact would produce.
func openSource(path string, n int, ratio float64, seed int64) (sparse.ChunkReader, func() error, error) {
	if path == "" {
		want := int(ratio*float64(n)*float64(n) + 0.5)
		return sparse.NewUniformStream(n, n, want, seed, sparse.DefaultChunkEntries), func() error { return nil }, nil
	}
	src, closer, err := sparse.OpenStream(path, sparse.DefaultChunkEntries)
	if err != nil {
		return nil, nil, fmt.Errorf("opening %s: %w", path, err)
	}
	return src, closer.Close, nil
}

// runStream is the out-of-core path: distribute straight from the
// chunked source. -verify and -check need a dense oracle, so they
// re-open the source and materialize it *after* the distribution —
// opt-in memory spent on checking, not on distributing.
func runStream(cfg core.Config, input string, n int, ratio float64, seed int64, verify bool) error {
	src, closeSrc, err := openSource(input, n, ratio, seed)
	if err != nil {
		return err
	}
	d, err := core.DistributeStream(src, cfg)
	if cerr := closeSrc(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	defer d.Close()
	fmt.Print(d.Report())
	if !verify && !cfg.Check {
		return nil
	}
	oracleSrc, closeOracle, err := openSource(input, n, ratio, seed)
	if err != nil {
		return err
	}
	defer closeOracle()
	g, err := sparse.Materialize(oracleSrc)
	if err != nil {
		return fmt.Errorf("materializing verification oracle: %w", err)
	}
	if verify {
		if err := d.VerifyAgainst(g); err != nil {
			return fmt.Errorf("verification FAILED: %w", err)
		}
		fmt.Println("verification: OK (all local compressed arrays match direct compression)")
	}
	if cfg.Check {
		if err := d.DiffCheckAgainst(g); err != nil {
			return fmt.Errorf("differential check FAILED: %w", err)
		}
		fmt.Println("differential check: OK (reassembled array matches the input element-wise)")
	}
	return nil
}

// parseSize parses a byte count with an optional K/M/G suffix.
func parseSize(s string) (int, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	mult := 1
	switch {
	case strings.HasSuffix(t, "G"):
		mult, t = 1<<30, t[:len(t)-1]
	case strings.HasSuffix(t, "M"):
		mult, t = 1<<20, t[:len(t)-1]
	case strings.HasSuffix(t, "K"):
		mult, t = 1<<10, t[:len(t)-1]
	}
	v, err := strconv.Atoi(t)
	if err != nil || v < 0 || v > math.MaxInt/mult {
		return 0, fmt.Errorf("bad size %q: want bytes with optional K/M/G suffix (e.g. 32M)", s)
	}
	return v * mult, nil
}

// loadArray materializes the input of a non-streamed run. A file goes
// through the same sniffing stream parsers as -stream, so both modes
// accept and reject the same files.
func loadArray(path string, n int, ratio float64, seed int64) (*sparse.Dense, error) {
	if path == "" {
		return sparse.UniformExact(n, n, ratio, seed), nil
	}
	src, closeSrc, err := openSource(path, n, ratio, seed)
	if err != nil {
		return nil, err
	}
	defer closeSrc()
	g, err := sparse.Materialize(src)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return g, nil
}

// exit ends the process; tests that run main in-process replace it.
var exit = os.Exit

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sparsedist:", err)
	exit(1)
}
