package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/sparse"
)

func TestParseMesh(t *testing.T) {
	good := []struct {
		in         string
		rows, cols int
	}{
		{"2x2", 2, 2},
		{"1x8", 1, 8},
		{"4X3", 4, 3},
	}
	for _, tc := range good {
		r, c, err := parseMesh(tc.in)
		if err != nil || r != tc.rows || c != tc.cols {
			t.Errorf("parseMesh(%q) = %d, %d, %v; want %d, %d", tc.in, r, c, err, tc.rows, tc.cols)
		}
	}
	bad := []string{"", "2", "x", "2x", "x3", "2x3junk", "junk2x3", "2x3x4", "0x2", "2x0", "-1x2", "2.5x2", "2 x 2"}
	for _, in := range bad {
		if _, _, err := parseMesh(in); err == nil {
			t.Errorf("parseMesh(%q) accepted malformed grid", in)
		}
	}
}

func TestParseSize(t *testing.T) {
	good := []struct {
		in   string
		want int
	}{
		{"0", 0},
		{"4096", 4096},
		{"8K", 8 << 10},
		{"32M", 32 << 20},
		{"2g", 2 << 30},
		{" 16m ", 16 << 20},
	}
	for _, tc := range good {
		got, err := parseSize(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	// The last two overflow the multiplication: 2^34 G wraps to 0, which
	// core reads as "unset", and 2^33 G wraps negative.
	for _, in := range []string{"", "M", "-1", "-4K", "3.5M", "12Q", "K8", "17179869184G", "8589934592G"} {
		if _, err := parseSize(in); err == nil {
			t.Errorf("parseSize(%q) accepted malformed size", in)
		}
	}
}

// TestLoadArrayFormats: one array written in each on-disk format loads
// to the same dense array through the plain -input door (loadArray)
// and the -stream door (openSource + Materialize).
func TestLoadArrayFormats(t *testing.T) {
	c := sparse.NewCOO(6, 5)
	for k, e := range [][2]int{{0, 0}, {0, 4}, {2, 1}, {3, 3}, {5, 0}, {5, 4}} {
		c.Add(e[0], e[1], float64(k)+0.5) // exact in Harwell-Boeing's E20.12
	}
	want := c.ToDense()
	writers := map[string]func(io.Writer) error{
		"text": func(w io.Writer) error { return sparse.WriteText(w, c) },
		"hb":   func(w io.Writer) error { return sparse.WriteHB(w, c, "load test", "LOAD") },
	}
	for name, write := range writers {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := write(f); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := loadArray(path, 0, 0, 0)
			if err != nil {
				t.Fatalf("loadArray: %v", err)
			}
			if !got.Equal(want) {
				t.Error("loadArray changed the array")
			}
			src, closeSrc, err := openSource(path, 0, 0, 0)
			if err != nil {
				t.Fatalf("openSource: %v", err)
			}
			defer closeSrc()
			streamed, err := sparse.Materialize(src)
			if err != nil {
				t.Fatal(err)
			}
			if !streamed.Equal(want) {
				t.Error("openSource + Materialize changed the array")
			}
		})
	}
}

func TestValidateFlags(t *testing.T) {
	// Each case applies overrides to a baseline of the flag defaults.
	// Plan rules live in core.Config.Validate (internal/core
	// TestConfigValidate is their table); the rows here pin that the CLI
	// reaches them, plus every rule only the CLI knows.
	type flags struct {
		cfg core.Config
		cliFlags
		wantErrSub   string
		wantConflict bool
	}
	base := flags{cfg: core.Config{Procs: 4, BlockSize: 1}, cliFlags: cliFlags{n: 500, ratio: 0.1}}
	cases := []struct {
		name string
		mod  func(*flags)
	}{
		{"defaults", func(f *flags) {}},
		{"negative-n", func(f *flags) { f.n = -1; f.wantErrSub = "-n" }},
		{"ratio-above-one", func(f *flags) { f.ratio = 1.5; f.wantErrSub = "-ratio" }},
		{"ratio-negative", func(f *flags) { f.ratio = -0.1; f.wantErrSub = "-ratio" }},
		{"ratio-ignored-with-input", func(f *flags) { f.ratio = 9; f.input = "m.txt" }},
		{"zero-procs", func(f *flags) { f.cfg.Procs = 0; f.wantErrSub = "-procs" }},
		{"negative-procs", func(f *flags) { f.cfg.Procs = -3; f.wantErrSub = "procs -3" }},
		{"batch-ok", func(f *flags) { f.batch = "SFC, cfs,ED" }},
		{"batch-unknown", func(f *flags) { f.batch = "SFC,BOGUS"; f.wantErrSub = "-batch" }},
		{"batch-empty-entry", func(f *flags) { f.batch = "SFC,,ED"; f.wantErrSub = "-batch" }},
		{"topology-ok", func(f *flags) {
			f.cfg.Topology = "star"
			f.cfg.LinkBW = 1e6
			f.cfg.LinkLatency = time.Millisecond
		}},
		{"topology-unknown", func(f *flags) { f.cfg.Topology = "hypercube"; f.wantErrSub = "topology" }},
		{"link-bw-negative", func(f *flags) { f.cfg.Topology = "bus"; f.cfg.LinkBW = -1; f.wantErrSub = "link-bw" }},
		{"link-bw-nan", func(f *flags) { f.cfg.Topology = "bus"; f.cfg.LinkBW = math.NaN(); f.wantErrSub = "link-bw" }},
		{"link-bw-inf", func(f *flags) { f.cfg.Topology = "bus"; f.cfg.LinkBW = math.Inf(1); f.wantErrSub = "link-bw" }},
		{"link-latency-negative", func(f *flags) {
			f.cfg.Topology = "mesh"
			f.cfg.LinkLatency = -time.Second
			f.wantErrSub = "link-latency"
		}},
		{"link-overrides-without-topology", func(f *flags) {
			f.cfg.LinkBW = 1e6
			f.wantErrSub = "topology"
			f.wantConflict = true
		}},
		{"partition-bad-descriptor", func(f *flags) { f.cfg.Partition = "(Bogus,*)"; f.wantErrSub = "partition" }},
		{"workers-negative", func(f *flags) { f.cfg.Workers = -3; f.wantErrSub = "workers -3" }},
		{"retries-negative", func(f *flags) { f.cfg.Retries = -2; f.wantErrSub = "retries -2" }},
		{"auto-ok", func(f *flags) { f.cfg.Scheme = "auto" }},
		{"auto-uppercase-ok", func(f *flags) { f.cfg.Scheme = "AUTO" }},
		{"auto-with-explicit-method", func(f *flags) {
			f.cfg.Scheme = "auto"
			f.cfg.Method = "CCS"
			f.wantErrSub = "-method"
			f.wantConflict = true
		}},
		{"auto-with-stream", func(f *flags) {
			f.cfg.Scheme = "auto"
			f.stream = true
			f.wantErrSub = "-stream"
			f.wantConflict = true
		}},
		{"explicit-method-without-auto", func(f *flags) { f.cfg.Method = "JDS" }},
		{"stream-without-auto", func(f *flags) { f.stream = true }},
		{"batch-auto-entry", func(f *flags) {
			f.batch = "SFC,auto"
			f.wantErrSub = "-batch"
			f.wantConflict = true
		}},
		{"batch-overrides-auto-scheme", func(f *flags) { f.cfg.Scheme = "auto"; f.batch = "SFC,ED" }},
		{"trace-ok", func(f *flags) { f.trace = true }},
		{"trace-with-stream", func(f *flags) {
			f.trace = true
			f.stream = true
			f.wantErrSub = "-trace with -stream"
			f.wantConflict = true
		}},
		{"op-ok", func(f *flags) { f.op = "spmv" }},
		{"op-unknown", func(f *flags) { f.op = "qr"; f.wantErrSub = "-op" }},
		{"op-with-stream", func(f *flags) {
			f.op = "jacobi"
			f.stream = true
			f.wantErrSub = "-stream"
			f.wantConflict = true
		}},
		{"op-with-batch", func(f *flags) {
			f.op = "spgemm"
			f.batch = "SFC,ED"
			f.wantErrSub = "-batch"
			f.wantConflict = true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := base
			tc.mod(&f)
			err := validateFlags(f.cfg, f.cliFlags)
			// The doors agree: whatever core rejects, the CLI rejects in
			// core's words.
			if verr := f.cfg.Validate(); verr != nil && (err == nil || err.Error() != verr.Error()) {
				t.Fatalf("core rejects the config with %q, the CLI answers %v", verr, err)
			}
			if f.wantErrSub == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", f.wantErrSub)
			}
			if !strings.Contains(err.Error(), f.wantErrSub) {
				t.Fatalf("error %q does not mention %q", err, f.wantErrSub)
			}
			var conflict *core.ConflictError
			if got := errors.As(err, &conflict); got != f.wantConflict {
				t.Fatalf("errors.As(ConflictError) = %v, want %v (err %q)", got, f.wantConflict, err)
			}
		})
	}
}

// TestStreamWithTopologyIsAConflict: a streamed run sends frames,
// credits and finalizes, not the paper's messages, and mirrors none of
// its compute, so a network replay of it is not the distribution.
// core.DistributeStream refuses the pairing with a *ConflictError, so
// the command exits 1 in core's words, naming both settings, before
// anything is distributed.
func TestStreamWithTopologyIsAConflict(t *testing.T) {
	code, stdout, stderr := runMain(t, "-stream", "-n", "200", "-procs", "4", "-topology", "mesh")
	if code != 1 || stdout != "" || !strings.Contains(stderr, "stream") || !strings.Contains(stderr, "topology") {
		t.Fatalf("exit status %d, stdout %q, stderr %q; want 1, nothing distributed and an error naming stream and topology", code, stdout, stderr)
	}
	err := runStream(core.Config{Procs: 4, Topology: "mesh"}, "", 200, 0.1, 1, true)
	var conflict *core.ConflictError
	if !errors.As(err, &conflict) {
		t.Errorf("runStream with a topology = %v, want *core.ConflictError", err)
	}
}

// TestTraceDrawsTheNetworkModel: -trace without -topology records on
// the uniform topology and prints the network model's chart after the
// report, on the virtual clock, so two identical runs print the same
// bytes from the network section on.
func TestTraceDrawsTheNetworkModel(t *testing.T) {
	var sections [2]string
	for i := range sections {
		code, stdout, stderr := runMain(t, "-n", "80", "-procs", "3", "-trace")
		if code != 0 {
			t.Fatalf("exit status %d: %s", code, stderr)
		}
		at := strings.Index(stdout, "network model: topology=uniform p=3\n")
		if at < 0 || !strings.Contains(stdout[at:], "time ->") || !strings.Contains(stdout[at:], "\nP2   ") {
			t.Fatalf("want a uniform network section followed by a 3-rank chart:\n%s", stdout)
		}
		sections[i] = stdout[at:strings.Index(stdout, "verification:")]
	}
	if sections[0] != sections[1] {
		t.Errorf("two identical runs drew different charts:\n%s\nvs\n%s", sections[0], sections[1])
	}
}

// exited is what the exit hook panics with while runMain runs main.
type exited struct{ code int }

// runMain runs main in-process with the given arguments and returns its
// exit status with what it wrote to stdout and stderr. A panic other
// than the exit hook's fails the test: the process would have died.
func runMain(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	oldArgs, oldFlags, oldStdout, oldStderr, oldExit := os.Args, flag.CommandLine, os.Stdout, os.Stderr, exit
	defer func() {
		os.Args, flag.CommandLine, os.Stdout, os.Stderr, exit = oldArgs, oldFlags, oldStdout, oldStderr, oldExit
	}()
	dir := t.TempDir()
	files := [2]*os.File{}
	for i, name := range []string{"stdout", "stderr"} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		files[i] = f
	}
	os.Args = append([]string{"sparsedist"}, args...)
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	os.Stdout, os.Stderr = files[0], files[1]
	exit = func(code int) { panic(exited{code}) }
	var crash any
	func() {
		defer func() {
			if r := recover(); r != nil {
				if e, ok := r.(exited); ok {
					code = e.code
				} else {
					crash = r
				}
			}
		}()
		main()
	}()
	os.Stdout, os.Stderr = oldStdout, oldStderr
	if crash != nil {
		t.Fatalf("sparsedist %s panicked: %v", strings.Join(args, " "), crash)
	}
	out, _ := os.ReadFile(files[0].Name())
	errOut, _ := os.ReadFile(files[1].Name())
	return code, string(out), string(errOut)
}

// TestBatchMatchesSoloRuns runs -batch over the three schemes with
// -verify and -check on: every row's T_dist and T_comp must equal a
// solo core.Distribute of that scheme on the same array, so a batch
// charges each scheme exactly its own plan's costs.
func TestBatchMatchesSoloRuns(t *testing.T) {
	code, report, stderr := runMain(t, "-n", "120", "-ratio", "0.1", "-seed", "3", "-batch", "SFC,CFS,ED", "-verify", "-check")
	if code != 0 {
		t.Fatalf("exit status %d: %s", code, stderr)
	}
	for _, want := range []string{"verification: OK", "differential check: OK"} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	g, err := loadArray("", 120, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(report, "\n") {
		if f := strings.Fields(line); len(f) == 4 {
			rows[f[0]] = f[1:3]
		}
	}
	for _, scheme := range []string{"SFC", "CFS", "ED"} {
		d, err := core.Distribute(g, core.Config{Scheme: scheme, Procs: 4, Check: true})
		if err != nil {
			t.Fatal(err)
		}
		d.Close()
		want := []string{d.DistributionTime().String(), d.CompressionTime().String()}
		if got := rows[scheme]; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("%s: batch row T_dist, T_comp = %v, solo run %v\n%s", scheme, got, want, report)
		}
	}
}

// TestHostileBlockSizeExitsZero runs the command line that used to end
// the process: a brs block of 2^62 made the block-cyclic stride wrap to
// zero for four parts, and the ownership map grew until the runtime
// died. A block wider than the array is one block, so the run
// distributes and verifies.
func TestHostileBlockSizeExitsZero(t *testing.T) {
	code, report, stderr := runMain(t, "-n", "10", "-procs", "4", "-partition", "brs", "-block", "4611686018427387904", "-verify")
	if code != 0 {
		t.Fatalf("exit status %d: %s", code, stderr)
	}
	for _, want := range []string{"brs-b4611686018427387904", "verification: OK"} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
}

// TestInputHostileHeaderIsAnError: the plain -input door on a two-line
// Matrix-Market file that declares 2^62 rows used to panic in makeslice
// inside sparse.NewDense. It must exit 1 with an error naming the shape.
func TestInputHostileHeaderIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hostile.mtx")
	header := "%%MatrixMarket matrix coordinate real general\n4611686018427387904 1 0\n"
	if err := os.WriteFile(path, []byte(header), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runMain(t, "-input", path, "-procs", "4")
	if code != 1 || !strings.Contains(stderr, "4611686018427387904x1") {
		t.Fatalf("exit status %d, stderr %q; want 1 and an error naming the 2^62x1 shape", code, stderr)
	}
}

// TestStreamHostileHeaderIsAnError: a two-line Matrix-Market file that
// declares 2^62 rows used to panic in makeslice inside the locator on
// the -stream door. The partition constructors now refuse a dimension
// the owner tables cannot index, so the door returns an error naming it.
func TestStreamHostileHeaderIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hostile.mtx")
	header := "%%MatrixMarket matrix coordinate real general\n4611686018427387904 1 0\n"
	if err := os.WriteFile(path, []byte(header), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runStream(core.Config{Procs: 4, MemBudget: 1 << 20}, path, 0, 0, 0, true)
	if err == nil || !strings.Contains(err.Error(), "rows 4611686018427387904") {
		t.Fatalf("runStream = %v, want an error naming the 2^62 rows", err)
	}
}

// TestStreamWideHeaderIsAnError: a header of 2^31-1 rows fits the
// int32 owner tables, yet the row partition's maps alone asked for a
// 16 GiB block and the -stream door died in a fatal out of memory,
// which no recover contains. sparse.CheckIndexSpan bounds the shape
// before any map is built, so the command exits 1 naming it.
func TestStreamWideHeaderIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wide.mtx")
	header := "%%MatrixMarket matrix coordinate real general\n2147483647 1000 0\n"
	if err := os.WriteFile(path, []byte(header), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, partition := range []string{"row", "balanced-row"} {
		code, _, stderr := runMain(t, "-stream", "-input", path, "-procs", "4", "-partition", partition)
		if code != 1 || !strings.Contains(stderr, "2147483647x1000") {
			t.Fatalf("-partition %s: exit status %d, stderr %q; want 1 and an error naming the 2147483647x1000 shape", partition, code, stderr)
		}
	}
}

// TestCLIAndDaemonRunOpsAlike runs each op through both front doors
// with one spec: the CLI's printed sweeps, messages and wire words must
// equal the daemon job's op_iterations, op_messages and op_wire_words.
// Jacobi's sweep count depends on its right-hand side and tolerance, so
// it fails when the doors compute on different operands.
func TestCLIAndDaemonRunOpsAlike(t *testing.T) {
	srv := server.New(server.Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer srv.Close()
	defer ts.Close()
	c := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, tc := range []struct {
		op   string
		seed int64
	}{{"jacobi", 3}, {"spmv", 5}, {"spgemm", 5}} {
		seed := strconv.FormatInt(tc.seed, 10)
		code, report, stderr := runMain(t, "-n", "96", "-seed", seed, "-scheme", "CFS", "-partition", "row", "-procs", "4", "-op", tc.op)
		if code != 0 {
			t.Fatalf("%s: exit status %d: %s", tc.op, code, stderr)
		}
		var cli [3]int64
		var halo, bcast, flops int64
		i := strings.Index(report, "distributed "+tc.op+":")
		if i < 0 {
			t.Fatalf("%s: report lacks the op line:\n%s", tc.op, report)
		}
		if _, err := fmt.Sscanf(report[i:], "distributed "+tc.op+": %d msgs, %d wire words (halo %d vs broadcast %d), %d flops, %d iterations",
			&cli[1], &cli[2], &halo, &bcast, &flops, &cli[0]); err != nil {
			t.Fatalf("%s: parsing the op line: %v\n%s", tc.op, err, report)
		}
		id, err := c.Submit(ctx, server.JobSpec{N: 96, Seed: tc.seed, Scheme: "CFS", Partition: "row", Procs: 4, Op: tc.op})
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Wait(ctx, id, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != server.StateDone {
			t.Fatalf("%s: job %s: %s", tc.op, st.State, st.Error)
		}
		r := st.Result
		if job := [3]int64{int64(r.OpIterations), r.OpMessages, r.OpWireWords}; job != cli {
			t.Errorf("%s -seed %s: CLI sweeps, messages, wire words %v, daemon %v", tc.op, seed, cli, job)
		}
	}
}
