// Command sparsedistd is the distribution-as-a-service daemon: it
// serves the paper's SFC/CFS/ED pipeline over an HTTP JSON API with a
// bounded job queue, a worker pool over pooled emulated machines, a
// plan cache, and a Prometheus-format /metrics endpoint. It is one
// process on one host: a job lives in memory, so a killed daemon loses
// its queued and running jobs (DESIGN §11).
//
// Serve (SIGINT/SIGTERM drains gracefully):
//
//	sparsedistd -addr 127.0.0.1:8477 -queue 256 -workers 4
//
// Submit and inspect:
//
//	curl -s -X POST localhost:8477/jobs -d '{"n":500,"scheme":"ED","procs":8}'
//	curl -s localhost:8477/jobs/j-000001
//	curl -s localhost:8477/metrics
//
// Profile it (off by default; loopback addresses only):
//
//	sparsedistd -debug-addr 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/heap
//	curl -s 127.0.0.1:6060/debug/runtime
//
// Load-generate against it:
//
//	sparsedistd -loadgen -target http://127.0.0.1:8477 -jobs 60 -clients 8 -schemes SFC,CFS,ED
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/simnet"
	"repro/internal/spops"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8477", "listen address")
		queue   = flag.Int("queue", 256, "job queue depth (backpressure beyond it: 429)")
		workers = flag.Int("workers", 4, "worker pool size")
		maxN    = flag.Int("max-n", 4096, "admission cap on array size n")
		maxP    = flag.Int("max-procs", 64, "admission cap on processor count")
		drainT  = flag.Duration("drain-timeout", 60*time.Second, "graceful drain budget on SIGTERM")
		debugA  = flag.String("debug-addr", "", "serve net/http/pprof and runtime gauges on this loopback address (empty: off)")

		topology = flag.String("topology", "",
			"network model topology for every job: "+simnet.TopologyNames()+" (empty: no network model); finished jobs then report the contention-aware phase estimates")
		linkBW = flag.Float64("link-bw", 0,
			"bottleneck link bandwidth in payload words/s (0: the cost model's 1/T_Data)")
		linkLatency = flag.Duration("link-latency", 0,
			"bottleneck link per-message latency (0: the cost model's T_Startup)")

		loadgen = flag.Bool("loadgen", false, "run as a load generator against -target instead of serving")
		target  = flag.String("target", "", "daemon base URL for -loadgen (e.g. http://127.0.0.1:8477)")
		jobs    = flag.Int("jobs", 60, "loadgen: total jobs to submit")
		clients = flag.Int("clients", 8, "loadgen: concurrent client goroutines")
		schemes = flag.String("schemes", "SFC,CFS,ED", "loadgen: comma-separated schemes to rotate through (SFC, CFS, ED, AUTO)")
		size    = flag.Int("n", 200, "loadgen: array size per job")
		procs   = flag.Int("procs", 4, "loadgen: processors per job")
		op      = flag.String("op", "", "loadgen: attach a distributed compute op to every job (spmv, jacobi or spgemm)")
		assertM = flag.Bool("assert-metrics", false,
			"loadgen: after the run, scrape /metrics and fail unless job counters moved, the plan cache hit and the array cache holds arrays within its budget")
		assertA = flag.Bool("assert-auto", false,
			"loadgen: fail unless auto jobs resolved plans (needs AUTO in -schemes)")
		assertO = flag.Bool("assert-ops", false,
			"loadgen: fail unless every job's distributed op executed with the comm-plan cache hitting (needs -op)")
	)
	flag.Parse()

	if err := validateFlags(daemonFlags{
		queue: *queue, workers: *workers, maxN: *maxN, maxProcs: *maxP,
		topology: *topology, linkBW: *linkBW, linkLatency: *linkLatency,
		jobs: *jobs, clients: *clients, schemes: *schemes,
		loadgen: *loadgen, assertAuto: *assertA,
		op: *op, assertOps: *assertO, debugAddr: *debugA,
	}); err != nil {
		fatal(err)
	}

	if *loadgen {
		if err := runLoadgen(loadgenConfig{
			target: *target, jobs: *jobs, clients: *clients,
			schemes: *schemes, n: *size, procs: *procs, op: *op,
			assertMetrics: *assertM, assertAuto: *assertA, assertOps: *assertO,
		}); err != nil {
			fatal(err)
		}
		return
	}

	srv := server.New(server.Config{
		QueueDepth:  *queue,
		Workers:     *workers,
		Limits:      server.Limits{MaxN: *maxN, MaxProcs: *maxP},
		Topology:    *topology,
		LinkBW:      *linkBW,
		LinkLatency: *linkLatency,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := newHTTPServer(srv)
	fmt.Fprintf(os.Stderr, "sparsedistd: serving on http://%s (queue %d, workers %d)\n", ln.Addr(), *queue, *workers)
	if *debugA != "" {
		dbg, err := serveDebug(*debugA)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "sparsedistd: debug endpoints on http://%s/debug/pprof/\n", dbg.Addr)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "sparsedistd: %v: draining (accepted jobs will finish)...\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainT)
		defer cancel()
		// Drain the job queue first so polling clients can still fetch
		// results, then stop the HTTP listener.
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "sparsedistd: drain: %v\n", err)
		}
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "sparsedistd: shutdown: %v\n", err)
		}
		fmt.Fprintln(os.Stderr, "sparsedistd: drained, bye")
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

// Connection deadlines. Every handler answers from memory — a submit
// enqueues, a status read copies — so a connection slower than these
// is stalled or hostile, not busy; without them a client that never
// finishes its headers holds its connection forever.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second // headers plus the (size-capped) body
	writeTimeout      = 30 * time.Second
	idleTimeout       = 2 * time.Minute // keep-alive between one client's polls
)

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// daemonFlags carries everything validateFlags inspects.
type daemonFlags struct {
	queue, workers int
	maxN, maxProcs int
	topology       string
	linkBW         float64
	linkLatency    time.Duration
	jobs, clients  int
	schemes        string
	loadgen        bool
	assertAuto     bool
	op             string
	assertOps      bool
	debugAddr      string
}

// validateFlags rejects bad flag values up front with one clear error
// each — the daemon twin of sparsedist's validateFlags. Loadgen knobs
// are validated too: their defaults are valid in serve mode, and a
// typo'd loadgen run should die before hammering a live daemon.
func validateFlags(f daemonFlags) error {
	if f.queue < 1 {
		return fmt.Errorf("-queue %d: queue depth must be positive", f.queue)
	}
	if f.workers < 1 {
		return fmt.Errorf("-workers %d: need at least one worker", f.workers)
	}
	if f.maxN < 1 {
		return fmt.Errorf("-max-n %d: admission cap must be positive", f.maxN)
	}
	if f.maxProcs < 1 {
		return fmt.Errorf("-max-procs %d: admission cap must be positive", f.maxProcs)
	}
	// The node-level network model is plan vocabulary: core says what
	// is valid, in its words.
	if err := (core.Config{Topology: f.topology, LinkBW: f.linkBW, LinkLatency: f.linkLatency}).Validate(); err != nil {
		return err
	}
	if f.jobs < 1 {
		return fmt.Errorf("-jobs %d: need at least one job", f.jobs)
	}
	if f.clients < 1 {
		return fmt.Errorf("-clients %d: need at least one client", f.clients)
	}
	// The audit find: loadgen scheme names used to reach the daemon
	// unchecked, so a typo'd -schemes burned a full run on 400s.
	sawAuto := false
	for _, s := range splitList(f.schemes) {
		if err := (core.Config{Scheme: s}).Validate(); err != nil {
			return fmt.Errorf("-schemes: %w", err)
		}
		sawAuto = sawAuto || core.IsAutoScheme(s)
	}
	if f.schemes != "" && len(splitList(f.schemes)) == 0 {
		return fmt.Errorf("-schemes %q: no scheme names found", f.schemes)
	}
	if f.assertAuto && f.loadgen && !sawAuto {
		return fmt.Errorf("-assert-auto without AUTO in -schemes: no auto jobs would run, so the assertion can never hold")
	}
	if !spops.ValidOp(f.op) {
		return fmt.Errorf("-op %q: want %s", f.op, spops.OpNames())
	}
	if f.assertOps && f.loadgen && f.op == "" {
		return fmt.Errorf("-assert-ops without -op: no distributed ops would run, so the assertion can never hold")
	}
	return checkDebugAddr(f.debugAddr)
}

// splitList parses a comma-separated flag into trimmed non-empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sparsedistd:", err)
	os.Exit(1)
}
