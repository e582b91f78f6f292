package main

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a", []string{"a"}},
		{"a,b", []string{"a", "b"}},
		{" a , b ,", []string{"a", "b"}},
		{",,", nil},
	}
	for _, tc := range cases {
		got := splitList(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("splitList(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("splitList(%q)[%d] = %q, want %q", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}

func TestValidateFlags(t *testing.T) {
	type flags struct {
		daemonFlags
		wantErrSub string
	}
	base := flags{daemonFlags: daemonFlags{
		queue: 256, workers: 4, maxN: 4096, maxProcs: 64,
		jobs: 60, clients: 8, schemes: "SFC,CFS,ED",
	}}
	cases := []struct {
		name string
		mod  func(*flags)
	}{
		{"defaults", func(f *flags) {}},
		{"zero-queue", func(f *flags) { f.queue = 0; f.wantErrSub = "-queue" }},
		{"negative-queue", func(f *flags) { f.queue = -5; f.wantErrSub = "-queue" }},
		{"zero-workers", func(f *flags) { f.workers = 0; f.wantErrSub = "-workers" }},
		{"zero-max-n", func(f *flags) { f.maxN = 0; f.wantErrSub = "-max-n" }},
		{"zero-max-procs", func(f *flags) { f.maxProcs = 0; f.wantErrSub = "-max-procs" }},
		{"topology-ok", func(f *flags) { f.topology = "fattree"; f.linkBW = 2e6; f.linkLatency = 100 * time.Microsecond }},
		{"topology-unknown", func(f *flags) { f.topology = "torus"; f.wantErrSub = "topology" }},
		{"link-bw-negative", func(f *flags) { f.topology = "star"; f.linkBW = -2; f.wantErrSub = "link-bw" }},
		{"link-bw-nan", func(f *flags) { f.topology = "star"; f.linkBW = math.NaN(); f.wantErrSub = "link-bw" }},
		{"link-bw-inf", func(f *flags) { f.topology = "star"; f.linkBW = math.Inf(1); f.wantErrSub = "link-bw" }},
		{"link-latency-negative", func(f *flags) { f.topology = "bus"; f.linkLatency = -time.Millisecond; f.wantErrSub = "link-latency" }},
		{"link-overrides-without-topology", func(f *flags) { f.linkLatency = time.Millisecond; f.wantErrSub = "without topology" }},
		{"zero-jobs", func(f *flags) { f.jobs = 0; f.wantErrSub = "-jobs" }},
		{"zero-clients", func(f *flags) { f.clients = 0; f.wantErrSub = "-clients" }},
		{"schemes-auto-ok", func(f *flags) { f.schemes = "SFC,auto" }},
		{"schemes-auto-only", func(f *flags) { f.schemes = "AUTO" }},
		{"schemes-unknown", func(f *flags) { f.schemes = "SFC,BOGUS"; f.wantErrSub = "-schemes" }},
		{"schemes-empty-entries", func(f *flags) { f.schemes = ",,"; f.wantErrSub = "-schemes" }},
		{"assert-auto-ok", func(f *flags) { f.loadgen = true; f.assertAuto = true; f.schemes = "ED,AUTO" }},
		{"assert-auto-without-auto-scheme", func(f *flags) {
			f.loadgen = true
			f.assertAuto = true
			f.wantErrSub = "-assert-auto"
		}},
		{"assert-auto-ignored-in-serve-mode", func(f *flags) { f.assertAuto = true }},
		{"op-ok", func(f *flags) { f.loadgen = true; f.op = "spmv" }},
		{"op-unknown", func(f *flags) { f.op = "cholesky"; f.wantErrSub = "-op" }},
		{"debug-addr-loopback", func(f *flags) { f.debugAddr = "127.0.0.1:6060" }},
		{"debug-addr-public", func(f *flags) { f.debugAddr = "0.0.0.0:6060"; f.wantErrSub = "-debug-addr" }},
		{"assert-ops-ok", func(f *flags) { f.loadgen = true; f.op = "jacobi"; f.assertOps = true }},
		{"assert-ops-without-op", func(f *flags) {
			f.loadgen = true
			f.assertOps = true
			f.wantErrSub = "-assert-ops"
		}},
		{"assert-ops-ignored-in-serve-mode", func(f *flags) { f.assertOps = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := base
			tc.mod(&f)
			err := validateFlags(f.daemonFlags)
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
		})
	}
}

// TestHTTPServerDeadlines: the daemon's listener may not be the
// zero-valued http.Server, which waits forever on a client that never
// finishes its headers, its body or its read of the response.
func TestHTTPServerDeadlines(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.Handler == nil {
		t.Error("handler not installed")
	}
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": hs.ReadHeaderTimeout,
		"ReadTimeout":       hs.ReadTimeout,
		"WriteTimeout":      hs.WriteTimeout,
		"IdleTimeout":       hs.IdleTimeout,
	} {
		if d <= 0 || d > 5*time.Minute {
			t.Errorf("%s = %v, want a finite positive deadline", name, d)
		}
	}
	if hs.ReadHeaderTimeout > hs.ReadTimeout {
		t.Errorf("ReadHeaderTimeout %v exceeds ReadTimeout %v, which covers the headers too", hs.ReadHeaderTimeout, hs.ReadTimeout)
	}
}

// TestArraysWithinBudget: -assert-metrics fails an empty array cache,
// one over its budget, and a daemon that exports no budget.
func TestArraysWithinBudget(t *testing.T) {
	const held, budget = `sparsedistd_cache_bytes{cache="arrays"}`, `sparsedistd_cache_budget_bytes{cache="arrays"}`
	for _, tc := range []struct {
		m  map[string]float64
		ok bool
	}{
		{map[string]float64{held: 1 << 20, budget: 32 << 20}, true},
		{map[string]float64{held: 32 << 20, budget: 32 << 20}, true},
		{map[string]float64{held: 0, budget: 32 << 20}, false},
		{map[string]float64{held: 33 << 20, budget: 32 << 20}, false},
		{map[string]float64{held: 1 << 20}, false},
	} {
		if err := arraysWithinBudget(tc.m); (err == nil) != tc.ok {
			t.Errorf("%v: err %v, want ok=%v", tc.m, err, tc.ok)
		}
	}
}

// TestDebugAddrLoopbackOnly: -debug-addr is off when empty, accepts a
// loopback host and rejects any other, including the empty host that
// would bind every interface.
func TestDebugAddrLoopbackOnly(t *testing.T) {
	for _, addr := range []string{"", "127.0.0.1:6060", "localhost:0", "[::1]:6060"} {
		if err := checkDebugAddr(addr); err != nil {
			t.Errorf("checkDebugAddr(%q) = %v, want nil", addr, err)
		}
	}
	for _, addr := range []string{":6060", "0.0.0.0:6060", "10.1.2.3:6060", "example.com:6060", "127.0.0.1"} {
		if err := checkDebugAddr(addr); err == nil || !strings.Contains(err.Error(), "-debug-addr") {
			t.Errorf("checkDebugAddr(%q) = %v, want a -debug-addr error", addr, err)
		}
	}
}

// TestJobAPIServesNoPprof: the job API's handler does not answer the
// profiling paths, whatever importing net/http/pprof registered on
// http.DefaultServeMux.
func TestJobAPIServesNoPprof(t *testing.T) {
	srv := server.New(server.Config{QueueDepth: 1, Workers: 1})
	defer srv.Drain(context.Background())
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/runtime"} {
		rec := httptest.NewRecorder()
		newHTTPServer(srv).Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("job API GET %s = %d, want 404", path, rec.Code)
		}
	}
}

// TestDebugServerServes: the debug listener, on a loopback port,
// answers the pprof command line and the runtime gauges.
func TestDebugServerServes(t *testing.T) {
	hs, err := serveDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	for path, want := range map[string]string{"/debug/pprof/cmdline": "", "/debug/runtime": "goroutines "} {
		resp, err := http.Get("http://" + hs.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("debug GET %s = %d %q (%v), want 200 containing %q", path, resp.StatusCode, body, err, want)
		}
	}
}
