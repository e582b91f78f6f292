package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
)

// The -debug-addr listener: net/http/pprof and a few runtime gauges on
// a mux of their own, never on the job API's handler or
// http.DefaultServeMux (which importing net/http/pprof also fills, and
// which nothing here serves). It is off unless the flag names an
// address, and only a loopback one: profiles and command lines are not
// for the network.

// checkDebugAddr accepts "" (off) or a host:port whose host is
// localhost or a loopback IP.
func checkDebugAddr(addr string) error {
	if addr == "" {
		return nil
	}
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-debug-addr %q: %w", addr, err)
	}
	if ip := net.ParseIP(host); host != "localhost" && (ip == nil || !ip.IsLoopback()) {
		return fmt.Errorf("-debug-addr %q: host must be loopback (localhost, 127.0.0.1, ::1)", addr)
	}
	return nil
}

// newDebugMux serves /debug/pprof/ (index, cmdline, profile, symbol,
// trace and the named profiles) and /debug/runtime, one "name value"
// gauge a line.
func newDebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/runtime", func(w http.ResponseWriter, _ *http.Request) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Fprintf(w, "goroutines %d\ngomaxprocs %d\nheap_alloc_bytes %d\nheap_sys_bytes %d\ntotal_alloc_bytes %d\nnum_gc %d\ngc_pause_total_ns %d\n",
			runtime.NumGoroutine(), runtime.GOMAXPROCS(0), ms.HeapAlloc, ms.HeapSys, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs)
	})
	return mux
}

// serveDebug listens on addr and serves newDebugMux until the returned
// server, whose Addr is the bound address, is closed. It has no write deadline: a CPU profile or trace
// writes for as long as it was asked to run.
func serveDebug(addr string) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Addr: ln.Addr().String(), Handler: newDebugMux(), ReadHeaderTimeout: readHeaderTimeout}
	go func() {
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "sparsedistd: debug server:", err)
		}
	}()
	return hs, nil
}
