package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// allDoc is the document `bench all` writes and `bench compare` reads:
// every workload untraced (the end-to-end numbers), then every workload
// traced (the per-layer numbers).
type allDoc struct {
	Header header    `json:"header"`
	Runs   []*runDoc `json:"runs"`
}

// allMain runs every workload in a child process of its own, so heap
// state, caches and the RSS high-water mark never leak from one
// workload into the next.
func allMain(args []string) error {
	fs := flag.NewFlagSet("bench all", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 12, "length of each measured window")
	out := fs.String("out", "", "result file (default bench/results/all-seed<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	t0 := time.Now()
	var doc allDoc
	for _, traced := range []string{"0", "1"} {
		for _, w := range workloads {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(*seed, 10),
				"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", traced)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s (trace %s): %w", w.name, traced, err)
			}
			// The child's first line is its detail document.
			first, _, _ := bytes.Cut(stdout, []byte("\n"))
			run := new(runDoc)
			if err := json.Unmarshal(first, run); err != nil {
				return fmt.Errorf("%s (trace %s): reading the child's result: %w", w.name, traced, err)
			}
			fmt.Fprintf(os.Stderr, "%-15s trace=%s ops=%d failed=%d wall=%.1fs\n", w.name, traced, run.Ops, run.Failed, run.Header.WallS)
			doc.Runs = append(doc.Runs, run)
		}
	}
	doc.Header = doc.Runs[0].Header
	doc.Header.WallS = time.Since(t0).Seconds()

	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = filepath.Join("bench", "results", fmt.Sprintf("all-seed%d.json", *seed))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(data, '\n'))
	return err
}
