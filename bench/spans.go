package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the harness side of
// the layer boundary. Parent is the index of the enclosing span in the
// file's span list, -1 for a top-level span. Spans of one op share OpID.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	OpID    int    `json:"op_id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced path pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) open(name, layer string, op, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, OpID: op, Parent: parent, StartNS: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) closeSpan(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].EndNS = end
	t.mu.Unlock()
}

// top opens a top-level harness span (GC between rounds, checks).
func (t *tracer) top(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	id := t.open(name, "bench", -1, -1)
	return func() { t.closeSpan(id) }
}

// op returns the span recorder of op i, nil when tracing is off.
func (t *tracer) op(i int) *opSpans {
	if t == nil {
		return nil
	}
	return &opSpans{t: t, op: i}
}

// opSpans records the spans of one op from the one goroutine running it.
type opSpans struct {
	t     *tracer
	op    int
	stack []int
}

// parent is the innermost open span, -1 at top level.
func (s *opSpans) parent() int {
	if n := len(s.stack); n > 0 {
		return s.stack[n-1]
	}
	return -1
}

// begin opens a span nested in the innermost open one.
func (s *opSpans) begin(name, layer string) (end func()) {
	if s == nil {
		return func() {}
	}
	id := s.t.open(name, layer, s.op, s.parent())
	s.stack = append(s.stack, id)
	return func() {
		s.t.closeSpan(id)
		s.stack = s.stack[:len(s.stack)-1]
	}
}

// interval records a span whose ends were observed elsewhere (the
// server's job timestamps), nested like begin.
func (s *opSpans) interval(name, layer string, from, to time.Time) {
	if s == nil {
		return
	}
	id := s.t.open(name, layer, s.op, s.parent())
	s.t.mu.Lock()
	s.t.spans[id].StartNS = int64(from.Sub(s.t.epoch))
	s.t.spans[id].EndNS = int64(to.Sub(s.t.epoch))
	s.t.mu.Unlock()
}

// traceSummary is what the span list says about one traced window.
type traceSummary struct {
	// SelfNS is each layer's self time: span time not covered by child spans.
	SelfNS map[string]int64 `json:"self_ns"`
	// OpNS is the summed duration of the op spans; Share is SelfNS / OpNS.
	OpNS  int64              `json:"op_ns"`
	Share map[string]float64 `json:"share"`
	// Coverage is top-level span time over window wall time.
	Coverage float64 `json:"coverage"`
}

// summarize computes self times. A child interval is clipped to its
// parent and overlapping children are merged before they are subtracted.
func summarize(spans []span, windowNS int64) traceSummary {
	children := make(map[int][][2]int64)
	for _, sp := range spans {
		if sp.Parent >= 0 {
			p := spans[sp.Parent]
			lo, hi := max(sp.StartNS, p.StartNS), min(sp.EndNS, p.EndNS)
			if hi > lo {
				children[sp.Parent] = append(children[sp.Parent], [2]int64{lo, hi})
			}
		}
	}
	sum := traceSummary{SelfNS: map[string]int64{}, Share: map[string]float64{}}
	var topNS int64
	for id, sp := range spans {
		dur := sp.EndNS - sp.StartNS
		if sp.Parent < 0 {
			topNS += dur
		}
		if sp.Name == "op" {
			sum.OpNS += dur
		}
		iv := children[id]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, end := int64(0), sp.StartNS
		for _, c := range iv {
			if c[1] <= end {
				continue
			}
			covered += c[1] - max(c[0], end)
			end = c[1]
		}
		sum.SelfNS[sp.Layer] += dur - covered
	}
	for layer, ns := range sum.SelfNS {
		if sum.OpNS > 0 {
			sum.Share[layer] = float64(ns) / float64(sum.OpNS)
		}
	}
	if windowNS > 0 {
		sum.Coverage = float64(topNS) / float64(windowNS)
	}
	return sum
}

// traceFile is the layout of results/trace-<workload>.json.
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Summary  traceSummary `json:"summary"`
	Spans    []span       `json:"spans"`
}

func writeTrace(dir string, tf traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tf.Workload+".json"), data, 0o644)
}
