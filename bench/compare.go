package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// metricKind says how compare treats an end-to-end metric.
type metricKind int

const (
	// hostTime is measured on the host clock (or is host memory): only
	// comparable between runs on the same CPU, core count and toolchain.
	hostTime metricKind = iota
	// hostCount is counted on the host but does not depend on its speed.
	hostCount
	// exactCount repeats exactly for the same seed: any difference is a mismatch.
	exactCount
)

var metricKinds = map[string]metricKind{
	"setup_s": hostTime, "op_ms_p01": hostTime, "peak_rss_mb": hostTime,
	"allocs_per_op": hostCount, "alloc_kb_per_op": hostCount,
	"vdist_ms_per_op": exactCount, "vcomp_ms_per_op": exactCount, "wire_words_per_op": exactCount, "wire_msgs_per_op": exactCount,
}

// benchmarkSpec is the part of /BENCHMARK.json compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadAll(path string) (*allDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := new(allDoc)
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// spread is the distance between the first and third quartile of the
// values a metric's median was taken over, as a share of that median
// (quartiles as Python's statistics.quantiles(n=4) gives them); 0 for a
// metric reported without a series.
func spread(m metricDoc) float64 {
	n := len(m.Series)
	if n < 2 || m.Value == 0 {
		return 0
	}
	s := slices.Clone(m.Series)
	slices.Sort(s)
	quartile := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / math.Abs(m.Value)
}

// compareMain applies the bounds of BENCHMARK.json to two `bench all`
// documents: A is the parent, B the change.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: bench compare [--spec BENCHMARK.json] A.json B.json")
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	a, err := loadAll(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadAll(fs.Arg(1))
	if err != nil {
		return err
	}
	ha, hb := a.Header, b.Header
	sameHost := ha.CPU == hb.CPU && ha.NProc == hb.NProc && ha.GOMAXPROCS == hb.GOMAXPROCS && ha.GoVersion == hb.GoVersion
	if !sameHost {
		fmt.Printf("hosts differ (%s/%d/%d/%s vs %s/%d/%d/%s): host-time metrics are not compared\n",
			ha.CPU, ha.NProc, ha.GOMAXPROCS, ha.GoVersion, hb.CPU, hb.NProc, hb.GOMAXPROCS, hb.GoVersion)
	}
	untraced := func(d *allDoc) map[string]*runDoc {
		m := map[string]*runDoc{}
		for _, r := range d.Runs {
			if !r.Traced {
				m[r.Workload] = r
			}
		}
		return m
	}
	runsA, runsB := untraced(a), untraced(b)

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tspread A\tspread B\tbound\tverdict")
	regressed, unresolved := 0, 0
	for _, w := range workloads {
		ra, rb := runsA[w.name], runsB[w.name]
		if ra == nil || rb == nil {
			return fmt.Errorf("workload %s missing from one of the documents", w.name)
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Fprintf(tw, "%s\tfail_ratio\t%g\t%g\t\t\t0\tregressed\n", w.name, ra.FailRatio, rb.FailRatio)
			regressed++
		}
		for _, e := range spec.EndToEnd {
			ma, okA := ra.Metrics[e.Name]
			mb, okB := rb.Metrics[e.Name]
			if !okA || !okB {
				return fmt.Errorf("%s: metric %s missing from one of the documents", w.name, e.Name)
			}
			sa, sb := spread(ma), spread(mb)
			worse := (mb.Value - ma.Value) / math.Abs(ma.Value)
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch kind := metricKinds[e.Name]; {
			case kind == exactCount:
				if ma.Value != mb.Value {
					verdict = "regressed"
				}
			case kind == hostTime && !sameHost:
				verdict = "skipped"
			case e.Name != "setup_s" && e.Name != "peak_rss_mb" && max(sa, sb) > e.Bound && !allBetter(ma, mb, e.Better):
				// A run may hold as few as five set-ups, too few for a
				// spread, and the slice peaks behind peak_rss_mb spread with
				// the heap's breathing, which their lower quartile leaves out.
				verdict = "unresolved"
			case worse > e.Bound:
				verdict = "regressed"
			}
			switch verdict {
			case "regressed":
				regressed++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.3f\t%.3f\t%g\t%s\n", w.name, e.Name, ma.Value, mb.Value, sa, sb, e.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return fmt.Errorf("%d regressed rows", regressed)
	}
	return nil
}

// allBetter reports whether every value behind B reads better than
// every value behind A: the one case where a spread wider than the
// bound still resolves.
func allBetter(a, b metricDoc, better string) bool {
	if len(a.Series) == 0 || len(b.Series) == 0 {
		return false
	}
	if better == "higher" {
		return slices.Min(b.Series) > slices.Max(a.Series)
	}
	return slices.Max(b.Series) < slices.Min(a.Series)
}
