package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const (
	rounds      = 5 // the measured window is cut into this many equal rounds
	rssSlices   = 4 // a round is cut into this many slices for peak_rss_mb
	verifyEvery = 8 // every verifyEvery-th measured op gets the full (expensive) check
	minWarmup   = 8 // warm-up ops, rounded up to whole rotations

	// fastQ is the quantile of op_ms_p01. The host is shared: a busy
	// neighbour stretches an op by up to 1.6x, at times for nearly every
	// op of a run, so the latencies of one input fall into an uncontended
	// mode and a contended one and the median, even the lower decile,
	// jumps between the two from run to run. The first percentile stays
	// in the uncontended mode as long as one sample in a hundred reaches
	// it. Nearest rank: a slot with up to 100 samples gives its fastest.
	fastQ = 0.01

	// Every round starts from a fresh set-up, so that the set-ups are
	// spread over the run like the ops: before a round at least
	// minSetups, then more until setupBudget is spent or maxSetups are
	// done, so that a 30 ms set-up gets enough samples and a 0.7 s one does
	// not eat the run.
	minSetups   = 1
	maxSetups   = 3
	setupBudget = 300 * time.Millisecond
)

// counts are the machine-independent quantities one op reports: what it
// put on the wire and what the virtual clock charged for it.
type counts struct {
	words, msgs  int64
	vdist, vcomp time.Duration
}

// opResult is what one closed-loop op hands back to the harness.
type opResult struct {
	// lat is the caller-visible time of the op; checks run outside it.
	lat time.Duration
	c   counts
	// exact is false for ops whose counts are not a function of the
	// rotation slot (scheme=auto jobs); they stay out of the count metrics.
	exact bool
}

// instance is one set-up workload: inputs generated, machines and
// servers booted, caches as warm as the workload wants them.
type instance struct {
	// slots is the rotation length: op i uses input slot i % slots.
	slots int
	// run performs op i. verify asks for the full correctness check;
	// the cheap invariants are checked on every op. A non-nil sp selects
	// the step-by-step traced path and records its spans.
	run func(i int, verify bool, sp *opSpans) (opResult, error)
	// virtualBySlot says vdist/vcomp are a function of the slot too (the
	// input array is the same every time the slot comes round).
	virtualBySlot bool
	probe         probe
	close         func()
	// corrupt makes run damage every second result before checking it.
	// The runner sets it after warm-up when the run asks for corruption.
	corrupt bool
	// daemon is set by the serve workloads; jobs, when the traced pass
	// sets it, receives every finished job's client/server observations.
	daemon *daemon
	jobs   *jobStats
}

type workload struct {
	name string
	// pooledP95 takes window.op_ms_p95 over the whole window: for a
	// workload whose rounds hold too few samples for a p95 of their own.
	pooledP95 bool
	setup     func(o runOptions) (*instance, error)
}

type runOptions struct {
	seed    int64
	seconds float64
	traced  bool
	// corrupt damages every second result before it is checked; the
	// test uses it to prove that the checks can fail.
	corrupt bool
	// resultsDir receives trace-<workload>.json; empty means bench/results.
	resultsDir string
	// setups fixes the number of set-ups; the test sets up once to stay short.
	setups int
}

// metricDoc is one reported number. Series holds what the median was
// taken over: the per-round values of a timing metric, or the 20
// repetitions of a floor.
type metricDoc struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Series []float64 `json:"series,omitempty"`
}

type header struct {
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	WallS      float64 `json:"wall_s"`
}

// runDoc is the detail document of one run.
type runDoc struct {
	Header          header               `json:"header"`
	Workload        string               `json:"workload"`
	Traced          bool                 `json:"traced"`
	Ops             int                  `json:"ops"`
	Warmup          int                  `json:"warmup"`
	SamplesPerRound []int                `json:"samples_per_round"`
	Attempted       int                  `json:"attempted"`
	Failed          int                  `json:"failed"`
	FailRatio       float64              `json:"fail_ratio"`
	Failures        []string             `json:"failures,omitempty"`
	Metrics         map[string]metricDoc `json:"metrics"`
}

// summaryDoc is the contract line the driver reads.
type summaryDoc struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricDoc `json:"metrics"`
}

func (d *runDoc) summary() summaryDoc {
	m := make(map[string]metricDoc, len(d.Metrics))
	for k, v := range d.Metrics {
		m[k] = metricDoc{Value: v.Value, Unit: v.Unit}
	}
	return summaryDoc{Correct: d.Failed == 0, Attempted: d.Attempted, Failed: d.Failed, Metrics: m}
}

func newHeader(o runOptions) header {
	h := header{Commit: "unknown", Seed: o.seed, Seconds: o.seconds, CPU: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// resetPeakRSS restarts the kernel's high-water mark of this process at
// its current resident size (Linux: "5" to /proc/self/clear_refs), so that
// every slice of the window has a peak of its own. Where the kernel
// refuses, VmHWM stays the peak since process start and every slice
// reports that.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// samplePeakRSS appends the peak of every 1/rssSlices of the given
// duration to *out until stop is closed.
func samplePeakRSS(per time.Duration, out *[]float64, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	slice := per / rssSlices
	last := time.Now()
	take := func() {
		if rss, err := peakRSSMiB(); err == nil {
			*out = append(*out, rss)
		}
		resetPeakRSS()
		last = time.Now()
	}
	resetPeakRSS()
	t := time.NewTicker(slice)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			take()
		case <-stop:
			// The last tick and the end of the round race; a sliver of a
			// slice has no peak worth a sample.
			if time.Since(last) > slice/2 {
				take()
			}
			return
		}
	}
}

// peakRSSMiB reads the process high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(rest, &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of an unsorted sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

// slotQuantile is the mean over the rotation slots of each slot's q-th
// latency percentile: the ops of one slot have the same input, so their
// spread is the host's and the quantile is taken where samples compare.
func slotQuantile(lat []float64, slot []int, slots int, q float64) float64 {
	by := make([][]float64, slots)
	for k, l := range lat {
		by[slot[k]] = append(by[slot[k]], l)
	}
	sum, n := 0.0, 0
	for _, xs := range by {
		if len(xs) > 0 {
			sum += percentile(xs, q)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// slotRef is what the warm-up verified for one rotation slot.
type slotRef struct {
	c     counts
	exact bool
}

// window is the outcome of one measured window of `rounds` rounds.
type window struct {
	ops, attempted, failed    int
	samples                   []int
	opsPerS, p01, p50, p95    []float64 // per round; p01 per slot (slotQuantile)
	allocsPerOp, allocKBPerOp []float64 // per round
	peakRSS                   []float64 // MiB, per slice of a round (samplePeakRSS)
	pooledLat                 []float64 // ms, every sample of the window
	pooledSlot                []int     // the rotation slot of each sample
	failures                  []string
}

// runner drives one instance: warm-up, then measured windows.
type runner struct {
	w     *workload
	inst  *instance
	slots []slotRef
	next  int // next op index
}

// warmup runs whole rotations with the full check on every op and keeps
// each slot's verified counts as the reference for the cheap invariant.
func (r *runner) warmup() (int, error) {
	n := (minWarmup + r.inst.slots - 1) / r.inst.slots * r.inst.slots
	r.slots = make([]slotRef, r.inst.slots)
	for i := 0; i < n; i++ {
		res, err := r.inst.run(i, true, nil)
		if err != nil {
			return i, fmt.Errorf("warm-up op %d: %w", i, err)
		}
		if i < r.inst.slots { // the first rotation sets the references
			r.slots[i] = slotRef{c: res.c, exact: res.exact}
		}
	}
	r.next = n
	return n, nil
}

// checkCounts is the cheap invariant: an op must move exactly what the
// verified op of the same slot moved.
func (r *runner) checkCounts(slot int, res opResult) error {
	if !res.exact {
		return nil
	}
	ref := r.slots[slot].c
	if res.c.words != ref.words || res.c.msgs != ref.msgs {
		return fmt.Errorf("slot %d moved %d words / %d messages, verified reference %d / %d",
			slot, res.c.words, res.c.msgs, ref.words, ref.msgs)
	}
	if r.inst.virtualBySlot && (res.c.vdist != ref.vdist || res.c.vcomp != ref.vcomp) {
		return fmt.Errorf("slot %d charged %v + %v virtual, verified reference %v + %v",
			slot, res.c.vdist, res.c.vcomp, ref.vdist, ref.vcomp)
	}
	return nil
}

// measure runs one window of the given length on the runner's instance.
// tr selects the traced path.
func (r *runner) measure(seconds float64, tr *tracer) window {
	var win window
	per := time.Duration(seconds / rounds * float64(time.Second))
	for round := 0; round < rounds; round++ {
		r.measureRound(per, tr, &win)
	}
	return win
}

// measureRound runs one round of the given length and adds it to win.
func (r *runner) measureRound(per time.Duration, tr *tracer, win *window) {
	endGC := tr.top("runtime.GC")
	runtime.GC()
	endGC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stopRSS, doneRSS := make(chan struct{}), make(chan struct{})
	go samplePeakRSS(per, &win.peakRSS, stopRSS, doneRSS)

	// The load is closed loop with one caller: the next op starts when
	// the previous one has been checked.
	var lat []float64
	var slot []int
	var busy time.Duration
	attempts := 0
	for deadline := time.Now().Add(per); time.Now().Before(deadline); {
		i := r.next
		r.next++
		attempts++
		// A corrupted run verifies every op, so that a window of a few
		// ops on a slow host still meets a full check.
		res, err := r.inst.run(i, i%verifyEvery == 0 || r.inst.corrupt, tr.op(i))
		if err == nil {
			err = r.checkCounts(i%r.inst.slots, res)
		}
		if err != nil {
			win.failed++
			win.failures = append(win.failures, fmt.Sprintf("op %d: %v", i, err))
			continue
		}
		lat = append(lat, float64(res.lat)/1e6)
		slot = append(slot, i%r.inst.slots)
		busy += res.lat
	}
	runtime.ReadMemStats(&after)
	close(stopRSS)
	<-doneRSS

	win.attempted += attempts
	win.ops += len(lat)
	win.samples = append(win.samples, len(lat))
	win.pooledLat = append(win.pooledLat, lat...)
	win.pooledSlot = append(win.pooledSlot, slot...)
	if len(lat) == 0 {
		return
	}
	win.opsPerS = append(win.opsPerS, float64(len(lat))/busy.Seconds())
	win.p01 = append(win.p01, slotQuantile(lat, slot, r.inst.slots, fastQ))
	win.p50 = append(win.p50, percentile(lat, 0.50))
	win.p95 = append(win.p95, percentile(lat, 0.95))
	win.allocsPerOp = append(win.allocsPerOp, float64(after.Mallocs-before.Mallocs)/float64(attempts))
	win.allocKBPerOp = append(win.allocKBPerOp, float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(attempts))
}

// fast is op_ms_p01 over the whole window.
func (r *runner) fast(win window) float64 {
	return slotQuantile(win.pooledLat, win.pooledSlot, r.inst.slots, fastQ)
}

// countMeans averages the verified counts over the rotation slots. Every
// measured op either reproduced its slot's counts or was counted as
// failed (checkCounts), so this is what the measured ops moved, and a
// time-bounded window that ends mid-rotation reports the same value as
// one that ends on a boundary. Where the virtual times are not a function
// of the slot (serve_cold) they are those of the warm-up rotation, whose
// arrays are the same in every run of a seed.
func (r *runner) countMeans() (words, msgs, vdistMS, vcompMS float64) {
	n := 0.0
	for _, ref := range r.slots {
		if !ref.exact {
			continue
		}
		n++
		words += float64(ref.c.words)
		msgs += float64(ref.c.msgs)
		vdistMS += float64(ref.c.vdist) / 1e6
		vcompMS += float64(ref.c.vcomp) / 1e6
	}
	if n == 0 {
		return 0, 0, 0, 0
	}
	return words / n, msgs / n, vdistMS / n, vcompMS / n
}

// runWorkload is one run of one workload in this process: either the
// untraced end-to-end window, every round of it on fresh set-ups, or one
// batch of set-ups and the traced pass.
func runWorkload(w *workload, o runOptions) (*runDoc, error) {
	t0 := time.Now()
	doc := &runDoc{Header: newHeader(o), Workload: w.name, Traced: o.traced, Metrics: map[string]metricDoc{}}

	var r *runner
	defer func() {
		if r != nil {
			r.inst.close()
		}
	}()
	var setups []float64
	// setUp replaces r by a fresh instance, warmed up, and times that.
	setUp := func() error {
		if r != nil {
			// Collect the previous set-up's arrays first, so that a
			// set-up starts from the same heap whatever the GC timing.
			r.inst.close()
			r = nil
			runtime.GC()
		}
		ts := time.Now()
		inst, err := w.setup(o)
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		fresh := &runner{w: w, inst: inst}
		n, err := fresh.warmup()
		if err != nil {
			inst.close()
			return fmt.Errorf("%s: %w", w.name, err)
		}
		r, doc.Warmup = fresh, n
		setups = append(setups, time.Since(ts).Seconds())
		return nil
	}
	// setUpRound does the set-ups that precede a round. A run with a
	// fixed number of set-ups does them all before the first.
	setUpRound := func(round int) error {
		if o.setups > 0 && round > 0 {
			return nil
		}
		more := func(k int, spent float64) bool {
			if o.setups > 0 {
				return k < o.setups
			}
			return k < minSetups || (k < maxSetups && spent < setupBudget.Seconds())
		}
		spent := 0.0
		for k := 0; more(k, spent); k++ {
			if err := setUp(); err != nil {
				return err
			}
			spent += setups[len(setups)-1]
		}
		r.inst.corrupt = o.corrupt
		return nil
	}

	if o.traced {
		if err := setUpRound(0); err != nil {
			return nil, err
		}
		if err := tracedPass(w, r, o, doc); err != nil {
			return nil, err
		}
	} else {
		var win window
		per := time.Duration(o.seconds / rounds * float64(time.Second))
		for round := 0; round < rounds; round++ {
			if err := setUpRound(round); err != nil {
				return nil, err
			}
			r.measureRound(per, nil, &win)
		}
		if win.ops == 0 {
			return nil, fmt.Errorf("%s: no op succeeded; first failure: %v", w.name, firstOr(win.failures, "none recorded"))
		}
		if len(win.peakRSS) == 0 {
			return nil, errors.New("no VmHWM line in /proc/self/status")
		}
		doc.fillWindow(win)
		words, msgs, vdist, vcomp := r.countMeans()
		doc.Metrics["setup_s"] = metricDoc{Value: median(setups), Unit: "s", Series: setups}
		doc.Metrics["op_ms_p01"] = metricDoc{Value: r.fast(win), Unit: "ms", Series: win.p01}
		doc.Metrics["allocs_per_op"] = metricDoc{Value: median(win.allocsPerOp), Unit: "count", Series: win.allocsPerOp}
		doc.Metrics["alloc_kb_per_op"] = metricDoc{Value: median(win.allocKBPerOp), Unit: "KiB", Series: win.allocKBPerOp}
		// The lower quartile of the slice peaks: what the process needs at
		// its fullest while the collector keeps pace. The heap spends up
		// to half of some runs well above that (37 or 61 MiB on dist_ed),
		// so the median flips from run to run and the largest is one
		// late collection.
		doc.Metrics["peak_rss_mb"] = metricDoc{Value: percentile(win.peakRSS, 0.25), Unit: "MiB", Series: win.peakRSS}
		doc.Metrics["vdist_ms_per_op"] = metricDoc{Value: vdist, Unit: "virtual_ms"}
		doc.Metrics["vcomp_ms_per_op"] = metricDoc{Value: vcomp, Unit: "virtual_ms"}
		doc.Metrics["wire_words_per_op"] = metricDoc{Value: words, Unit: "words"}
		doc.Metrics["wire_msgs_per_op"] = metricDoc{Value: msgs, Unit: "messages"}
	}
	doc.Header.WallS = time.Since(t0).Seconds()
	return doc, nil
}

func (d *runDoc) fillWindow(win window) {
	d.Ops, d.Attempted, d.Failed, d.SamplesPerRound = win.ops, win.attempted, win.failed, win.samples
	if win.attempted > 0 {
		d.FailRatio = float64(win.failed) / float64(win.attempted)
	}
	d.Failures = win.failures[:min(len(win.failures), 5)]
}

func firstOr(xs []string, def string) string {
	if len(xs) > 0 {
		return xs[0]
	}
	return def
}
