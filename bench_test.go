// Benchmark harness regenerating the paper's evaluation (one bench per
// table, plus kernel and ablation benches). Wall-clock ns/op is the Go
// benchmark's own measurement of a full distribution; the paper-shaped
// numbers are attached as custom metrics:
//
//	vdist-ms  virtual T_Distribution (paper Tables 3-5 columns)
//	vcomp-ms  virtual T_Compression
//
// Run with:
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkTable3 -benchtime=3x   # one table, quick
//
// The full paper grid (n up to 2000, p up to 36) is exercised by
// cmd/tables; benches use a representative sub-grid so `go test -bench=.`
// finishes in minutes.
package repro

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/ops"
	"repro/internal/partition"
	"repro/internal/redist"
	"repro/internal/sparse"
)

// benchGrid is the (n, p) sub-grid used by the table benches.
var benchGrid = []struct {
	n, p int
}{
	{200, 4},
	{400, 4},
	{800, 4},
	{400, 16},
	{800, 16},
}

// meshGrid is the sub-grid for Table 5 (mesh sizes from the paper).
var meshGrid = []struct {
	n, pr, pc int
}{
	{240, 2, 2},
	{480, 2, 2},
	{480, 4, 4},
	{960, 4, 4},
}

func benchDistribute(b *testing.B, g *sparse.Dense, part partition.Partition, scheme dist.Scheme, method dist.Method) {
	b.Helper()
	params := cost.DefaultParams
	var last *dist.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := machine.New(part.NumParts(), machine.WithRecvTimeout(60*time.Second))
		if err != nil {
			b.Fatal(err)
		}
		last, err = scheme.Distribute(m, g, part, dist.Options{Method: method})
		m.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	bd := last.Breakdown
	b.ReportMetric(float64(bd.DistributionTime(params))/1e6, "vdist-ms")
	b.ReportMetric(float64(bd.CompressionTime(params))/1e6, "vcomp-ms")
}

// BenchmarkTable3 reproduces Table 3: row partition + CRS, s = 0.1.
func BenchmarkTable3(b *testing.B) {
	for _, gp := range benchGrid {
		g := sparse.UniformExact(gp.n, gp.n, 0.1, int64(gp.n))
		part, err := partition.NewRow(gp.n, gp.n, gp.p)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range dist.Schemes() {
			b.Run(fmt.Sprintf("%s/p=%d/n=%d", s.Name(), gp.p, gp.n), func(b *testing.B) {
				benchDistribute(b, g, part, s, dist.CRS)
			})
		}
	}
}

// BenchmarkTable4 reproduces Table 4: column partition + CRS, s = 0.1.
func BenchmarkTable4(b *testing.B) {
	for _, gp := range benchGrid {
		g := sparse.UniformExact(gp.n, gp.n, 0.1, int64(gp.n)+1)
		part, err := partition.NewCol(gp.n, gp.n, gp.p)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range dist.Schemes() {
			b.Run(fmt.Sprintf("%s/p=%d/n=%d", s.Name(), gp.p, gp.n), func(b *testing.B) {
				benchDistribute(b, g, part, s, dist.CRS)
			})
		}
	}
}

// BenchmarkTable5 reproduces Table 5: 2D mesh partition + CRS, s = 0.1.
func BenchmarkTable5(b *testing.B) {
	for _, gp := range meshGrid {
		g := sparse.UniformExact(gp.n, gp.n, 0.1, int64(gp.n)+2)
		part, err := partition.NewMesh(gp.n, gp.n, gp.pr, gp.pc)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range dist.Schemes() {
			b.Run(fmt.Sprintf("%s/grid=%dx%d/n=%d", s.Name(), gp.pr, gp.pc, gp.n), func(b *testing.B) {
				benchDistribute(b, g, part, s, dist.CRS)
			})
		}
	}
}

// BenchmarkTable1Kernels benchmarks the primitive operations whose unit
// costs Table 1 composes: CRS compression, CFS packing/unpacking and ED
// encoding/decoding of one 250x1000 local piece at s = 0.1.
func BenchmarkTable1Kernels(b *testing.B) {
	g := sparse.UniformExact(1000, 1000, 0.1, 5)
	local := g.SubMatrix(0, 0, 250, 1000)

	b.Run("CompressCRS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compress.CompressCRS(local, nil)
		}
	})
	crs := compress.CompressCRS(local, nil)
	b.Run("PackCRS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compress.PackCRS(crs, nil)
		}
	})
	packed := compress.PackCRS(crs, nil)
	b.Run("UnpackCRS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := compress.UnpackCRS(packed, 250, 1000, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("EncodeED", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compress.EncodeEDRect(g, 0, 0, 250, 1000, compress.RowMajor, nil)
		}
	})
	buf := compress.EncodeEDRect(g, 0, 0, 250, 1000, compress.RowMajor, nil)
	b.Run("DecodeED", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := compress.DecodeEDToCRS(buf, 250, 1000, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable2Kernels is the CCS counterpart (Table 2): compression
// with index conversion, as the row partition + CCS combination needs.
func BenchmarkTable2Kernels(b *testing.B) {
	g := sparse.UniformExact(1000, 1000, 0.1, 6)
	local := g.SubMatrix(250, 0, 250, 1000)

	b.Run("CompressCCS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compress.CompressCCS(local, nil)
		}
	})
	buf := compress.EncodeEDRect(g, 250, 0, 250, 1000, compress.ColMajor, nil)
	b.Run("DecodeEDWithConversion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := compress.DecodeEDToCCS(buf, 250, 1000, 250, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	ccs := compress.CompressCCSPartGlobal(g.At, rangeInts(250, 500), rangeInts(0, 1000), nil)
	packed := compress.PackCCS(ccs, nil)
	b.Run("UnpackCCSWithShift", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := compress.UnpackCCS(packed, 250, 1000, nil)
			if err != nil {
				b.Fatal(err)
			}
			m.ShiftRows(250, nil)
		}
	})
}

// BenchmarkAblationTransport compares the channel transport against real
// localhost TCP for the same ED distribution (DESIGN.md ablation).
func BenchmarkAblationTransport(b *testing.B) {
	g := sparse.UniformExact(400, 400, 0.1, 7)
	part, err := partition.NewRow(400, 400, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("chan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := machine.New(4, machine.WithRecvTimeout(60*time.Second))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := (dist.ED{}).Distribute(m, g, part, dist.Options{}); err != nil {
				b.Fatal(err)
			}
			m.Close()
		}
	})
	b.Run("tcp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr, err := machine.NewTCPTransport(4)
			if err != nil {
				b.Fatal(err)
			}
			m, err := machine.New(4, machine.WithTransport(tr), machine.WithRecvTimeout(60*time.Second))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := (dist.ED{}).Distribute(m, g, part, dist.Options{}); err != nil {
				b.Fatal(err)
			}
			m.Close()
		}
	})
}

// BenchmarkAblationSparseRatio sweeps s to locate the wall-clock
// crossover between SFC and ED that Remark 5 predicts: as s grows, ED's
// wire savings shrink while its decode cost grows.
func BenchmarkAblationSparseRatio(b *testing.B) {
	part, err := partition.NewCol(400, 400, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []float64{0.01, 0.05, 0.1, 0.2, 0.4} {
		g := sparse.UniformExact(400, 400, s, 8)
		for _, scheme := range []dist.Scheme{dist.SFC{}, dist.ED{}} {
			b.Run(fmt.Sprintf("%s/s=%g", scheme.Name(), s), func(b *testing.B) {
				benchDistribute(b, g, part, scheme, dist.CRS)
			})
		}
	}
}

// BenchmarkAblationCFSConvert compares the paper's receiver-side index
// conversion against the convert-at-root variant on a mesh partition
// (where conversion is needed, Case 3.2.3).
func BenchmarkAblationCFSConvert(b *testing.B) {
	g := sparse.UniformExact(480, 480, 0.1, 10)
	part, err := partition.NewMesh(480, 480, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, atRoot := range []bool{false, true} {
		name := "receiver-side"
		if atRoot {
			name = "root-side"
		}
		b.Run(name, func(b *testing.B) {
			params := cost.DefaultParams
			var last *dist.Result
			for i := 0; i < b.N; i++ {
				m, err := machine.New(4, machine.WithRecvTimeout(60*time.Second))
				if err != nil {
					b.Fatal(err)
				}
				last, err = (dist.CFS{}).Distribute(m, g, part, dist.Options{CFSConvertAtRoot: atRoot})
				m.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(last.Breakdown.DistributionTime(params))/1e6, "vdist-ms")
		})
	}
}

// BenchmarkRedistribute measures direct row->mesh redistribution against
// a fresh ED distribution onto the mesh (the naive root path, without
// even charging the gather it would also need).
func BenchmarkRedistribute(b *testing.B) {
	g := sparse.UniformExact(480, 480, 0.1, 11)
	row, _ := partition.NewRow(480, 480, 4)
	mesh, _ := partition.NewMesh(480, 480, 2, 2)

	b.Run("direct-alltoall", func(b *testing.B) {
		params := cost.DefaultParams
		m, err := machine.New(4, machine.WithRecvTimeout(60*time.Second))
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		src, err := (dist.ED{}).Distribute(m, g, row, dist.Options{})
		if err != nil {
			b.Fatal(err)
		}
		var virt time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, stats, err := redist.Redistribute(m, row, src, mesh)
			if err != nil {
				b.Fatal(err)
			}
			virt = stats.Time(params)
		}
		b.StopTimer()
		b.ReportMetric(float64(virt)/1e6, "vredist-ms")
	})
	b.Run("via-root", func(b *testing.B) {
		params := cost.DefaultParams
		var last *dist.Result
		for i := 0; i < b.N; i++ {
			m, err := machine.New(4, machine.WithRecvTimeout(60*time.Second))
			if err != nil {
				b.Fatal(err)
			}
			last, err = (dist.ED{}).Distribute(m, g, mesh, dist.Options{})
			m.Close()
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(last.Breakdown.DistributionTime(params)+last.Breakdown.CompressionTime(params))/1e6, "vredist-ms")
	})
}

// BenchmarkAblationEDOverlap compares the sequential ED root loop with
// the pipelined variant over the TCP transport, where send time is real
// enough to hide encoding behind.
func BenchmarkAblationEDOverlap(b *testing.B) {
	g := sparse.UniformExact(800, 800, 0.1, 13)
	part, _ := partition.NewRow(800, 800, 4)
	for _, overlap := range []bool{false, true} {
		name := "sequential"
		if overlap {
			name = "pipelined"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr, err := machine.NewTCPTransport(4)
				if err != nil {
					b.Fatal(err)
				}
				m, err := machine.New(4, machine.WithTransport(tr), machine.WithRecvTimeout(60*time.Second))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := (dist.ED{}).Distribute(m, g, part, dist.Options{EDOverlap: overlap}); err != nil {
					b.Fatal(err)
				}
				m.Close()
			}
		})
	}
}

// BenchmarkCompressFormats compares the three local compression formats
// on the same array (JDS rounds out the paper's future-work direction 1).
func BenchmarkCompressFormats(b *testing.B) {
	g := sparse.UniformExact(1000, 1000, 0.1, 12)
	b.Run("CRS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compress.CompressCRS(g, nil)
		}
	})
	b.Run("CCS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compress.CompressCCS(g, nil)
		}
	})
	b.Run("JDS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compress.CompressJDS(g, nil)
		}
	})
}

// BenchmarkDistributedSpMV measures the downstream kernel the
// distribution exists to serve, across the three local formats.
func BenchmarkDistributedSpMV(b *testing.B) {
	g := sparse.UniformExact(800, 800, 0.1, 9)
	crs := compress.CompressCRS(g, nil)
	ccs := compress.CompressCCS(g, nil)
	jds := compress.CompressJDS(g, nil)
	x := make([]float64, 800)
	for i := range x {
		x[i] = float64(i)
	}
	b.Run("local-CRS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ops.SpMV(crs, x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("local-CCS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ops.SpMVCCS(ccs, x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("local-JDS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ops.SpMVJDS(jds, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRootEncode is the root-pipeline trajectory benchmark: one
// full distribution at n=800, p=16 for every scheme, with the
// strictly sequential root loop (workers=1) and the full worker pool
// (workers=GOMAXPROCS, skipped on single-CPU hosts where the two are
// the same configuration). The virtual metrics must be identical
// across worker counts — only ns/op and allocs/op may move. `make
// bench` snapshots this family into BENCH_<date>.json.
func BenchmarkRootEncode(b *testing.B) {
	const n, p = 800, 16
	g := sparse.UniformExact(n, n, 0.1, 15)
	part, err := partition.NewRow(n, n, p)
	if err != nil {
		b.Fatal(err)
	}
	workerCounts := []int{1}
	if gmp := runtime.GOMAXPROCS(0); gmp > 1 {
		workerCounts = append(workerCounts, gmp)
	}
	for _, s := range dist.Schemes() {
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("%s/workers=%d", s.Name(), w), func(b *testing.B) {
				params := cost.DefaultParams
				var last *dist.Result
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m, err := machine.New(p, machine.WithRecvTimeout(60*time.Second))
					if err != nil {
						b.Fatal(err)
					}
					last, err = s.Distribute(m, g, part, dist.Options{Workers: w})
					m.Close()
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				bd := last.Breakdown
				b.ReportMetric(float64(bd.DistributionTime(params))/1e6, "vdist-ms")
				b.ReportMetric(float64(bd.CompressionTime(params))/1e6, "vcomp-ms")
			})
		}
	}
}

// BenchmarkRootEncodeBuffer isolates the wire-buffer pool's effect on
// the ED encode kernel: a fresh buffer per part versus reuse through
// machine.GetBuf/PutBuf (the pipeline's steady state).
func BenchmarkRootEncodeBuffer(b *testing.B) {
	const n = 800
	g := sparse.UniformExact(n, n, 0.1, 16)
	rows, cols := rangeInts(0, n/16), rangeInts(0, n)
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			compress.EncodeEDPart(g.At, rows, cols, compress.RowMajor, nil)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := compress.EncodeEDPartInto(g.At, rows, cols, compress.RowMajor, machine.GetBuf(0), nil)
			machine.PutBuf(buf)
		}
	})
}

func rangeInts(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// benchHeapPeak runs fn b.N times under a HeapAlloc high-water sampler
// and returns the peak in MiB. ReadMemStats is a stop-the-world probe,
// so the 2ms period is coarse but cheap next to the multi-second ops
// this helper wraps. A GC before the timer starts keeps the previous
// sub-benchmark's garbage out of this one's high-water mark, and the
// GC headroom is halved for the duration — under the default 100% a
// churn-heavy allocation profile rides HeapAlloc to twice its live
// set, so the high-water mark would measure collector laziness as
// much as footprint. The same policy applies to every path measured
// through this helper, so ratios stay apples to apples.
func benchHeapPeak(b *testing.B, fn func() error) float64 {
	b.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(50))
	runtime.GC()
	var peak atomic.Uint64
	stop := make(chan struct{})
	go func() {
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			for {
				old := peak.Load()
				if ms.HeapAlloc <= old || peak.CompareAndSwap(old, ms.HeapAlloc) {
					break
				}
			}
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	return float64(peak.Load()) / (1 << 20)
}

// BenchmarkStreamDistribute pits the out-of-core streaming engine
// against the materializing engine on the same >=10M-nonzero input:
// n=12288 at ~6.7% density (10,066,330 entries), ED/CRS over a row
// partition on p=8. Both sub-benches consume an identical chunked
// source end to end — the materializing one pays the Materialize step
// (a 1.2 GiB dense array) that the streaming path exists to avoid —
// and attach the process heap high-water mark as "peak-MB". `make
// bench-stream` snapshots this pair and gates streaming peak-MB at
// <= 50% of materializing with ns/op within 10%.
func BenchmarkStreamDistribute(b *testing.B) {
	const (
		n   = 12288
		p   = 8
		nnz = 10_066_330 // ~0.067 * n * n
	)
	part, err := partition.NewRow(n, n, p)
	if err != nil {
		b.Fatal(err)
	}
	codec := dist.ED{}
	source := func() sparse.ChunkReader {
		return sparse.NewUniformStream(n, n, nnz, 77, sparse.DefaultChunkEntries)
	}

	b.Run("materializing", func(b *testing.B) {
		peak := benchHeapPeak(b, func() error {
			g, err := sparse.Materialize(source())
			if err != nil {
				return err
			}
			m, err := machine.New(p, machine.WithRecvTimeout(300*time.Second))
			if err != nil {
				return err
			}
			defer m.Close()
			_, err = dist.Run(m, dist.Plan{Codec: codec, Global: g, Partition: part,
				Options: dist.Options{Method: dist.CRS}})
			return err
		})
		b.ReportMetric(peak, "peak-MB")
	})
	b.Run("streaming", func(b *testing.B) {
		peak := benchHeapPeak(b, func() error {
			m, err := machine.New(p, machine.WithRecvTimeout(300*time.Second))
			if err != nil {
				return err
			}
			defer m.Close()
			_, err = dist.RunStream(m, dist.StreamPlan{Codec: codec, Source: source(),
				Partition: part, Options: dist.Options{Method: dist.CRS},
				Stream: dist.StreamOptions{MemBudget: 8 << 20}})
			return err
		})
		b.ReportMetric(peak, "peak-MB")
	})
}

// BenchmarkSimnetEvents prices the network model's recording overhead:
// the same distribution with the flat counters alone ("counter") and
// with the uniform-topology recorder attached plus a full replay
// ("simnet-uniform"). CI gates the ratio at 1.10x — recording is two
// appends per message and the replay is O(events log p), so attaching
// the model must stay within noise of the legacy path.
func BenchmarkSimnetEvents(b *testing.B) {
	g := sparse.Uniform(400, 400, 0.1, 7)
	run := func(b *testing.B, topology string) {
		b.Helper()
		var tl interface{ Hash() uint64 }
		for i := 0; i < b.N; i++ {
			d, err := core.Distribute(g, core.Config{
				Scheme: "ED", Partition: "row", Method: "CRS",
				Procs: 8, Topology: topology,
			})
			if err != nil {
				b.Fatal(err)
			}
			if t := d.NetTimeline(); t != nil {
				tl = t // force the replay inside the timed loop
			}
			d.Close()
		}
		if topology != "" && tl == nil {
			b.Fatal("no timeline despite topology")
		}
	}
	b.Run("counter", func(b *testing.B) { run(b, "") })
	b.Run("simnet-uniform", func(b *testing.B) { run(b, "uniform") })
}
