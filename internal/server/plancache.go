package server

import (
	"math"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dist"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/spops"
)

// The plan cache. A distribution plan has two reusable halves that are
// pure functions of the request: the input array (N, ratio, seed) and
// the partition + codec + method resolution (shape, partition method,
// processor grid, scheme), which core.NewPlan builds. Both are
// immutable once built — partitions only answer ownership queries,
// codecs are stateless — so concurrent jobs share cached entries
// freely. The run itself (local arrays and breakdown) is cached only
// for op jobs, inside their comm plan (ops.go): it is a function of
// the array and the plan too, and an op job reads its parts anyway.
// A job without an op re-runs its distribution.

// arrayKey identifies one synthetic input array. diagDominant marks
// the Jacobi variant: op=jacobi jobs run on the array with its
// diagonal rewritten for convergence (sparse.MakeDiagDominant), which
// is a different array than the plain generator output of the same
// seed.
type arrayKey struct {
	n            int
	ratio        uint64 // float bits, so the key is comparable
	seed         int64
	diagDominant bool
}

func specArrayKey(s JobSpec) arrayKey {
	return arrayKey{n: s.N, ratio: math.Float64bits(s.Ratio), seed: s.Seed,
		diagDominant: s.Op == "jacobi"}
}

// The caches' budgets. An input array is dense, 8·n² bytes, and a comm
// plan holds the compressed distribution of one, so those two caches
// count bytes (denseBytes, commPlanBytes): an entry count would let 32
// arrays at the default -max-n 4096 pin 4 GiB. arrayCacheBytes holds a
// few arrays of the sizes the benchmark serves (n ≤ 900, ≤ 6.2 MiB
// each) and any number of small ones; an array over the budget
// (n > 2048) is generated for its job and not kept. opPlanCacheBytes holds one comm
// plan of an n = 4096, s = 0.1 array (≈ 32 MiB), or hundreds at
// n = 400 (≈ 0.4 MiB each). The statistics and plan caches count
// entries: a statistics entry is O(n) and a plan small, but
// scheme=auto and balanced-row key plans by array identity, so without
// a bound every new seed pins a partition for the life of the daemon.
const (
	arrayCacheBytes  = 32 << 20
	opPlanCacheBytes = 64 << 20
	statsCacheCap    = 32
	planCacheCap     = 1024
)

// denseBytes is the size of an array's dense values.
func denseBytes(g *sparse.Dense) int64 { return 8 * int64(g.Rows()) * int64(g.Cols()) }

// commPlanBytes estimates what a comm plan pins from lengths it already
// holds: a value and an index per nonzero of its local arrays, a
// pointer per row and column of every part (an upper bound on their
// local shapes), the index lists and the diagonal at a word per entry,
// and the 4-byte slot per nonzero its sweep view adds on the first
// SpMV. Then the scratch its ops keep between calls: the x, y and b
// segments, a need value per need-list entry, a contribution value per
// contributed row, and SpGEMM's accumulator at every rank, two words
// per column of B, which is A here.
func commPlanBytes(cpl *spops.CommPlan) int64 {
	nnz := cpl.Res.NNZ()
	words := 2*nnz + cpl.P*(cpl.Rows+cpl.Cols) + 2*cpl.Stats.TotalNeed + cpl.Stats.HaloWords + len(cpl.Diag) +
		cpl.Cols + 2*cpl.Rows + 2*cpl.P*cpl.Cols
	for _, rows := range cpl.Contrib {
		words += 2 * len(rows)
	}
	return 8*int64(words) + 4*int64(nnz)
}

// generate builds the array the key identifies.
func (k arrayKey) generate() *sparse.Dense {
	g := sparse.UniformExact(k.n, k.n, math.Float64frombits(k.ratio), k.seed)
	if k.diagDominant {
		sparse.MakeDiagDominant(g)
	}
	return g
}

// arrayFor returns the input array for the spec, generating it on a
// miss.
func (s *Server) arrayFor(spec JobSpec) (g *sparse.Dense, hit bool) {
	key := specArrayKey(spec)
	g, hit, _ = s.arrays.getOrFill(key, func() (*sparse.Dense, error) {
		return key.generate(), nil
	})
	return g, hit
}

// statsFor returns the measured statistics of the spec's array for
// auto jobs: measuring is a full O(rows·cols) scan, and the loadgen
// resubmits the same handful of array shapes.
func (s *Server) statsFor(spec JobSpec, g *sparse.Dense) costmodel.ArrayStats {
	st, _, _ := s.stats.getOrFill(specArrayKey(spec), func() (costmodel.ArrayStats, error) {
		return costmodel.MeasureStats(g), nil
	})
	return st
}

// planKey identifies one cached plan: the resolved shape, partition
// descriptor and scheme/method. For balanced-row the partition depends
// on the array's values, so the array key joins the plan key; for every
// other method the partition is a pure function of the shape.
type planKey struct {
	rows, cols int
	partition  string
	procs      int
	meshRows   int
	meshCols   int
	block      int
	scheme     string
	method     string
	array      arrayKey // zero unless the partition is value-dependent
}

// newPlanKey resolves the shape-pure half of a plan key from a
// normalized config; callers add the array identity.
func newPlanKey(cfg core.Config, rows, cols int) planKey {
	return planKey{
		rows: rows, cols: cols,
		partition: cfg.Partition, procs: cfg.Procs,
		meshRows: cfg.MeshRows, meshCols: cfg.MeshCols,
		block:  cfg.BlockSize,
		scheme: cfg.Scheme, method: cfg.Method,
	}
}

// plan is one cached dist.Plan — partition, codec and method as
// core.NewPlan resolved them, with no global array and no per-job
// options — and the key it is cached under. A job copies the value and
// fills in its own array, workers, check flag and context.
type plan struct {
	key planKey
	dist.Plan
}

// cachedPlan keeps the cacheable half of a plan core just built.
func cachedPlan(key planKey, codec dist.Codec, part partition.Partition, method dist.Method) *plan {
	return &plan{key: key, Plan: dist.Plan{Codec: codec, Partition: part, Options: dist.Options{Method: method}}}
}

// planFor returns the plan for a job's resolved, normalized config,
// building and caching it on a miss. valueDependent forces the array
// identity into the key even when the resolved partition is shape-pure:
// an auto job's *plan choice* depends on the array's values, so two
// arrays with the same shape but different sparsity must not share an
// entry (the same rule balanced-row already follows for its
// boundaries).
func (s *Server) planFor(spec JobSpec, cfg core.Config, g *sparse.Dense, valueDependent bool) (*plan, bool, error) {
	key := newPlanKey(cfg, g.Rows(), g.Cols())
	if cfg.Partition == "balanced-row" || valueDependent {
		key.array = specArrayKey(spec)
	}
	return s.plans.getOrFill(key, func() (*plan, error) {
		built, err := core.NewPlan(g, cfg)
		if err != nil {
			return nil, err
		}
		return cachedPlan(key, built.Codec, built.Partition, built.Options.Method), nil
	})
}
