// Package dist implements the paper's §VII future-work item: distributed-
// memory CP-ALS. It simulates a multi-locale machine with SPMD goroutines —
// one per "locale" — each owning a coarse-grained mode-0 slab of the tensor
// as its own CSF, exchanging data only through explicit collectives
// (allreduce over partial MTTKRP outputs and Gram matrices, allgather over
// mode-0 factor rows) whose traffic is accounted in the Report.
//
// The decomposition follows the coarse-grained/allreduce family of
// distributed CP-ALS algorithms (SPLATT's medium-grained ancestor, and the
// design the paper cites as reference [16]): mode-0 factor rows are owned
// by the locale holding their slab, while every other factor matrix is
// fully replicated and kept consistent by reducing the locales' partial
// MTTKRPs before each least-squares update. Reductions combine locale
// contributions in a fixed order, so all replicas remain bitwise identical
// and results match shared-memory core.CPD up to floating-point
// reassociation.
package dist

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/csf"
	"repro/internal/dense"
	"repro/internal/format"
	"repro/internal/locks"
	"repro/internal/mttkrp"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/sketch"
	"repro/internal/sptensor"
	"repro/internal/tsort"
)

// Options configures one distributed CP-ALS run. The kernel knobs mirror
// core.Options so the paper's shared-memory axes compose with the locale
// axis (every locale runs the selected kernel configuration internally).
type Options struct {
	// Locales is the simulated world size (>= 1). 1 short-circuits to the
	// shared-memory path with zero communication.
	Locales int
	// Rank is the decomposition rank R.
	Rank int
	// MaxIters caps ALS iterations.
	MaxIters int
	// Tolerance stops iteration once |fit − fit_prev| < Tolerance; zero
	// disables early stopping.
	Tolerance float64
	// Seed fixes factor initialization (shared by all locales).
	Seed int64
	// TasksPerLocale is each locale's intra-locale team size (0 = 1).
	TasksPerLocale int

	// Access / LockKind / Strategy / SortVariant / Alloc / Format select
	// the intra-locale kernel configuration, as in core.Options. Each
	// locale stores its shard in the selected format (Auto resolves per
	// shard, so a skewed shard may linearize while a regular one keeps the
	// fiber tree).
	Access      mttkrp.AccessMode
	LockKind    locks.Kind
	Strategy    mttkrp.ConflictStrategy
	SortVariant tsort.Variant
	Alloc       csf.AllocPolicy
	Format      format.Spec

	// NonNegative and Ridge mirror the constrained-CP options.
	NonNegative bool
	Ridge       float64

	// Solver selects the factor-update algorithm (als|arls|auto), as in
	// core.Options. The choice is resolved once for the whole world — never
	// per shard — so every locale runs the same update schedule and the
	// collectives stay aligned; sampled draws are seed-split per
	// (iteration, mode) from Seed, making every locale's sample set
	// identical without communication. Samples and RefineIters mirror
	// core.Options.
	Solver      sketch.Solver
	Samples     int
	RefineIters int

	// Ctx, when non-nil, is polled once per ALS iteration: the locales
	// allreduce a cancellation flag so every replica stops at the same
	// iteration boundary (the collectives stay aligned), the report is
	// marked Cancelled, and CPD returns the partial model with ctx.Err().
	// A nil Ctx never cancels.
	Ctx context.Context

	// Trace, when non-nil, receives one obs.IterEvent per completed ALS
	// iteration. Replicated state is bitwise identical across locales, so
	// locale 0 emits on behalf of the world; its MTTKRP clock (the
	// per-locale timing the Report already surfaces as MTTKRPSeconds)
	// fills the routine snapshot. The locales=1 fast path delegates to the
	// shared-memory engine, which traces every routine.
	Trace obs.TraceSink

	// Spans, when non-nil, receives phase-level spans: each locale
	// records into Spans.Recorder(lid), and the comm fabric charges every
	// collective to the calling locale's recorder, so comm-phase
	// aggregates agree bitwise with the Report's per-op seconds. The
	// profiler should be built with at least Locales recorders (a smaller
	// one shares its last recorder). Recording is allocation-free; see
	// obs.NewProfiler for the retention knob.
	Spans *obs.Profiler
}

// DefaultOptions returns a 2-locale configuration with the paper's ALS
// parameters (rank 35, 20 iterations, serial locales).
func DefaultOptions() Options {
	return Options{
		Locales:        2,
		Rank:           35,
		MaxIters:       20,
		Seed:           1,
		TasksPerLocale: 1,
		Access:         mttkrp.AccessReference,
		LockKind:       locks.Spin,
		Strategy:       mttkrp.StrategyAuto,
		Alloc:          csf.AllocTwo,
	}
}

// Validate sanity-checks option values.
func (o Options) Validate() error {
	if o.Locales < 1 {
		return fmt.Errorf("dist: locales %d < 1", o.Locales)
	}
	if o.Rank <= 0 {
		return fmt.Errorf("dist: rank %d <= 0", o.Rank)
	}
	if o.MaxIters <= 0 {
		return fmt.Errorf("dist: max iterations %d <= 0", o.MaxIters)
	}
	if o.Tolerance < 0 {
		return fmt.Errorf("dist: tolerance %g < 0", o.Tolerance)
	}
	if o.TasksPerLocale < 0 {
		return fmt.Errorf("dist: tasks per locale %d < 0", o.TasksPerLocale)
	}
	if o.Ridge < 0 {
		return fmt.Errorf("dist: ridge %g < 0", o.Ridge)
	}
	if o.Samples < 0 {
		return fmt.Errorf("dist: samples %d < 0", o.Samples)
	}
	if o.RefineIters < 0 {
		return fmt.Errorf("dist: refine iterations %d < 0", o.RefineIters)
	}
	return nil
}

// coreOptions maps the distributed options onto a core.Options for the
// single-locale fast path and for documentation of the per-locale kernel
// configuration.
func (o Options) coreOptions() core.Options {
	co := core.DefaultOptions()
	co.Rank = o.Rank
	co.MaxIters = o.MaxIters
	co.Tolerance = o.Tolerance
	co.Seed = o.Seed
	co.Tasks = o.TasksPerLocale
	if co.Tasks < 1 {
		co.Tasks = 1
	}
	co.Access = o.Access
	co.LockKind = o.LockKind
	co.Strategy = o.Strategy
	co.SortVariant = o.SortVariant
	co.Alloc = o.Alloc
	co.Format = o.Format
	co.NonNegative = o.NonNegative
	co.Ridge = o.Ridge
	co.Solver = o.Solver
	co.Samples = o.Samples
	co.RefineIters = o.RefineIters
	co.Ctx = o.Ctx
	co.Trace = o.Trace
	co.Spans = o.Spans
	return co
}

// resolveSolver fixes the world-uniform solver before any locale spawns:
// Auto resolves from the full tensor (not per shard), and an ARLS request
// falls back to exact ALS when the tensor cannot be sampled (complement
// index space beyond 64 bits) — the same check every locale would hit.
func resolveSolver(t *sptensor.Tensor, opts Options) sketch.Solver {
	solver := opts.Solver
	if solver == sketch.Auto {
		solver, _ = sketch.Choose(t.NNZ(), t.Dims, opts.Rank)
	}
	if solver != sketch.ARLS {
		return sketch.ALS
	}
	// A budget the refinement pass fully consumes runs exact everywhere.
	if sketch.SampledIters(opts.MaxIters, opts.RefineIters) == 0 {
		return sketch.ALS
	}
	// A nil-source sampler performs only the encodability checks.
	if _, err := sketch.NewSampler(nil, t.Dims, sketch.Config{Rank: opts.Rank}); err != nil {
		return sketch.ALS
	}
	return sketch.ARLS
}

// CPD factors t into a rank-R Kruskal model with distributed CP-ALS over
// opts.Locales simulated locales. The input tensor is not modified.
func CPD(t *sptensor.Tensor, opts Options) (*core.KruskalTensor, *Report, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, nil, err
	}
	if t.NModes() < 2 {
		return nil, nil, fmt.Errorf("dist: order-%d tensor (need >= 2 modes)", t.NModes())
	}
	if opts.Locales == 1 {
		return cpdSingle(t, opts)
	}

	start := time.Now()
	world := opts.Locales
	solver := resolveSolver(t, opts)
	slabs := PartitionSlabs(t, world)
	fabric := newComm(world, t.Dims[0]*opts.Rank)
	fabric.attach(opts.Spans)
	seed := core.NewRandomKruskal(t.Dims, opts.Rank, opts.Seed)
	locales := make([]*locale, world)
	var setup sync.WaitGroup
	for lid := 0; lid < world; lid++ {
		setup.Add(1)
		go func(lid int) {
			defer setup.Done()
			locales[lid] = newLocale(lid, slabs[lid], t, seed, solver, opts)
		}(lid)
	}
	setup.Wait()
	for _, lc := range locales {
		if lc.err != nil {
			for _, l := range locales {
				l.team.Close()
			}
			return nil, nil, fmt.Errorf("dist: locale %d backend: %w", lc.lid, lc.err)
		}
	}

	var wg sync.WaitGroup
	for _, lc := range locales {
		wg.Add(1)
		go func(lc *locale) {
			defer wg.Done()
			lc.run(fabric, opts, start)
		}(lc)
	}
	wg.Wait()

	report := &Report{
		Locales:      world,
		Iterations:   locales[0].iterations,
		Fit:          locales[0].fit,
		FitHistory:   locales[0].fitHistory,
		Cancelled:    locales[0].cancelled,
		Solver:       solver.String(),
		SampledIters: locales[0].sampledIters,
		ShardRows:    make([]int, world),
		ShardNNZ:     make([]int, world),
	}
	if locales[0].op != nil {
		report.Format = locales[0].op.Format().String()
	} else if spec := opts.Format; spec == format.Auto {
		resolved, _ := format.Choose(t)
		report.Format = resolved.String()
	} else {
		report.Format = spec.String()
	}
	for lid, s := range slabs {
		report.ShardRows[lid] = s.Rows()
		report.ShardNNZ[lid] = s.NNZ
	}
	for _, lc := range locales {
		if lc.mttkrpSeconds > report.MTTKRPSeconds {
			report.MTTKRPSeconds = lc.mttkrpSeconds
		}
	}
	fabric.fill(report)
	report.TotalSeconds = time.Since(start).Seconds()
	if report.Cancelled {
		return locales[0].k, report, opts.Ctx.Err()
	}
	return locales[0].k, report, nil
}

// cpdSingle is the locales=1 fast path: plain shared-memory CP-ALS with a
// distributed-shaped report (zero communication, one shard).
func cpdSingle(t *sptensor.Tensor, opts Options) (*core.KruskalTensor, *Report, error) {
	start := time.Now()
	k, cr, err := core.CPD(t, opts.coreOptions())
	if cr == nil {
		return nil, nil, err
	}
	report := &Report{
		Locales:       1,
		Iterations:    cr.Iterations,
		Fit:           cr.Fit,
		FitHistory:    cr.FitHistory,
		Cancelled:     cr.Cancelled,
		Format:        cr.Format,
		Solver:        cr.Solver,
		SampledIters:  cr.SampledIters,
		ShardRows:     []int{t.Dims[0]},
		ShardNNZ:      []int{t.NNZ()},
		MTTKRPSeconds: cr.Times[perf.RoutineMTTKRP],
		TotalSeconds:  time.Since(start).Seconds(),
	}
	return k, report, err
}

// locale is one SPMD participant: a slab of the tensor stored as its own
// CSF set, a full replica of the model, and the scratch of a shared-memory
// CP-ALS engine scoped to its shard.
type locale struct {
	lid  int
	slab Slab

	local *sptensor.Tensor // slab tensor, mode 0 in local coordinates
	team  *parallel.Team
	arena *parallel.Arena  // per-locale workspace arena
	ws    *dense.Workspace // allocation-free dense routines for the loop
	op    format.Backend   // nil when the shard holds no nonzeros
	err   error            // backend build failure (surfaced after setup)

	k       *core.KruskalTensor // full factor replica (all modes)
	a0      *dense.Matrix       // view of the owned mode-0 rows
	factors []*dense.Matrix     // {a0, replica A1, A2, ...} for the operator
	grams   []*dense.Matrix
	v       *dense.Matrix
	gbuf    *dense.Matrix // model-norm scratch for the fit evaluation
	mbuf    *dense.Matrix
	mrows   []*dense.Matrix // per-mode views into mbuf, built once
	colbuf  []float64
	invbuf  []float64
	normX   float64

	fit           float64
	fitHistory    []float64
	iterations    int
	cancelled     bool
	mttkrpSeconds float64

	// rec is this locale's span recorder (nil without a profiler). Comm
	// spans are charged by the fabric; the locale charges its compute
	// phases. Collectives embedded in a compute segment (e.g. the
	// normalization allreduce) nest inside that segment's span, so
	// subtract comm phases from compute phases for pure-compute time.
	rec *obs.SpanRecorder

	// Sampled-solver state (nil / zero for the exact solver). Every locale
	// holds identical leverage tables and draws identical samples (same
	// seed, same replicated factors), so the sampled schedule needs no
	// extra coordination.
	solver       sketch.Solver
	sampler      *sketch.Sampler
	vs           *dense.Matrix
	sampledIters int
}

// newLocale extracts locale lid's shard and builds its local engine.
func newLocale(lid int, slab Slab, t *sptensor.Tensor, seed *core.KruskalTensor,
	solver sketch.Solver, opts Options) *locale {
	r := opts.Rank
	order := t.NModes()
	tasks := opts.TasksPerLocale
	if tasks < 1 {
		tasks = 1
	}
	lc := &locale{
		lid:   lid,
		slab:  slab,
		local: ExtractSlab(t, slab),
		team:  parallel.NewTeam(tasks),
		arena: parallel.NewArena(tasks),
		k:     seed.Clone(),
		grams: make([]*dense.Matrix, order),
		v:     dense.NewMatrix(r, r),
		gbuf:  dense.NewMatrix(r, r),
	}
	if opts.Spans != nil {
		lc.rec = opts.Spans.Recorder(lid)
	}
	lc.ws = dense.NewWorkspace(lc.team, lc.arena, r)
	lc.a0 = dense.NewMatrixFrom(slab.Rows(), r, lc.k.Factors[0].Data[slab.Lo*r:slab.Hi*r])
	lc.factors = make([]*dense.Matrix, order)
	lc.factors[0] = lc.a0
	for m := 1; m < order; m++ {
		lc.factors[m] = lc.k.Factors[m]
	}
	maxDim := 0
	for _, d := range t.Dims {
		if d > maxDim {
			maxDim = d
		}
	}
	lc.mbuf = dense.NewMatrix(maxDim, r)
	lc.mrows = make([]*dense.Matrix, order)
	for m, dim := range t.Dims {
		rows := dim
		if m == 0 {
			rows = slab.Rows()
		}
		lc.mrows[m] = dense.NewMatrixFrom(rows, r, lc.mbuf.Data[:rows*r])
	}
	lc.colbuf = make([]float64, r)
	lc.invbuf = make([]float64, r)
	for m := range lc.grams {
		lc.grams[m] = dense.NewMatrix(r, r)
	}
	if lc.local.NNZ() > 0 {
		var span int64
		if lc.rec != nil {
			span = lc.rec.Start()
		}
		lc.op, lc.err = format.Build(lc.local, opts.Format, format.Config{
			Team: lc.team,
			Rank: r,
			Kernel: mttkrp.Options{
				Access:   opts.Access,
				Strategy: opts.Strategy,
				LockKind: opts.LockKind,
				Arena:    lc.arena,
			},
			Alloc:       opts.Alloc,
			SortVariant: opts.SortVariant,
		})
		if lc.rec != nil {
			lc.rec.End(obs.PhaseBuild, span)
		}
	}
	lc.solver = solver
	if solver == sketch.ARLS && lc.err == nil {
		// The shard's coordinates are local in mode 0; the offset puts the
		// sampler in global coordinate space so all locales draw from (and
		// key fibers by) the same index domain. Empty shards still build a
		// sampler: they contribute zero rows but must compute the identical
		// sampled normal matrix.
		offsets := make([]int, order)
		offsets[0] = slab.Lo
		var src sketch.NonzeroSource
		if lc.op != nil {
			src = lc.op
		}
		lc.sampler, lc.err = sketch.NewSampler(src, t.Dims, sketch.Config{
			Rank:    r,
			Samples: opts.Samples,
			Seed:    opts.Seed,
			Offsets: offsets,
			Team:    lc.team,
		})
		if lc.sampler != nil {
			lc.sampler.SetSpans(lc.rec)
		}
		lc.vs = dense.NewMatrix(r, r)
	}
	return lc
}

// run executes the SPMD body of one locale. Every locale calls the same
// collectives in the same order; replicated state (V, non-slab factors,
// Grams, λ, fit) is combined in locale order, so it stays bitwise identical
// across locales and the early-stopping decision is uniform.
func (lc *locale) run(c *comm, opts Options, started time.Time) {
	defer lc.team.Close()
	order := lc.k.Order()

	lc.normX = c.AllreduceScalar(lc.lid, lc.local.NormSquared())

	// Initial Grams: the mode-0 Gram is reduced from per-slab partials; the
	// replicated modes compute identical full Grams locally.
	gramSpan := lc.spanStart()
	lc.ws.Syrk(lc.a0, lc.grams[0])
	c.AllreduceSum(lc.lid, lc.grams[0].Data)
	for m := 1; m < order; m++ {
		lc.ws.Syrk(lc.k.Factors[m], lc.grams[m])
	}
	lc.spanEnd(obs.PhaseGram, gramSpan, -1)

	// Sampled phase budget — a deterministic function of the uniform
	// options, so every locale runs the same schedule without coordination.
	sampledLeft := 0
	if lc.solver == sketch.ARLS {
		sampledLeft = sketch.SampledIters(opts.MaxIters, opts.RefineIters)
		for m := 0; m < order; m++ {
			lc.sampler.RefreshLeverage(m, lc.k.Factors[m], lc.grams[m])
		}
	}

	oldFit := 0.0
	prevSampled := false
	for it := 0; it < opts.MaxIters; it++ {
		if opts.Ctx != nil {
			// Every locale contributes its view of the context to a sum
			// reduction, so the stop decision is uniform even if locales
			// observe the cancellation at slightly different times.
			flag := 0.0
			if opts.Ctx.Err() != nil {
				flag = 1
			}
			if c.AllreduceScalar(lc.lid, flag) > 0 {
				lc.cancelled = true
				break
			}
		}
		sampled := sampledLeft > 0
		iterSpan := lc.spanStart()
		for m := 0; m < order; m++ {
			lc.updateMode(c, m, it, sampled, opts)
		}
		fitSpan := lc.spanStart()
		var fit float64
		if sampled {
			fit = lc.estimateFit(c, it)
			lc.sampledIters++
			sampledLeft--
		} else {
			fit = lc.computeFit()
		}
		lc.spanEnd(obs.PhaseFit, fitSpan, -1)
		iterPhase := obs.PhaseIteration
		if lc.solver == sketch.ARLS && !sampled {
			iterPhase = obs.PhaseRefine
		}
		lc.spanEnd(iterPhase, iterSpan, it+1)
		lc.fitHistory = append(lc.fitHistory, fit)
		lc.iterations = it + 1
		// Locale 0 reports the world's progress: fit and λ are replicated,
		// so its view is every locale's view.
		if lc.lid == 0 && opts.Trace != nil {
			opts.Trace.RecordIteration(obs.IterEvent{
				Iteration: it + 1,
				Fit:       fit,
				Delta:     fit - oldFit,
				Sampled:   sampled,
				Seconds:   time.Since(started).Seconds(),
				Routines:  obs.RoutineSnapshot{MTTKRP: lc.mttkrpSeconds},
			})
		}
		// Mirrors core: a converged sampled phase hands over to exact
		// refinement; the first exact iteration after the switch skips the
		// test (its predecessor fit was an estimate). The fit is identical
		// on every locale (allreduced or replicated), so the decision is
		// uniform.
		if opts.Tolerance > 0 && it > 0 && prevSampled == sampled &&
			math.Abs(fit-oldFit) < opts.Tolerance {
			if sampled {
				sampledLeft = 0
			} else {
				oldFit = fit
				break
			}
		}
		oldFit = fit
		prevSampled = sampled
	}
	lc.fit = oldFit
}

// estimateFit is the sampled-phase fit estimate: each locale estimates its
// shard's share of ⟨X, model⟩ from a seeded uniform nonzero subset (salted
// by locale id), the shares are summed with one allreduce, and the model
// norm comes exactly from the replicated Grams. Every locale returns the
// identical value.
func (lc *locale) estimateFit(c *comm, it int) float64 {
	part := 0.0
	if lc.sampler != nil {
		part = lc.sampler.EstimateInner(it, uint64(lc.lid), lc.k.Lambda, lc.k.Factors)
	}
	inner := c.AllreduceScalar(lc.lid, part)
	modelNorm2 := lc.k.NormSquaredFromGramsInto(lc.grams, lc.gbuf)
	residual2 := lc.normX + modelNorm2 - 2*inner
	if residual2 < 0 {
		residual2 = 0
	}
	if lc.normX <= 0 {
		return 0
	}
	return 1 - math.Sqrt(residual2)/math.Sqrt(lc.normX)
}

// updateMode performs one distributed least-squares factor update.
//
// Mode 0 (slab-owned rows): the local MTTKRP writes only owned rows, so
// the update, normalization partials, and Gram partial are computed on the
// shard and combined with one allreduce (norms), one allreduce (Gram), and
// one allgather (rows) — no nonzero ever leaves its locale.
//
// Modes >= 1 (replicated): each locale computes a partial MTTKRP over the
// full mode dimension from its shard, the partials are allreduced, and the
// solve/normalize/Gram steps run redundantly on identical inputs, keeping
// every replica consistent without further traffic.
func (lc *locale) updateMode(c *comm, m, iter int, sampled bool, opts Options) {
	r := opts.Rank
	factor := lc.k.Factors[m]

	// The normal matrix of the least-squares solve: the exact path takes
	// V ← ∘_{n≠m} A(n)ᵀA(n) (identical on all locales, from replicated
	// Grams); the sampled path takes HᵀWH over the drawn Khatri-Rao rows
	// (identical on all locales: same seed, same leverage tables). The
	// sampled M is filled inside applyMTTKRP below.
	v := lc.v
	if sampled {
		v = lc.vs
	} else {
		gramSpan := lc.spanStart()
		dense.HadamardOfGrams(lc.v, lc.grams, m)
		lc.spanEnd(obs.PhaseGram, gramSpan, m)
	}

	kind := dense.NormMax
	if iter == 0 {
		kind = dense.Norm2
	}

	if m == 0 {
		// Mode 0 writes only the slab-owned rows: sampled or exact, no
		// reduction of M is needed.
		mrows := lc.mrows[0]
		if sampled {
			lc.applySampledMTTKRP(0, iter, mrows)
		} else {
			lc.applyMTTKRP(0, mrows)
		}
		solveSpan := lc.spanStart()
		lc.addRidge(v, opts)
		lc.a0.CopyFrom(mrows)
		lc.ws.SolveNormals(v, lc.a0)
		lc.clampNonNegative(lc.a0, opts)
		lc.spanEnd(obs.PhaseSolve, solveSpan, 0)
		normSpan := lc.spanStart()
		lc.normalizeOwnedRows(c, kind)
		lc.spanEnd(obs.PhaseNormalize, normSpan, 0)
		gramSpan := lc.spanStart()
		lc.ws.Syrk(lc.a0, lc.grams[0])
		c.AllreduceSum(lc.lid, lc.grams[0].Data)
		lc.spanEnd(obs.PhaseGram, gramSpan, 0)
		c.AllgatherRows(lc.lid, lc.slab.Lo, lc.slab.Hi, r, factor.Data)
		lc.refreshLeverage(m, sampled)
		return
	}

	mrows := lc.mrows[m]
	if sampled {
		lc.applySampledMTTKRP(m, iter, mrows)
	} else {
		lc.applyMTTKRP(m, mrows)
	}
	// Replicated modes reduce the per-shard partial M — the same collective
	// for both solvers, so sampled and exact runs stay aligned.
	c.AllreduceSum(lc.lid, mrows.Data)
	solveSpan := lc.spanStart()
	lc.addRidge(v, opts)
	factor.CopyFrom(mrows)
	lc.ws.SolveNormals(v, factor)
	lc.clampNonNegative(factor, opts)
	lc.spanEnd(obs.PhaseSolve, solveSpan, m)
	normSpan := lc.spanStart()
	lc.ws.NormalizeColumns(factor, lc.k.Lambda, kind)
	lc.spanEnd(obs.PhaseNormalize, normSpan, m)
	gramSpan := lc.spanStart()
	lc.ws.Syrk(factor, lc.grams[m])
	lc.spanEnd(obs.PhaseGram, gramSpan, m)
	lc.refreshLeverage(m, sampled)
}

// spanStart opens a phase span (no-op handle without a recorder).
func (lc *locale) spanStart() int64 {
	if lc.rec == nil {
		return 0
	}
	return lc.rec.Start()
}

// spanEnd closes a phase span (no-op without a recorder).
func (lc *locale) spanEnd(p obs.Phase, start int64, mode int) {
	if lc.rec != nil {
		lc.rec.EndMode(p, start, mode)
	}
}

// addRidge adds the Tikhonov diagonal to the normal matrix (the exact path
// pre-ridged V during its Hadamard assembly historically; both paths now
// ridge here, after the sampled normal is available).
func (lc *locale) addRidge(v *dense.Matrix, opts Options) {
	if opts.Ridge <= 0 {
		return
	}
	for i := 0; i < opts.Rank; i++ {
		v.Set(i, i, v.At(i, i)+opts.Ridge)
	}
}

// refreshLeverage keeps mode m's sampling distribution in sync with the
// factor a sampled iteration just rewrote. Identical on every locale.
func (lc *locale) refreshLeverage(m int, sampled bool) {
	if sampled {
		span := lc.spanStart()
		lc.sampler.RefreshLeverage(m, lc.k.Factors[m], lc.grams[m])
		lc.spanEnd(obs.PhaseLeverage, span, m)
	}
}

// applySampledMTTKRP runs the sampled kernel into out (the shard's partial
// sampled M) and the locale's sampled normal matrix, charging the time to
// the locale's MTTKRP clock.
func (lc *locale) applySampledMTTKRP(m, iter int, out *dense.Matrix) {
	start := time.Now()
	lc.sampler.SampledMTTKRP(m, iter, lc.k.Factors, out, lc.vs)
	lc.mttkrpSeconds += time.Since(start).Seconds()
}

// applyMTTKRP runs the local kernel into out (zeroing it when the shard is
// empty) and charges the time to the locale's MTTKRP clock. With a span
// recorder, the span's clock is the MTTKRP clock, so the profiler's
// mttkrp phase matches Report.MTTKRPSeconds reading for reading.
func (lc *locale) applyMTTKRP(m int, out *dense.Matrix) {
	if lc.rec != nil {
		span := lc.rec.Start()
		if lc.op == nil {
			out.Zero()
		} else {
			lc.op.MTTKRP(m, lc.factors, out)
		}
		lc.mttkrpSeconds += float64(lc.rec.EndMode(obs.PhaseMTTKRP, span, m)) / 1e9
		return
	}
	start := time.Now()
	if lc.op == nil {
		out.Zero()
	} else {
		lc.op.MTTKRP(m, lc.factors, out)
	}
	lc.mttkrpSeconds += time.Since(start).Seconds()
}

// clampNonNegative projects the given rows onto the nonnegative orthant.
func (lc *locale) clampNonNegative(a *dense.Matrix, opts Options) {
	if opts.NonNegative {
		dense.ClampNonNegative(lc.team, a)
	}
}

// normalizeOwnedRows performs the distributed column normalization of the
// slab-partitioned mode-0 factor: per-shard norm partials, a sum (2-norm)
// or max (max-norm) allreduce, then each locale rescales only its rows.
// λ is set identically on every locale. Semantics match
// dense.NormalizeColumns, including SPLATT's max-norm clamp at 1.
func (lc *locale) normalizeOwnedRows(c *comm, kind dense.NormKind) {
	r := len(lc.colbuf)
	part := lc.colbuf
	for j := range part {
		part[j] = 0
	}
	switch kind {
	case dense.Norm2:
		for i := 0; i < lc.a0.Rows; i++ {
			row := lc.a0.Row(i)
			for j, v := range row {
				part[j] += v * v
			}
		}
		c.AllreduceSum(lc.lid, part)
		for j := 0; j < r; j++ {
			lc.k.Lambda[j] = math.Sqrt(part[j])
		}
	case dense.NormMax:
		for i := 0; i < lc.a0.Rows; i++ {
			row := lc.a0.Row(i)
			for j, v := range row {
				if av := math.Abs(v); av > part[j] {
					part[j] = av
				}
			}
		}
		c.AllreduceMax(lc.lid, part)
		for j := 0; j < r; j++ {
			m := part[j]
			if m < 1 {
				m = 1 // SPLATT's max-norm clamp
			}
			lc.k.Lambda[j] = m
		}
	}
	inv := lc.invbuf
	for j, l := range lc.k.Lambda {
		inv[j] = 0
		if l > 0 {
			inv[j] = 1 / l
		}
	}
	for i := 0; i < lc.a0.Rows; i++ {
		dense.VecMul(lc.a0.Row(i), inv)
	}
}

// computeFit evaluates the fit with SPLATT's inner-product identity, using
// the last mode's MTTKRP output still resident in mbuf. The last mode is
// replicated (order >= 2), so every locale computes the identical value
// without communication.
func (lc *locale) computeFit() float64 {
	last := lc.k.Order() - 1
	factor := lc.k.Factors[last]
	r := lc.k.Rank()
	inner := 0.0
	for i := 0; i < factor.Rows; i++ {
		frow := factor.Row(i)
		mrow := lc.mbuf.Data[i*r : i*r+r]
		for j := 0; j < r; j++ {
			inner += mrow[j] * frow[j] * lc.k.Lambda[j]
		}
	}
	modelNorm2 := lc.k.NormSquaredFromGramsInto(lc.grams, lc.gbuf)
	residual2 := lc.normX + modelNorm2 - 2*inner
	if residual2 < 0 {
		residual2 = 0
	}
	if lc.normX <= 0 {
		return 0
	}
	return 1 - math.Sqrt(residual2)/math.Sqrt(lc.normX)
}
