package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/dist"
	"repro/internal/format"
	"repro/internal/model"
	"repro/internal/mttkrp"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sketch"
	"repro/internal/sptensor"
)

// warmupIters is how many leading iterations of every solve are left out
// of the steady-state iteration sample: the first iterations of a fresh
// run touch newly allocated factor and scratch memory and run measurably
// slower than the rest.
const warmupIters = 2

// legSpec is what the parent hands a solver child process: which engine to
// drive, on which input file, at how many workers, for how long.
type legSpec struct {
	Kind    string  `json:"kind"` // "core" or "dist"
	File    string  `json:"file"`
	Workers int     `json:"workers"` // tasks (core) or locales (dist)
	Rank    int     `json:"rank"`
	Iters   int     `json:"iters"`
	Budget  float64 `json:"budget_s"` // timed solves repeat until this is spent
	MinReps int     `json:"min_reps"`
	// Trace splits the budget into an untraced and a traced half and then
	// times each layer on the leg's tensor.
	Trace  bool  `json:"trace"`
	Origin int64 `json:"origin_unix_ns"` // the parent tracer's clock origin
}

// pass is the outcome of repeated timed solves.
type pass struct {
	Setup      []float64          `json:"setup_s"`
	Solve      []float64          `json:"solve_s"`
	Iter       []float64          `json:"iter_s"` // steady-state iterations only
	Fit        float64            `json:"fit"`
	FitHistory []float64          `json:"fit_history"`
	Times      map[string]float64 `json:"times"` // the program's own Report.Times
	Strategies []string           `json:"strategies,omitempty"`
	// dist only
	CommBytes []int64   `json:"comm_bytes,omitempty"`
	CommS     []float64 `json:"comm_s,omitempty"`
	MTTKRPS   []float64 `json:"mttkrp_s,omitempty"`
	Imbalance float64   `json:"imbalance,omitempty"`
}

type legOut struct {
	LoadS     float64            `json:"load_s"`
	Untraced  pass               `json:"untraced"`
	Traced    *pass              `json:"traced,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
}

// runLeg is the child-process entry point: it loads the input, runs the
// timed solves, and prints one JSON legOut on stdout.
func runLeg(specJSON string) error {
	var sp legSpec
	if err := json.Unmarshal([]byte(specJSON), &sp); err != nil {
		return fmt.Errorf("leg spec: %w", err)
	}
	tr := newTracer(sp.Trace, "")
	tr.origin = time.Unix(0, sp.Origin)
	var out legOut
	t0 := time.Now()
	id := tr.begin("sptensor.LoadTensorReader", 0)
	t, err := loadBinary(sp.File)
	tr.end(id)
	if err != nil {
		return err
	}
	out.LoadS = time.Since(t0).Seconds()

	budget := sp.Budget
	if sp.Trace {
		budget /= 2
	}
	// The untraced solves record no spans of their own; one span around
	// them keeps their time out of the unattributed remainder.
	id = tr.begin("untraced solves", 0)
	out.Untraced, err = solves(t, sp, budget, newTracer(false, ""))
	tr.end(id)
	if err != nil {
		return err
	}
	if sp.Trace {
		traced, err := solves(t, sp, budget, tr)
		if err != nil {
			return err
		}
		out.Traced = &traced
		pid := tr.begin("layers", 0)
		out.Layers, err = probeLayers(t, sp.Kind, sp.Rank, sp.Workers, tr, pid)
		tr.end(pid)
		if err != nil {
			return err
		}
		out.Layers["sptensor.load_s"] = out.LoadS
		out.Spans = tr.snapshot()
	}
	out.PeakRSSMB = peakRSSMB("self")
	return json.NewEncoder(os.Stdout).Encode(out)
}

// solves repeats one timed solve until the budget is spent, at least
// MinReps times.
func solves(t *sptensor.Tensor, sp legSpec, budget float64, tr *tracer) (pass, error) {
	var p pass
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for rep := 0; rep < sp.MinReps || time.Now().Before(deadline); rep++ {
		id := tr.begin("solve", 0)
		var err error
		if sp.Kind == "dist" {
			err = distSolve(t, sp, tr, id, &p)
		} else {
			err = coreSolve(t, sp, tr, id, &p)
		}
		tr.end(id)
		if err != nil {
			return p, err
		}
		// Collect the solve's garbage outside the timed region, so the
		// leg's peak RSS is one solve's working set over the loaded
		// tensor rather than depending on where the collector happened to
		// run.
		runtime.GC()
	}
	return p, nil
}

func coreOptions(rank, tasks, iters int) core.Options {
	o := core.DefaultOptions()
	o.Rank, o.Tasks, o.MaxIters, o.Tolerance = rank, tasks, iters, 0
	o.Format = format.Auto
	return o
}

// coreSolve times core.NewSession (set-up) and each Session.Iterate(1),
// the stepping API a library caller uses.
func coreSolve(t *sptensor.Tensor, sp legSpec, tr *tracer, parent int, p *pass) error {
	t0 := time.Now()
	id := tr.begin("core.NewSession", parent)
	s, err := core.NewSession(t, coreOptions(sp.Rank, sp.Workers, sp.Iters))
	tr.end(id)
	if err != nil {
		return err
	}
	defer s.Close()
	p.Setup = append(p.Setup, time.Since(t0).Seconds())
	for i := 0; i < sp.Iters; i++ {
		ti := time.Now()
		id := tr.begin("core.Session.Iterate", parent)
		s.Iterate(1)
		tr.end(id)
		if i >= warmupIters {
			p.Iter = append(p.Iter, time.Since(ti).Seconds())
		}
	}
	r := s.Report()
	p.Solve = append(p.Solve, time.Since(t0).Seconds())
	p.Fit, p.FitHistory, p.Times = r.Fit, r.FitHistory, r.Times
	p.Strategies = p.Strategies[:0]
	for _, st := range r.Strategies {
		p.Strategies = append(p.Strategies, st.String())
	}
	return nil
}

// distOptions is the yelp-dist configuration: locales × 1 task each.
func distOptions(rank, locales, iters int) dist.Options {
	o := dist.DefaultOptions()
	o.Locales, o.TasksPerLocale = locales, 1
	o.Rank, o.MaxIters, o.Tolerance = rank, iters, 0
	o.Format = format.Auto
	return o
}

// stampSink is the benchmark's own trace sink: it stamps the wall clock
// at every iteration event, so set-up and iteration lengths are measured
// by the benchmark rather than taken from the program's report.
type stampSink struct{ at []time.Time }

func (s *stampSink) RecordIteration(obs.IterEvent) { s.at = append(s.at, time.Now()) }

// distSolve times one dist.CPD call. Set-up is the time to the first
// iteration event minus that iteration's length (taken as the second
// iteration's, the first one the sink brackets on both sides).
func distSolve(t *sptensor.Tensor, sp legSpec, tr *tracer, parent int, p *pass) error {
	o := distOptions(sp.Rank, sp.Workers, sp.Iters)
	sink := &stampSink{at: make([]time.Time, 0, sp.Iters)}
	o.Trace = sink
	t0 := time.Now()
	id := tr.begin("dist.CPD", parent)
	_, r, err := dist.CPD(t, o)
	tr.end(id)
	if err != nil {
		return err
	}
	p.Solve = append(p.Solve, time.Since(t0).Seconds())
	if len(sink.at) < 2 {
		return fmt.Errorf("dist: %d iteration events, want >= 2", len(sink.at))
	}
	first := sink.at[0].Sub(t0)
	p.Setup = append(p.Setup, (first - sink.at[1].Sub(sink.at[0])).Seconds())
	for i := max(1, warmupIters); i < len(sink.at); i++ {
		p.Iter = append(p.Iter, sink.at[i].Sub(sink.at[i-1]).Seconds())
	}
	p.Fit, p.FitHistory = r.Fit, r.FitHistory
	p.CommBytes = append(p.CommBytes, r.CommBytes)
	p.CommS = append(p.CommS, r.CommSeconds)
	p.MTTKRPS = append(p.MTTKRPS, r.MTTKRPSeconds)
	p.Imbalance = r.ImbalanceRatio()
	p.Times = map[string]float64{"mttkrp": r.MTTKRPSeconds, "comm": r.CommSeconds, "total": r.TotalSeconds}
	return nil
}

// shard is one engine's view of the tensor: the whole tensor under one
// team of workers (core), or one locale's slab under its own 1-task team
// (dist), the layout dist.CPD gives each locale.
type shard struct {
	t       *sptensor.Tensor
	offsets []int // global coordinate of the shard's index 0, per mode
	team    *parallel.Team
	backend format.Backend
	factors []*dense.Matrix
	outs    []*dense.Matrix
	grams   []*dense.Matrix
	// dense-step scratch: normal matrix, right-hand side, factor copy
	v, rhs, a *dense.Matrix
	lambda    []float64
}

// shards lays t out the way the workload's engine does.
func shards(t *sptensor.Tensor, kind string, workers int) []*shard {
	if kind != "dist" {
		return []*shard{{t: t, offsets: make([]int, t.NModes()), team: parallel.NewTeam(workers)}}
	}
	var out []*shard
	for _, sl := range dist.PartitionSlabs(t, workers) {
		off := make([]int, t.NModes())
		off[0] = sl.Lo
		out = append(out, &shard{t: dist.ExtractSlab(t, sl), offsets: off, team: parallel.NewTeam(1)})
	}
	return out
}

// onShards runs fn on every shard at once, as the engine's locales run,
// and returns when all are done.
func onShards(ss []*shard, fn func(s *shard)) {
	if len(ss) == 1 {
		fn(ss[0])
		return
	}
	var wg sync.WaitGroup
	for _, s := range ss {
		wg.Add(1)
		go func() { defer wg.Done(); fn(s) }()
	}
	wg.Wait()
}

// probeLayers times each layer the ALS iteration is made of, one public
// call at a time, on tensor t at the given rank, in the layout the
// workload's engine runs: kind "dist" splits t into one mode-0 slab per
// locale, each with a 1-task team, and times every call as the wall time
// of all locales running it at once; otherwise one team of workers runs
// over the whole tensor. Every call runs under its own span; reported
// times are medians over repeats.
func probeLayers(t *sptensor.Tensor, kind string, rank, workers int, tr *tracer, parent int) (map[string]float64, error) {
	const reps = 3
	out := make(map[string]float64)
	ss := shards(t, kind, workers)
	defer onShards(ss, func(s *shard) { s.team.Close() })
	timed := func(name string, fn func()) float64 {
		id := tr.begin(name, parent)
		t0 := time.Now()
		fn()
		d := time.Since(t0).Seconds()
		tr.end(id)
		return d
	}
	var errs []error
	var mu sync.Mutex
	fail := func(err error) {
		if err != nil {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
	}
	o := coreOptions(rank, workers, 1)
	kopts := mttkrp.Options{Access: o.Access, Strategy: o.Strategy, LockKind: o.LockKind, PrivRatio: o.PrivRatio}
	alloc, sortVariant := o.Alloc, o.SortVariant
	if kind == "dist" {
		d := distOptions(rank, workers, 1)
		kopts = mttkrp.Options{Access: d.Access, Strategy: d.Strategy, LockKind: d.LockKind}
		alloc, sortVariant = d.Alloc, d.SortVariant
	}
	out["format.build_s"] = timed("format.Build", func() {
		onShards(ss, func(s *shard) {
			k := kopts
			k.Arena = parallel.NewArena(s.team.N())
			var err error
			s.backend, err = format.Build(s.t, format.Auto, format.Config{
				Team: s.team, Rank: rank, Kernel: k, Alloc: alloc, SortVariant: sortVariant,
			})
			fail(err)
		})
	})
	if len(errs) > 0 {
		return nil, errs[0]
	}
	var bytes int64
	for _, s := range ss {
		bytes += s.backend.MemoryBytes()
	}
	out["format.backend_bytes"] = float64(bytes)

	n := t.NModes()
	for i, s := range ss {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		s.factors = make([]*dense.Matrix, n)
		s.outs = make([]*dense.Matrix, n)
		s.grams = make([]*dense.Matrix, n)
		for m := 0; m < n; m++ {
			s.factors[m] = dense.NewRandomMatrix(s.t.Dims[m], rank, rng)
			s.outs[m] = dense.NewMatrix(s.t.Dims[m], rank)
			s.grams[m] = dense.NewMatrix(rank, rank)
		}
		s.v, s.lambda = dense.NewMatrix(rank, rank), make([]float64, rank)
	}
	sweep := 0.0
	locks := 0
	for m := 0; m < n; m++ {
		run := func(s *shard) { s.backend.MTTKRP(m, s.factors, s.outs[m]) }
		onShards(ss, run) // warm-up: lazily built scratch
		var ts []float64
		for r := 0; r < reps; r++ {
			ts = append(ts, timed(fmt.Sprintf("mttkrp.mode%d", m), func() { onShards(ss, run) }))
		}
		out[fmt.Sprintf("mttkrp.mode%d_s", m)] = median(ts)
		sweep += median(ts)
		for _, s := range ss {
			if s.backend.StrategyFor(m) == mttkrp.StrategyLock {
				locks++
				break
			}
		}
	}
	flops := 2 * float64(t.NNZ()) * float64(rank) * float64(n-1) * float64(n)
	out["mttkrp.gflops"] = flops / sweep / 1e9
	out["mttkrp.lock_modes"] = float64(locks)

	// One iteration's dense work: per mode a Gram, a normal-equations
	// solve against the Hadamard product of the other Grams, and a column
	// normalization. Dist locales repeat the replicated modes' work on
	// identical full-length factors and split only mode 0.
	var gram, solve, norm []float64
	for r := 0; r < reps; r++ {
		g, sv, z := 0.0, 0.0, 0.0
		for m := 0; m < n; m++ {
			g += timed("dense.Syrk", func() {
				onShards(ss, func(s *shard) { dense.Syrk(s.team, s.factors[m], s.grams[m]) })
			})
		}
		for m := 0; m < n; m++ {
			for _, s := range ss {
				s.v.Fill(1)
				for k := 0; k < n; k++ {
					if k != m {
						dense.HadamardProduct(s.v, s.grams[k])
					}
				}
				s.rhs, s.a = s.outs[m].Clone(), s.factors[m].Clone()
			}
			sv += timed("dense.SolveNormals", func() {
				onShards(ss, func(s *shard) { dense.SolveNormals(s.team, s.v, s.rhs) })
			})
			z += timed("dense.NormalizeColumns", func() {
				onShards(ss, func(s *shard) { dense.NormalizeColumns(s.team, s.a, s.lambda, dense.Norm2) })
			})
		}
		gram, solve, norm = append(gram, g), append(solve, sv), append(norm, z)
	}
	out["dense.gram_s"], out["dense.solve_s"], out["dense.normalize_s"] = median(gram), median(solve), median(norm)

	// The sampler ARLS builds over each backend, in global coordinates.
	out["sketch.build_s"] = timed("sketch.NewSampler", func() {
		onShards(ss, func(s *shard) {
			_, err := sketch.NewSampler(s.backend, t.Dims, sketch.Config{Rank: rank, Seed: 1, Team: s.team, Offsets: s.offsets})
			fail(err)
		})
	})
	if len(errs) > 0 {
		return nil, errs[0]
	}

	// ALS iterations through the workload's engine, past its warm-up
	// iterations.
	const engineIters = warmupIters + 3
	var iters []float64
	var k *core.KruskalTensor
	if kind == "dist" {
		sink := &stampSink{at: make([]time.Time, 0, engineIters)}
		d := distOptions(rank, workers, engineIters)
		d.Trace = sink
		var err error
		timed("dist.CPD", func() { k, _, err = dist.CPD(t, d) })
		if err != nil {
			return nil, err
		}
		for i := warmupIters; i < len(sink.at); i++ {
			iters = append(iters, sink.at[i].Sub(sink.at[i-1]).Seconds())
		}
	} else {
		var sess *core.Session
		var err error
		timed("core.NewSession", func() { sess, err = core.NewSession(t, coreOptions(rank, workers, engineIters)) })
		if err != nil {
			return nil, err
		}
		defer sess.Close()
		for i := 0; i < engineIters; i++ {
			d := timed("core.Session.Iterate", func() { sess.Iterate(1) })
			if i >= warmupIters {
				iters = append(iters, d)
			}
		}
		k = sess.Model()
	}
	out["core.iter_s"] = median(iters)
	out["core.other_s"] = out["core.iter_s"] - sweep - out["dense.gram_s"] - out["dense.solve_s"] - out["dense.normalize_s"]

	var mdl *model.Model
	var err error
	out["model.build_s"] = timed("model.Build", func() { mdl, err = model.Build(k) })
	if err != nil {
		return nil, err
	}
	q, err := modelKernels(mdl, 200, tr, parent)
	if err != nil {
		return nil, err
	}
	for k, v := range q {
		out[k] = v
	}
	return out, nil
}

// modelKernels times the three query kernels splatt-serve answers with,
// in-process, over the same query mix the stream-serve generator sends.
func modelKernels(mdl *model.Model, per int, tr *tracer, parent int) (map[string]float64, error) {
	ws := model.NewWorkspace()
	dims := mdl.Dims()
	rng := rand.New(rand.NewSource(2))
	buf := make([]model.Item, 0, queryK)
	var topk, similar, entry []float64
	id := tr.begin("model.queries", parent)
	defer tr.end(id)
	for i := 0; i < per; i++ {
		coord := randCoord(rng, dims)
		t0 := time.Now()
		items, err := mdl.TopK(ws, topkMode, coord, queryK, buf)
		topk = append(topk, time.Since(t0).Seconds()*1e6)
		if err != nil {
			return nil, err
		}
		if len(items) != queryK {
			return nil, fmt.Errorf("model: topk returned %d items, want %d", len(items), queryK)
		}
		t0 = time.Now()
		_, err = mdl.Similar(ws, similarMode, coord[similarMode], queryK, buf)
		similar = append(similar, time.Since(t0).Seconds()*1e6)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		_, err = mdl.At(ws, coord)
		entry = append(entry, time.Since(t0).Seconds()*1e6)
		if err != nil {
			return nil, err
		}
	}
	return map[string]float64{
		"model.topk_us":    median(topk),
		"model.similar_us": median(similar),
		"model.entry_us":   median(entry),
	}, nil
}

// The model query mix: top-k over the last mode (the longest of the yelp
// and nell-2 twins) and similar-rows over the first.
const (
	queryK      = 10
	topkMode    = 2
	similarMode = 0
)

func randCoord(rng *rand.Rand, dims []int) []int {
	c := make([]int, len(dims))
	for m, d := range dims {
		c[m] = rng.Intn(d)
	}
	return c
}
