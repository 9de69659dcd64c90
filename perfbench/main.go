// Command perfbench is the repository's end-to-end benchmark. It
// generates each workload from a seed, drives the program only through its
// exported packages and the splatt-serve HTTP API, checks the outputs,
// and prints every metric by name and unit; the last line of standard
// output is a one-line JSON summary. See README.md.
//
//	perfbench --workload nell2-solve --seed 1 --seconds 10 --trace 0
//	perfbench compare base1.json base2.json -- head1.json head2.json
//	perfbench describe BENCHMARK.json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line summary: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// run is the state of one benchmark invocation.
type run struct {
	w        workload
	seed     int64
	seconds  float64
	trace    bool
	buildDir string
	root     string
	tr       *tracer

	metrics  map[string]float64 // summary metrics (end-to-end or per-layer)
	extra    map[string]float64 // workload-specific figures, printed only
	checks   []check
	notes    []string   // cross-check and provenance lines for the report
	traceDoc []traceSeg // segments whose unattributed remainder is reported

	mu          sync.Mutex // guards the counters below (two client goroutines)
	attempted   int
	failed      int
	noEnvelope  []string // error replies without the service's envelope
	jobsNotDone int
	shortTopK   int // topk replies with fewer than k items
}

// traceSeg is a stretch of the run under one root span; its unattributed
// remainder is the root's wall time its direct children do not cover.
type traceSeg struct {
	Name         string  `json:"name"`
	Root         int     `json:"root_span"`
	Wall         float64 `json:"wall_s"`
	Unattributed float64 `json:"unattributed_s"`
}

func (r *run) check(name string, ok bool, format string, args ...any) {
	r.ops(1, btoi(!ok))
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *run) ops(attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += attempted
	r.failed += failed
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "leg":
			if len(os.Args) != 3 {
				fatal(errors.New("usage: perfbench leg <spec-json>"))
			}
			if err := runLeg(os.Args[2]); err != nil {
				fatal(err)
			}
			return
		case "describe":
			path := "BENCHMARK.json"
			if len(os.Args) > 2 {
				path = os.Args[2]
			}
			if err := writeBenchmarkJSON(path); err != nil {
				fatal(err)
			}
			return
		case "compare":
			if err := compareCmd(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		}
	}
	var (
		name     = flag.String("workload", "", "workload: nell2-solve | yelp-dist | stream-serve")
		seed     = flag.Int64("seed", 1, "input generation seed")
		seconds  = flag.Float64("seconds", defaultRunSeconds, "measured seconds per run")
		traceOn  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		buildDir = flag.String("build-dir", ".bench_build", "build, input-cache and output directory")
		root     = flag.String("root", ".", "repository root (for the source stamp)")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fatal(fmt.Errorf("need --seconds > 0 and --trace 0|1"))
	}
	r := &run{
		w: w, seed: *seed, seconds: *seconds, trace: *traceOn == 1,
		buildDir: *buildDir, root: *root,
		tr:      newTracer(*traceOn == 1, fmt.Sprintf("%s/seed%d/%d", w.Name, *seed, time.Now().UnixNano())),
		metrics: map[string]float64{}, extra: map[string]float64{},
	}
	if err := r.execute(); err != nil {
		fatal(err)
	}
	if err := r.finish(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func (r *run) execute() error {
	dir, err := inputDir(filepath.Join(r.buildDir, "data"), r.w, r.seed)
	if err != nil {
		return fmt.Errorf("generating %s inputs: %w", r.w.Name, err)
	}
	switch r.w.Name {
	case "nell2-solve":
		return r.solver("core", filepath.Join(dir, "tensor.bin"))
	case "yelp-dist":
		return r.solver("dist", filepath.Join(dir, "tensor.bin"))
	default:
		return r.streamServe(dir)
	}
}

// nproc is the worker count of every workload's parallel leg.
var nproc = runtime.NumCPU()

// leg runs one solver leg in a fresh child process and decodes its output.
func (r *run) leg(sp legSpec) (legOut, error) {
	var out legOut
	sp.Origin = r.tr.origin.UnixNano()
	b, err := json.Marshal(sp)
	if err != nil {
		return out, err
	}
	self, err := os.Executable()
	if err != nil {
		return out, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "leg", string(b))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return out, fmt.Errorf("%s leg (workers=%d): %w", sp.Kind, sp.Workers, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return out, fmt.Errorf("%s leg output: %w", sp.Kind, err)
	}
	return out, nil
}

// solver runs the nell2-solve and yelp-dist workloads. Untraced, it
// alternates child processes at nproc workers and at 1 worker, so drift in
// the machine's load falls on both sides of the scaling figure; traced, it
// runs one nproc leg that also times every layer.
func (r *run) solver(kind, file string) error {
	sp := legSpec{Kind: kind, File: file, Workers: nproc, Rank: r.w.Rank, Iters: r.w.Iters,
		Budget: r.seconds, MinReps: 3, Trace: r.trace}
	if r.trace {
		id := r.tr.begin(fmt.Sprintf("leg.workers=%d", nproc), 0)
		par, err := r.leg(sp)
		r.tr.end(id)
		if err != nil {
			return err
		}
		r.tr.adopt(par.Spans, id)
		r.traceDoc = append(r.traceDoc, traceSeg{Name: "parallel leg (child process start and exit)", Root: id})
		r.ops(len(par.Untraced.Solve)+len(par.Traced.Solve), 0)
		r.fitChecks(kind, par.Untraced)
		r.solverLayers(kind, par)
		return nil
	}

	const rounds = 2
	var par, one pass
	var rss []float64
	for round := 0; round < rounds; round++ {
		sp.Workers, sp.Budget, sp.MinReps = nproc, 0.25*r.seconds, 2
		p, err := r.leg(sp)
		if err != nil {
			return err
		}
		par = merge(par, p.Untraced)
		rss = append(rss, p.PeakRSSMB)
		sp.Workers, sp.Budget, sp.MinReps = 1, 0.25*r.seconds, 1
		if p, err = r.leg(sp); err != nil {
			return err
		}
		one = merge(one, p.Untraced)
	}
	r.ops(len(par.Solve)+len(one.Solve), 0)
	r.fitChecks(kind, par)
	d := math.Abs(one.Fit - par.Fit)
	r.check("fit agrees across 1 and nproc workers", d <= 1e-8, "|%.15f - %.15f| = %.2e (limit 1e-8)", one.Fit, par.Fit, d)

	r.metrics["setup_s"] = median(par.Setup)
	r.metrics["solve_s"] = median(par.Solve)
	r.metrics["iter_p50_s"] = median(par.Iter)
	r.metrics["scaling_eff"] = median(one.Iter) / (float64(nproc) * median(par.Iter))
	r.metrics["fit"] = par.Fit
	r.metrics["peak_rss_mb"] = median(rss)
	r.notes = append(r.notes,
		fmt.Sprintf("samples: %d solves (%d steady iterations) at %d workers, %d solves (%d iterations) at 1 worker, over %d rounds",
			len(par.Solve), len(par.Iter), nproc, len(one.Solve), len(one.Iter), rounds),
		fmt.Sprintf("program Report.Times (cross-check, last solve at %d workers): %s", nproc, fmtTimes(par.Times)))
	if kind == "dist" {
		r.extra["dist.comm_bytes"] = float64(par.CommBytes[0])
	}
	return nil
}

// merge appends b's samples to a; the scalar fields come from b.
func merge(a, b pass) pass {
	b.Setup = append(a.Setup, b.Setup...)
	b.Solve = append(a.Solve, b.Solve...)
	b.Iter = append(a.Iter, b.Iter...)
	b.CommBytes = append(a.CommBytes, b.CommBytes...)
	b.CommS = append(a.CommS, b.CommS...)
	b.MTTKRPS = append(a.MTTKRPS, b.MTTKRPS...)
	return b
}

// fitChecks verifies a leg's solves: exact ALS never lowers the fit, the
// final fit is not below the seed's reference, and dist moves exactly
// the recorded number of bytes on every solve.
func (r *run) fitChecks(kind string, p pass) {
	mono := true
	for i := 1; i < len(p.FitHistory); i++ {
		if p.FitHistory[i] < p.FitHistory[i-1]-1e-12 {
			mono = false
		}
	}
	r.check("fit never decreases over ALS iterations", mono, "history %v", p.FitHistory)
	if ref, ok := r.w.FitRef[r.seed]; ok {
		r.check("fit at or above the seed's reference", p.Fit >= ref-fitRefSlack,
			"fit %.12f, seed %d reference %.12f (slack %g)", p.Fit, r.seed, ref, fitRefSlack)
	} else {
		r.check("fit at or above the workload's floor", p.Fit >= r.w.FitFloor,
			"fit %.6f, floor %.6f (no recorded reference for seed %d)", p.Fit, r.w.FitFloor, r.seed)
	}
	if kind != "dist" {
		return
	}
	same := true
	for _, b := range p.CommBytes {
		same = same && b == p.CommBytes[0]
	}
	want, recorded := r.w.CommBytes[nproc]
	switch {
	case !same:
		r.check("dist comm bytes repeat exactly", false, "per solve: %v", p.CommBytes)
	case recorded:
		r.check("dist comm bytes equal the recorded count", p.CommBytes[0] == want,
			"%d bytes, recorded %d (locales=%d)", p.CommBytes[0], want, nproc)
	default:
		r.check("dist comm bytes repeat exactly", true,
			"%d bytes on every solve; no recorded count for locales=%d", p.CommBytes[0], nproc)
	}
}

// solverLayers fills the per-layer metrics of a traced solver run.
func (r *run) solverLayers(kind string, par legOut) {
	for k, v := range par.Layers {
		r.metrics[k] = v
	}
	t := par.Traced
	if kind == "dist" {
		r.extra["dist.comm_bytes"] = float64(t.CommBytes[0])
		r.extra["dist.comm_s"] = median(t.CommS)
		r.extra["dist.mttkrp_s"] = median(t.MTTKRPS)
		r.extra["dist.imbalance"] = t.Imbalance
	}
	r.extra["trace.overhead_s"] = median(t.Iter) - median(par.Untraced.Iter)
	r.notes = append(r.notes,
		fmt.Sprintf("tracing overhead: traced - untraced median iteration = %+.6f s (%.6f vs %.6f s; %d vs %d samples), set-up %+.6f s",
			r.extra["trace.overhead_s"], median(t.Iter), median(par.Untraced.Iter), len(t.Iter), len(par.Untraced.Iter),
			median(t.Setup)-median(par.Untraced.Setup)),
		fmt.Sprintf("program Report.Times (cross-check, last traced solve): %s", fmtTimes(t.Times)))
	if kind == "core" {
		r.notes = append(r.notes, fmt.Sprintf("MTTKRP strategies per mode: %v", t.Strategies))
	}
}

func fmtTimes(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		if m[k] != 0 {
			fmt.Fprintf(&b, "%s=%.4fs ", k, m[k])
		}
	}
	return strings.TrimSpace(b.String())
}

// finish prints the report, writes the record and trace files, and prints
// the one-line JSON summary last.
func (r *run) finish() error {
	want := endToEnd
	if r.trace {
		want = perLayer
	}
	res := result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, c := range r.checks {
		res.Correct = res.Correct && c.OK
	}
	res.Correct = res.Correct && r.failed == 0
	if res.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	for _, d := range want {
		v, ok := r.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s not measured", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	r.extra["failed_ratio"] = float64(r.failed) / float64(r.attempted)

	st := stamp{Cohort: currentCohort(), Commit: sourceID(r.root), Seed: r.seed}
	out := bufio.NewWriter(os.Stdout)
	tag := fmt.Sprintf("%s-seed%d-trace%d", r.w.Name, r.seed, btoi(r.trace))
	mode := "untraced (end-to-end)"
	if r.trace {
		mode = "traced (per-layer)"
	}
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g %s\n", r.w.Name, r.seed, r.seconds, mode)
	fmt.Fprintf(out, "cohort: %s nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d\n",
		st.Cohort.Kernels, st.Cohort.NProc, st.Cohort.GOMAXPROCS, st.Cohort.GoVersion, st.Commit, st.Seed)
	if r.trace {
		if err := r.writeTrace(out, tag); err != nil {
			return err
		}
	}
	for _, d := range want {
		fmt.Fprintf(out, "  %-26s %16.6f %s\n", d.Name, r.metrics[d.Name], d.Unit)
	}
	r.printNA(out)
	extraNames := make([]string, 0, len(r.extra))
	for k := range r.extra {
		extraNames = append(extraNames, k)
	}
	sort.Strings(extraNames)
	for _, k := range extraNames {
		fmt.Fprintf(out, "  %-26s %16.6f %s\n", k, r.extra[k], unitOf(k))
	}
	for _, n := range r.notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
	for _, c := range r.checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(out, "  check %s %s: %s\n", verdict, c.Name, c.Detail)
	}

	rec := record{Stamp: st, Workload: r.w.Name, Trace: r.trace, Result: res, Checks: r.checks, Extra: map[string]metric{}}
	for k, v := range r.extra {
		rec.Extra[k] = metric{Value: v, Unit: unitOf(k)}
	}
	recPath := filepath.Join(r.buildDir, "results", tag+".json")
	if err := writeJSONFile(recPath, rec); err != nil {
		return err
	}
	fmt.Fprintf(out, "  record: %s\n", recPath)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return out.Flush()
}

// printNA lists the workload-specific metrics this workload does not
// produce, so every metric the benchmark defines appears in every report.
func (r *run) printNA(out *bufio.Writer) {
	var na []string
	for k := range extraUnits {
		if _, ok := r.extra[k]; !ok && applies(k, r.trace) {
			na = append(na, k)
		}
	}
	sort.Strings(na)
	if len(na) > 0 {
		fmt.Fprintf(out, "  n/a on %s: %s\n", r.w.Name, strings.Join(na, ", "))
	}
}

// applies reports whether a workload-specific metric belongs to the
// untraced (end-to-end) or the traced (per-layer) report.
func applies(name string, trace bool) bool {
	layer := strings.Contains(name, ".")
	return layer == trace
}

func (r *run) writeTrace(out *bufio.Writer, tag string) error {
	spans := r.tr.snapshot()
	rows := selfTimes(spans)
	fmt.Fprintf(out, "  self times (%d spans):\n", len(spans))
	writeSelfTable(out, rows)
	total := 0.0
	for i := range r.traceDoc {
		s := &r.traceDoc[i]
		s.Wall, s.Unattributed = unattributed(spans, s.Root)
		total += s.Unattributed
		fmt.Fprintf(out, "  unattributed in %s: %.6f s of %.6f s wall\n", s.Name, s.Unattributed, s.Wall)
	}
	r.extra["trace.unattributed_s"] = total
	path := filepath.Join(r.buildDir, "traces", tag+".json")
	doc := map[string]any{
		"run":          r.tr.run,
		"spans":        spans,
		"self_times":   rows,
		"segments":     r.traceDoc,
		"unattributed": total,
		"layers":       r.metrics,
		"extra":        r.extra,
	}
	if err := writeJSONFile(path, doc); err != nil {
		return err
	}
	fmt.Fprintf(out, "  trace: %s\n", path)
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// peakRSSMB reads the high-water resident set (VmHWM) of a process.
func peakRSSMB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// compareCmd compares two sets of run records: perfbench compare
// base.json... -- head.json...
func compareCmd(args []string) error {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split < 0 {
		return errors.New("usage: perfbench compare base.json... -- head.json...")
	}
	load := func(paths []string) ([]record, error) {
		var rs []record
		for _, p := range paths {
			rec, err := readRecord(p)
			if err != nil {
				return nil, err
			}
			rs = append(rs, rec)
		}
		return rs, nil
	}
	base, err := load(args[:split])
	if err != nil {
		return err
	}
	head, err := load(args[split+1:])
	if err != nil {
		return err
	}
	return compareRecords(os.Stdout, base, head)
}
