package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/sptensor"
)

// The stream-serve traffic: one closed-loop writer (append, warm job,
// wait) and one open-loop query generator at queryRate per second, each on
// its own client connection. A query meets the objective when it answers
// 2xx within queryLimit of when it was due.
const (
	queryRate  = 100.0
	queryLimit = 50 * time.Millisecond
	setupReps  = 3
	pollEvery  = 5 * time.Millisecond
	// rssCycles is how many writer cycles every timed phase runs, past
	// its deadline if need be; the server's VmHWM is read after each of
	// them and averaged. The server's memory grows with each revision it
	// has seen, so a fixed count keeps peak_rss_mb from following how many
	// cycles a run's seconds happen to fit, and the average smooths the
	// steps garbage collection puts in the high-water mark.
	rssCycles = 12
)

type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// startServer launches splatt-serve on a free loopback port. One
// decomposition worker: a job's own tasks are the workload's parallelism.
func startServer(bin string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-workers", "1", "-cache-tensors", "4", "-trace-events", "64")
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr + "/v1", done: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(s.done) }()
	return s, nil
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain takes too long.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// client is one HTTP connection to the server plus the run's operation
// accounting: every request counts as attempted, and every failure must
// carry the service's error envelope.
type client struct {
	r  *run
	hc *http.Client
}

func newClient(r *run) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{r: r, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// do sends one request and decodes a 2xx JSON body into out. A non-2xx
// reply is an error; its body must be {"error":{"code","message"}}.
func (c *client) do(method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	c.r.ops(1, 0)
	if err != nil {
		c.fail(fmt.Sprintf("%s %s: %v", method, url, err))
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		c.fail(fmt.Sprintf("%s %s: reading body: %v", method, url, err))
		return err
	}
	if resp.StatusCode/100 != 2 {
		var env struct {
			Error *struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if json.Unmarshal(b, &env) != nil || env.Error == nil || env.Error.Code == "" || env.Error.Message == "" {
			c.r.mu.Lock()
			c.r.noEnvelope = append(c.r.noEnvelope, fmt.Sprintf("%s %s -> %d: %.120s", method, url, resp.StatusCode, b))
			c.r.mu.Unlock()
		}
		c.fail(fmt.Sprintf("%s %s -> %d", method, url, resp.StatusCode))
		return fmt.Errorf("%s %s: status %d: %.200s", method, url, resp.StatusCode, b)
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			c.fail(fmt.Sprintf("%s %s: decoding: %v", method, url, err))
			return err
		}
	}
	return nil
}

// fail counts a failed operation; the first few are logged to stderr.
func (c *client) fail(msg string) {
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	c.r.failed++
	if c.r.failed <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
	}
}

type jobStatus struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
	Error     string     `json:"error"`
	Result    *struct {
		Fit          float64 `json:"fit"`
		Iterations   int     `json:"iterations"`
		SampledIters int     `json:"sampled_iters"`
		ModelID      string  `json:"model_id"`
		WarmStart    bool    `json:"warm_start"`
	} `json:"result"`
}

// job is one decomposition job as the writer saw it.
type job struct {
	single  bool    // the 1-task side of the scaling pair
	latency float64 // submit → terminal state, client clock
	st      jobStatus
}

// runJob submits a job and polls until it reaches a terminal state.
func (c *client) runJob(base string, spec map[string]any, tr *tracer, parent int) (job, error) {
	var j job
	body, _ := json.Marshal(spec)
	t0 := time.Now()
	id := tr.begin("serve.POST /jobs + wait", parent)
	defer tr.end(id)
	var st jobStatus
	if err := c.do("POST", base+"/jobs", body, &st); err != nil {
		return j, err
	}
	for st.State == "queued" || st.State == "running" {
		time.Sleep(pollEvery)
		if err := c.do("GET", base+"/jobs/"+st.ID, nil, &st); err != nil {
			return j, err
		}
	}
	j.latency = time.Since(t0).Seconds()
	j.st = st
	return j, nil
}

func jobSpec(tensor string, tasks, rank, iters int, warm bool) map[string]any {
	spec := map[string]any{"tensor_id": tensor, "tasks": tasks, "format": "auto", "seed": 1, "publish": true}
	if warm {
		spec["warm_start"] = "auto"
	} else {
		spec["rank"], spec["max_iters"] = rank, iters
	}
	return spec
}

// streamServe runs the stream-serve workload.
func (r *run) streamServe(dir string) error {
	bin := filepath.Join(r.buildDir, "bin", "splatt-serve")
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("splatt-serve binary: %w", err)
	}
	baseBody, err := os.ReadFile(filepath.Join(dir, "base.bin"))
	if err != nil {
		return err
	}
	batches := make([][]byte, streamBatches)
	for i := range batches {
		if batches[i], err = os.ReadFile(filepath.Join(dir, fmt.Sprintf("batch-%02d.bin", i))); err != nil {
			return err
		}
	}
	writer := newClient(r)

	// Set-up, repeated: server start, /healthz, base upload, published
	// cold model. The last server stays up for the timed phase.
	var setups []float64
	var srv *server
	var tensorID string
	var cold job
	for rep := 0; rep < setupReps; rep++ {
		if srv != nil {
			srv.stop()
		}
		segID := r.tr.begin("setup", 0)
		t0 := time.Now()
		id := r.tr.begin("serve.start+healthz", segID)
		srv, err = startServer(bin)
		if err == nil {
			err = waitHealthy(srv, writer)
		}
		r.tr.end(id)
		if err != nil {
			r.tr.end(segID)
			if srv != nil {
				srv.stop()
			}
			return err
		}
		var up struct {
			ID string `json:"id"`
		}
		id = r.tr.begin("serve.POST /tensors", segID)
		err = writer.do("POST", srv.base+"/tensors", baseBody, &up)
		r.tr.end(id)
		if err == nil {
			tensorID = up.ID
			cold, err = writer.runJob(srv.base, jobSpec(tensorID, nproc, r.w.Rank, r.w.Iters, false), r.tr, segID)
		}
		if err == nil && cold.st.State != "done" {
			err = fmt.Errorf("cold job ended %s: %s", cold.st.State, cold.st.Error)
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.tr.end(segID)
		if r.tr.on {
			r.traceDoc = append(r.traceDoc, traceSeg{Name: fmt.Sprintf("set-up %d", rep+1), Root: segID})
		}
		if err != nil {
			srv.stop()
			return err
		}
	}
	defer srv.stop()

	ph := phaseState{tensor: tensorID}
	ph.model.Store(cold.st.Result.ModelID)
	var dims []int
	if err := decodeDims(baseBody, &dims); err != nil {
		return err
	}
	var untraced, traced phaseResult
	if r.trace {
		off := newTracer(false, "")
		untraced = r.streamPhase(srv, writer, &ph, batches, dims, r.seconds/2, off)
		traced = r.streamPhase(srv, writer, &ph, batches, dims, r.seconds/2, r.tr)
	} else {
		untraced = r.streamPhase(srv, writer, &ph, batches, dims, r.seconds, r.tr)
	}

	all := append(append([]job(nil), untraced.jobs...), traced.jobs...)
	// Per-job iteration lengths and phase profiles, fetched after the
	// timed phase so they do not load it.
	var iterS []float64
	var unattrib, queue, runS []float64
	phaseSums := map[string]float64{}
	for _, j := range all {
		if !j.single {
			its, err := jobIterations(writer, srv.base, j.st.ID)
			if err != nil {
				return err
			}
			iterS = append(iterS, its...)
		}
		run := j.st.Finished.Sub(*j.st.Started).Seconds()
		queue = append(queue, j.st.Started.Sub(j.st.Submitted).Seconds())
		runS = append(runS, run)
		if r.trace {
			prof, err := jobProfile(writer, srv.base, j.st.ID)
			if err != nil {
				return err
			}
			top := 0.0
			for _, p := range prof {
				phaseSums[p.Phase] += p.Seconds
				if p.Phase == "iteration" || p.Phase == "refine" || p.Phase == "warm_start" {
					top += p.Seconds
				}
			}
			unattrib = append(unattrib, run-top)
		}
	}

	r.checkStream(cold, all)
	u := untraced
	if r.trace {
		return r.streamLayers(baseBody, batches[0], traced, untraced, queue, runS, unattrib, phaseSums, all)
	}
	var parLat, parRun, oneRun, fits []float64
	for _, j := range u.jobs {
		run := j.st.Finished.Sub(*j.st.Started).Seconds()
		if !j.single {
			parLat, parRun = append(parLat, j.latency), append(parRun, run)
		} else {
			oneRun = append(oneRun, run)
		}
		fits = append(fits, j.st.Result.Fit)
	}
	r.metrics["setup_s"] = median(setups)
	r.metrics["solve_s"] = median(parLat)
	r.metrics["iter_p50_s"] = median(iterS)
	r.metrics["scaling_eff"] = median(oneRun) / (float64(nproc) * median(parRun))
	r.metrics["fit"] = median(fits)
	r.metrics["peak_rss_mb"] = u.rssMB
	r.extra["job_p50_s"] = median(parLat)
	r.extra["append_p50_ms"] = 1e3 * median(u.appends)
	r.extra["query_p50_ms"] = 1e3 * median(u.queryLat)
	if p99, ok := tailPercentile(u.queryLat, 0.99, 10); ok {
		r.extra["query_p99_ms"] = 1e3 * p99
	} else {
		r.notes = append(r.notes, fmt.Sprintf("query_p99_ms not reported: fewer than 10 of %d samples lie beyond it", len(u.queryLat)))
	}
	r.extra["query_samples"] = float64(len(u.queryLat))
	r.extra["query_slo_ratio"] = u.sloRatio()
	r.extra["query_late_p50_ms"] = 1e3 * median(u.queryLate)
	r.notes = append(r.notes,
		fmt.Sprintf("samples: %d set-ups; %d appends; %d warm jobs at %d tasks, %d at 1 task; %d iterations; %d queries due at %.0f/s, limit %v",
			len(setups), len(u.appends), len(parLat), nproc, len(oneRun), len(iterS), u.due, queryRate, queryLimit),
		fmt.Sprintf("cold model: fit %.6f after %d iterations", cold.st.Result.Fit, cold.st.Result.Iterations))
	return nil
}

func waitHealthy(s *server, c *client) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return errors.New("splatt-serve exited during start-up")
		default:
		}
		resp, err := c.hc.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.r.ops(1, 0)
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("splatt-serve not healthy within 20s")
}

// decodeDims reads the mode lengths from a binary tensor body.
func decodeDims(body []byte, dims *[]int) error {
	t, err := sptensor.LoadTensorReader(bytes.NewReader(body))
	if err != nil {
		return err
	}
	*dims = t.Dims
	return nil
}

// phaseState is what the writer hands the query generator: the newest
// published model, and the revision chain head.
type phaseState struct {
	model  atomic.Value // string
	tensor string
	next   int // next held-out batch
}

type phaseResult struct {
	jobs      []job
	appends   []float64 // seconds
	queryLat  []float64 // seconds, from when due; failed queries excluded
	queryLate []float64
	due       int
	good      int     // answered 2xx with the right shape within queryLimit
	rssMB     float64 // mean server VmHWM over the first rssCycles writer cycles
}

func (p phaseResult) sloRatio() float64 {
	if p.due == 0 {
		return 0
	}
	return float64(p.good) / float64(p.due)
}

// streamPhase runs the timed traffic for budget seconds.
func (r *run) streamPhase(srv *server, writer *client, ph *phaseState, batches [][]byte, dims []int, budget float64, tr *tracer) phaseResult {
	var res phaseResult
	start := time.Now()
	deadline := start.Add(time.Duration(budget * float64(time.Second)))
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	var wg sync.WaitGroup
	var qres phaseResult
	var qroot int
	wg.Add(1)
	go func() {
		defer wg.Done()
		qres, qroot = r.queries(ctx, srv, ph, dims, openLoop{start: start, rate: queryRate}, tr)
	}()

	wid := tr.begin("writer", 0)
	// cycle appends the next held-out batch and runs a warm job on the
	// new revision.
	cycle := func() {
		i := ph.next
		ph.next++
		var ar struct {
			ID string `json:"id"`
		}
		t0 := time.Now()
		id := tr.begin("serve.PATCH /tensors", wid)
		err := writer.do("PATCH", srv.base+"/tensors/"+ph.tensor, batches[i], &ar)
		tr.end(id)
		if err != nil {
			return
		}
		res.appends = append(res.appends, time.Since(t0).Seconds())
		ph.tensor = ar.ID
		// Every third job runs at 1 task, so one run measures the
		// service's job path at 1 and at nproc workers; the nproc side,
		// which the latency and iteration figures come from, gets twice
		// the samples.
		single := i%3 == 2
		tasks := nproc
		if single {
			tasks = 1
		}
		j, err := writer.runJob(srv.base, jobSpec(ph.tensor, tasks, 0, 0, true), tr, wid)
		if err != nil {
			return
		}
		j.single = single
		if j.st.State != "done" || j.st.Result == nil || j.st.Started == nil || j.st.Finished == nil {
			writer.fail(fmt.Sprintf("job %s ended %s: %s", j.st.ID, j.st.State, j.st.Error))
			r.mu.Lock()
			r.jobsNotDone++
			r.mu.Unlock()
			return
		}
		res.jobs = append(res.jobs, j)
		ph.model.Store(j.st.Result.ModelID)
	}
	pid := strconv.Itoa(srv.cmd.Process.Pid)
	var hwm []float64
	for n := 0; ph.next < len(batches) && (n < rssCycles || time.Now().Before(deadline)); n++ {
		cycle()
		if n < rssCycles {
			hwm = append(hwm, peakRSSMB(pid))
		}
	}
	res.rssMB = mean(hwm)
	tr.end(wid)
	wg.Wait()
	if tr.on {
		r.traceDoc = append(r.traceDoc, traceSeg{Name: "writer", Root: wid},
			traceSeg{Name: "query generator (idle between due times)", Root: qroot})
	}
	res.queryLat, res.queryLate, res.due, res.good = qres.queryLat, qres.queryLate, qres.due, qres.good
	return res
}

// queries is the open-loop generator: query i is due at start + i/rate
// and is timed from then, so a stall charges every query it delays. It
// cycles topk, similar and entry against the newest published model.
func (r *run) queries(ctx context.Context, srv *server, ph *phaseState, dims []int, ol openLoop, tr *tracer) (phaseResult, int) {
	var res phaseResult
	c := newClient(r)
	rng := rand.New(rand.NewSource(r.seed))
	deadline, _ := ctx.Deadline()
	qid := tr.begin("queries", 0)
	defer tr.end(qid)
	for i := 0; ; i++ {
		due := ol.due(i)
		if !due.Before(deadline) {
			return res, qid
		}
		time.Sleep(time.Until(due))
		res.due++
		sent := time.Now()
		res.queryLate = append(res.queryLate, ol.lateness(i, sent).Seconds())
		mid := ph.model.Load().(string)
		coord := randCoord(rng, dims)
		var err error
		var items struct {
			Items []json.RawMessage `json:"items"`
		}
		ok := true
		switch i % 3 {
		case 0:
			body, _ := json.Marshal(map[string]any{"mode": topkMode, "coord": coord, "k": queryK})
			id := tr.begin("serve.POST /models/topk", qid)
			err = c.do("POST", srv.base+"/models/"+mid+"/topk", body, &items)
			tr.end(id)
			if err == nil && len(items.Items) != queryK {
				ok = false
				c.fail(fmt.Sprintf("topk returned %d items, want %d", len(items.Items), queryK))
				r.mu.Lock()
				r.shortTopK++
				r.mu.Unlock()
			}
		case 1:
			body, _ := json.Marshal(map[string]any{"mode": similarMode, "index": coord[similarMode], "k": queryK})
			id := tr.begin("serve.POST /models/similar", qid)
			err = c.do("POST", srv.base+"/models/"+mid+"/similar", body, nil)
			tr.end(id)
		default:
			q := fmt.Sprintf("%d,%d,%d", coord[0], coord[1], coord[2])
			id := tr.begin("serve.GET /models/entry", qid)
			err = c.do("GET", srv.base+"/models/"+mid+"/entry?coord="+q, nil, nil)
			tr.end(id)
		}
		if err != nil || !ok {
			continue
		}
		lat := ol.latency(i, time.Now())
		res.queryLat = append(res.queryLat, lat.Seconds())
		if lat <= queryLimit {
			res.good++
		}
	}
}

// jobIterations returns the lengths of a job's exact (unsampled) ALS
// iterations from its /trace timeline: a warm ARLS job ends with exact
// refinement iterations, the service's counterpart of the solver
// workloads' steady-state iteration. Sampled iterations run several times
// faster, so mixing them in would make the median jump between the two.
func jobIterations(c *client, base, id string) ([]float64, error) {
	var tr struct {
		Events []struct {
			Seconds float64 `json:"seconds"`
			Sampled bool    `json:"sampled"`
		} `json:"events"`
	}
	if err := c.do("GET", base+"/jobs/"+id+"/trace", nil, &tr); err != nil {
		return nil, err
	}
	var out []float64
	for k := 1; k < len(tr.Events); k++ {
		if !tr.Events[k].Sampled {
			out = append(out, tr.Events[k].Seconds-tr.Events[k-1].Seconds)
		}
	}
	return out, nil
}

type phaseStat struct {
	Phase   string  `json:"phase"`
	Seconds float64 `json:"seconds"`
}

func jobProfile(c *client, base, id string) ([]phaseStat, error) {
	var p struct {
		Profile struct {
			Phases []phaseStat `json:"phases"`
		} `json:"profile"`
	}
	err := c.do("GET", base+"/jobs/"+id+"/profile", nil, &p)
	return p.Profile.Phases, err
}

// warmFitSlack is how far a warm-started job's fit may fall below the
// seed's cold model: absorbing 0.1% appends should keep the fit.
const warmFitSlack = 0.01

// checkStream verifies the service's outputs: the error contract, every
// job done with full topk replies, and warm fits held against the seed's
// own reference, the cold model on the base revision (the base's fit
// varies with the seed far more than absorbing an append moves it).
func (r *run) checkStream(cold job, jobs []job) {
	r.check("every error carries the {error:{code,message}} envelope", len(r.noEnvelope) == 0,
		"%d violations %v", len(r.noEnvelope), r.noEnvelope)
	r.check("every job reached done", r.jobsNotDone == 0, "%d jobs done, %d not", len(jobs)+1, r.jobsNotDone)
	r.check("every topk returned k items", r.shortTopK == 0, "%d short replies (k=%d)", r.shortTopK, queryK)
	minFit, warm := cold.st.Result.Fit, true
	for _, j := range jobs {
		minFit = min(minFit, j.st.Result.Fit)
		warm = warm && j.st.Result.WarmStart
	}
	r.check("appended revisions warm-start from the newest model", warm, "%d warm jobs", len(jobs))
	ref := cold.st.Result.Fit
	r.check("warm fits at or above the seed's cold reference", minFit >= ref-warmFitSlack,
		"lowest warm fit %.6f, cold reference %.6f (slack %g); warm fits in order: %s", minFit, ref, warmFitSlack, fmtFits(jobs))
}

// streamLayers fills the per-layer metrics of a traced stream-serve run:
// the serve figures from the job statuses and profiles, and the in-process
// layers timed on the base revision.
func (r *run) streamLayers(baseBody, batch []byte, traced, untraced phaseResult,
	queue, runS, unattrib []float64, phaseSums map[string]float64, jobs []job) error {
	pid := r.tr.begin("layers", 0)
	defer r.tr.end(pid)
	t0 := time.Now()
	id := r.tr.begin("sptensor.LoadTensorReader", pid)
	base, err := sptensor.LoadTensorReader(bytes.NewReader(baseBody))
	r.tr.end(id)
	if err != nil {
		return err
	}
	loadS := time.Since(t0).Seconds()
	b, err := sptensor.LoadTensorReader(bytes.NewReader(batch))
	if err != nil {
		return err
	}
	t0 = time.Now()
	id = r.tr.begin("sptensor.AppendBatch", pid)
	_, _, err = sptensor.AppendBatch(base, b)
	r.tr.end(id)
	if err != nil {
		return err
	}
	r.extra["sptensor.append_s"] = time.Since(t0).Seconds()
	layers, err := probeLayers(base, "core", r.w.Rank, nproc, r.tr, pid)
	if err != nil {
		return err
	}
	for k, v := range layers {
		r.metrics[k] = v
	}
	r.metrics["sptensor.load_s"] = loadS
	var sampled []float64
	for _, j := range jobs {
		sampled = append(sampled, float64(j.st.Result.SampledIters))
	}
	r.extra["sketch.sampled_iters"] = median(sampled)
	r.extra["serve.queue_s"] = median(queue)
	r.extra["serve.job_run_s"] = median(runS)
	r.extra["serve.job_unattributed_s"] = median(unattrib)
	r.extra["serve.query_overhead_ms"] = 1e3*median(traced.queryLat) - layers["model.topk_us"]/1e3
	var tj, uj []float64
	for _, j := range traced.jobs {
		tj = append(tj, j.latency)
	}
	for _, j := range untraced.jobs {
		uj = append(uj, j.latency)
	}
	r.extra["trace.overhead_s"] = median(tj) - median(uj)
	r.notes = append(r.notes,
		fmt.Sprintf("tracing overhead: traced - untraced median job latency = %+.6f s (%d vs %d jobs); query p50 %+.3f ms",
			r.extra["trace.overhead_s"], len(tj), len(uj), 1e3*(median(traced.queryLat)-median(untraced.queryLat))),
		fmt.Sprintf("program /profile phase sums over %d jobs (cross-check): %s", len(jobs), fmtTimes(phaseSums)),
		"serve.query_overhead_ms = client p50 over the mix minus the in-process topk kernel p50")
	return nil
}

func fmtFits(jobs []job) string {
	var b strings.Builder
	for _, j := range jobs {
		fmt.Fprintf(&b, "%.4f ", j.st.Result.Fit)
	}
	return strings.TrimSpace(b.String())
}
