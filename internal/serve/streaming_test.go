package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/sptensor"
)

// filterTensor copies the nonzeros of t selected by keep into a fresh
// tensor (dims inferred from the surviving coordinates, as a .tns parse
// would).
func filterTensor(t *sptensor.Tensor, keep func(x int) bool) *sptensor.Tensor {
	out := sptensor.New(t.Dims, 0)
	for x := 0; x < t.NNZ(); x++ {
		if !keep(x) {
			continue
		}
		for m := range t.Dims {
			out.Inds[m] = append(out.Inds[m], t.Inds[m][x])
		}
		out.Vals = append(out.Vals, t.Vals[x])
	}
	return out
}

// patchTensor is the PATCH /v1/tensors/{id} client: append a batch body,
// decode the AppendResult.
func patchTensor(t *testing.T, base, id string, body []byte) (AppendResult, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPatch, base+"/tensors/"+id, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("PATCH request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PATCH %s: %v", id, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	var res AppendResult
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(out.Bytes(), &res); err != nil {
			t.Fatalf("PATCH decode %q: %v", out.Bytes(), err)
		}
	}
	return res, resp.StatusCode
}

// TestStreamingEvolvingTensor is the streaming acceptance scenario: a cold
// published job on the initial upload, three append batches landing while
// the trace endpoint stays pollable, a warm-started job on the final
// revision resolved via the provenance chain, and fit parity with a cold
// run on the same final tensor in a third of the iterations.
func TestStreamingEvolvingTensor(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	full := sptensor.Datasets["yelp"].Generate(1.0 / 1024)
	base := filterTensor(full, func(x int) bool { return x%100 < 97 })
	batches := make([]*sptensor.Tensor, 3)
	for k := range batches {
		want := 97 + k
		batches[k] = filterTensor(full, func(x int) bool { return x%100 == want })
	}

	up := uploadTensor(t, ts.URL, tnsBytes(t, base))

	// Cold job on the initial revision, publishing the seed model.
	coldSpec := JobSpec{TensorID: up.ID, Kind: KindCPD, Rank: 8, MaxIters: 20, Seed: 3, Publish: true}
	coldSt, code := submitJob(t, ts.URL, coldSpec)
	if code != http.StatusAccepted {
		t.Fatalf("cold submit: status %d", code)
	}

	// Three appends while the job may still be running; the trace endpoint
	// must answer between appends and the base snapshot must not change.
	id := up.ID
	for k, b := range batches {
		res, status := patchTensor(t, ts.URL, id, tnsBytes(t, b))
		if status != http.StatusCreated {
			t.Fatalf("append %d: status %d", k, status)
		}
		if res.Parent != id {
			t.Fatalf("append %d: parent %s, want %s", k, res.Parent, id)
		}
		if res.AddedNNZ != b.NNZ() {
			t.Fatalf("append %d: added %d, want %d", k, res.AddedNNZ, b.NNZ())
		}
		id = res.ID

		resp, err := http.Get(ts.URL + "/v1/jobs/" + coldSt.ID + "/trace")
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("trace poll after append %d: %v status %d", k, err, resp.StatusCode)
		}
		var tr JobTrace
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatalf("trace decode: %v", err)
		}
		resp.Body.Close()
	}

	// Snapshot isolation: the original revision is untouched by appends.
	if info, ok := (func() (TensorInfo, bool) {
		resp, err := http.Get(ts.URL + "/v1/tensors/" + up.ID)
		if err != nil {
			t.Fatalf("GET base tensor: %v", err)
		}
		defer resp.Body.Close()
		var ti TensorInfo
		ok := resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&ti) == nil
		return ti, ok
	})(); !ok || info.NNZ != base.NNZ() {
		t.Fatalf("base revision changed under appends: %+v (want nnz %d)", info, base.NNZ())
	}

	coldDone := waitState(t, ts.URL, coldSt.ID, 30*time.Second, terminal)
	if coldDone.State != StateDone || coldDone.Result == nil || coldDone.Result.ModelID == "" {
		t.Fatalf("cold job: %+v", coldDone)
	}

	// Revision chain: four revisions in sequence order with correct
	// parentage, and the pagination contract on the listing.
	resp, err := http.Get(ts.URL + "/v1/tensors/" + id + "/revisions")
	if err != nil {
		t.Fatalf("GET revisions: %v", err)
	}
	if got := resp.Header.Get("X-Total-Count"); got != "4" {
		t.Errorf("revisions X-Total-Count = %q, want 4", got)
	}
	var revs []RevisionInfo
	if err := json.NewDecoder(resp.Body).Decode(&revs); err != nil {
		t.Fatalf("revisions decode: %v", err)
	}
	resp.Body.Close()
	if len(revs) != 4 {
		t.Fatalf("revision chain has %d entries, want 4", len(revs))
	}
	for i, rv := range revs {
		if rv.Seq != i || rv.Root != up.ID {
			t.Errorf("revision %d: seq %d root %s, want seq %d root %s", i, rv.Seq, rv.Root, i, up.ID)
		}
		if i > 0 && rv.Parent != revs[i-1].ID {
			t.Errorf("revision %d: parent %s, want %s", i, rv.Parent, revs[i-1].ID)
		}
	}
	resp, err = http.Get(ts.URL + "/v1/tensors/" + id + "/revisions?limit=2&offset=1")
	if err != nil {
		t.Fatalf("GET revisions page: %v", err)
	}
	var page []RevisionInfo
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatalf("revisions page decode: %v", err)
	}
	if resp.Header.Get("X-Total-Count") != "4" || len(page) != 2 || page[0].Seq != 1 {
		t.Errorf("revisions page: total %q len %d first-seq %d, want 4/2/1",
			resp.Header.Get("X-Total-Count"), len(page), page[0].Seq)
	}
	resp.Body.Close()

	// Warm-started job on the final revision: auto resolution walks the
	// chain back to the published model.
	warmSt, code := submitJob(t, ts.URL, JobSpec{TensorID: id, Kind: KindCPD, Seed: 3, WarmStart: "auto"})
	if code != http.StatusAccepted {
		t.Fatalf("warm submit: status %d", code)
	}
	warmDone := waitState(t, ts.URL, warmSt.ID, 30*time.Second, terminal)
	if warmDone.State != StateDone || warmDone.Result == nil {
		t.Fatalf("warm job: %+v", warmDone)
	}
	if !warmDone.Result.WarmStart || warmDone.Result.WarmStartModel != coldDone.Result.ModelID {
		t.Errorf("warm job provenance: %+v, want seed model %s", warmDone.Result, coldDone.Result.ModelID)
	}

	// Cold reference on the same final tensor: parity within 1e-3 at a
	// third of the iterations.
	refSt, code := submitJob(t, ts.URL, JobSpec{TensorID: id, Kind: KindCPD, Rank: 8, MaxIters: 20, Seed: 3})
	if code != http.StatusAccepted {
		t.Fatalf("reference submit: status %d", code)
	}
	refDone := waitState(t, ts.URL, refSt.ID, 30*time.Second, terminal)
	if refDone.State != StateDone || refDone.Result == nil {
		t.Fatalf("reference job: %+v", refDone)
	}
	if warmDone.Result.Fit < refDone.Result.Fit-1e-3 {
		t.Errorf("warm fit %.6f short of cold fit %.6f - 1e-3",
			warmDone.Result.Fit, refDone.Result.Fit)
	}
	if warmDone.Result.Iterations*3 > refDone.Result.Iterations {
		t.Errorf("warm ran %d iterations, want <= 1/3 of cold's %d",
			warmDone.Result.Iterations, refDone.Result.Iterations)
	}

	m := getMetrics(t, ts.URL)
	if m.Jobs.WarmStarted != 1 {
		t.Errorf("warm_started counter = %d, want 1", m.Jobs.WarmStarted)
	}
	if m.Cache.Appends != 3 {
		t.Errorf("appends counter = %d, want 3", m.Cache.Appends)
	}
}

// TestStreamingAppendEdgeCases covers the merge and hardening corners of
// PATCH: duplicate coordinates across the batch boundary, mode-dimension
// growth, and appends against an evicted base.
func TestStreamingAppendEdgeCases(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	up := uploadTensor(t, ts.URL, []byte("1 1 1 1.0\n2 2 2 2.0\n3 1 2 4.0\n"))
	if up.NNZ != 3 {
		t.Fatalf("seed upload nnz %d, want 3", up.NNZ)
	}

	// Duplicates across the batch boundary: (2,2,2) collides with the
	// resident tensor; (1,2,1) appears twice within the batch and is summed
	// by the parse before the merge, so added_nnz reports the post-parse
	// batch and merged_duplicates only the cross-boundary collision.
	res, status := patchTensor(t, ts.URL, up.ID,
		[]byte("2 2 2 0.5\n1 2 1 1.0\n1 2 1 2.0\n"))
	if status != http.StatusCreated {
		t.Fatalf("append: status %d", status)
	}
	if res.MergedDuplicates != 1 || res.AddedNNZ != 2 {
		t.Errorf("merged_duplicates = %d added_nnz = %d, want 1 and 2",
			res.MergedDuplicates, res.AddedNNZ)
	}
	if res.NNZ != 4 { // 3 resident + 2 parsed batch - 1 merged
		t.Errorf("merged nnz = %d, want 4", res.NNZ)
	}

	// Mode growth: a coordinate beyond every mode's current length grows
	// the dims; the parent revision keeps its shape.
	grown, status := patchTensor(t, ts.URL, res.ID, []byte("5 6 7 1.0\n"))
	if status != http.StatusCreated {
		t.Fatalf("growth append: status %d", status)
	}
	if want := []int{5, 6, 7}; fmt.Sprint(grown.Dims) != fmt.Sprint(want) {
		t.Errorf("grown dims = %v, want %v", grown.Dims, want)
	}
	if info, ok := s.Registry().Lookup(res.ID); !ok || fmt.Sprint(info.Dims) != fmt.Sprint([]int{3, 2, 2}) {
		t.Errorf("parent revision dims changed: %+v", info)
	}

	// Append to an evicted tensor: 404 under the envelope.
	resp, data := doJSON(t, "DELETE", ts.URL+"/v1/tensors/"+grown.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, data)
	}
	if _, status := patchTensor(t, ts.URL, grown.ID, []byte("1 1 1 1.0\n")); status != http.StatusNotFound {
		t.Errorf("append to evicted tensor: status %d, want 404", status)
	}

	// Replaying an append dedupes onto the existing revision.
	replay, status := patchTensor(t, ts.URL, up.ID,
		[]byte("2 2 2 0.5\n1 2 1 1.0\n1 2 1 2.0\n"))
	if status != http.StatusOK || !replay.Cached || replay.ID != res.ID {
		t.Errorf("replayed append: status %d %+v, want 200 cached %s", status, replay, res.ID)
	}

	// Warm-start with no resolvable seed: the submission is accepted (the
	// model registry is consulted at execution time) and the job fails with
	// a diagnosable error instead of running cold silently.
	st, code := submitJob(t, ts.URL, JobSpec{TensorID: up.ID, Kind: KindCPD, WarmStart: "auto"})
	if code != http.StatusAccepted {
		t.Fatalf("warm submit without model: status %d", code)
	}
	done := waitState(t, ts.URL, st.ID, 30*time.Second, terminal)
	if done.State != StateFailed || done.Error == "" {
		t.Errorf("warm job without seed model: %+v, want failed with error", done)
	}
}

// TestStreamingAppendRacesRunningJob exercises snapshot isolation under the
// race detector: appends land while a pinned job is mid-run, the job
// finishes on its submission-time snapshot, and the appended revisions are
// intact afterwards.
func TestStreamingAppendRacesRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	full := sptensor.Datasets["yelp"].Generate(1.0 / 1024)
	base := filterTensor(full, func(x int) bool { return x%50 != 0 })
	batch := filterTensor(full, func(x int) bool { return x%50 == 0 })
	up := uploadTensor(t, ts.URL, tnsBytes(t, base))

	st, code := submitJob(t, ts.URL, JobSpec{TensorID: up.ID, Kind: KindCPD, Rank: 12, MaxIters: 150, Seed: 5})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}

	batchBytes := tnsBytes(t, batch)
	var wg sync.WaitGroup
	ids := make([]string, 4)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// All four goroutines append the same batch to the same base:
			// one creates the revision, the rest hit the dedupe path.
			res, status := patchTensor(t, ts.URL, up.ID, batchBytes)
			if status != http.StatusCreated && status != http.StatusOK {
				t.Errorf("racing append %d: status %d", i, status)
				return
			}
			ids[i] = res.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[0] {
			t.Errorf("racing appends diverged: %s vs %s", ids[i], ids[0])
		}
	}

	done := waitState(t, ts.URL, st.ID, 60*time.Second, terminal)
	if done.State != StateDone || done.Result == nil {
		t.Fatalf("job racing appends: %+v", done)
	}
	if math.IsNaN(done.Result.Fit) {
		t.Error("job fit is NaN after racing appends")
	}

	// The job ran on its snapshot: the base revision still holds exactly
	// the pre-append nonzeros.
	resp, err := http.Get(ts.URL + "/v1/tensors/" + up.ID)
	if err != nil {
		t.Fatalf("GET base: %v", err)
	}
	defer resp.Body.Close()
	var info TensorInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode base info: %v", err)
	}
	if info.NNZ != base.NNZ() {
		t.Errorf("base revision nnz %d after racing appends, want %d", info.NNZ, base.NNZ())
	}
}

// TestRetiredJobsDropTensor runs append+job cycles and one job cancelled
// while queued: once retired, no job may still hold its tensor revision,
// or finished jobs would keep evicted revisions alive.
func TestRetiredJobsDropTensor(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	full := sptensor.Datasets["yelp"].Generate(1.0 / 1024)
	id := uploadTensor(t, ts.URL, tnsBytes(t, filterTensor(full, func(x int) bool { return x%10 < 6 }))).ID

	var jobs []string
	for k := 0; k < 4; k++ {
		batch := filterTensor(full, func(x int) bool { return x%10 == 6+k })
		res, status := patchTensor(t, ts.URL, id, tnsBytes(t, batch))
		if status != http.StatusCreated {
			t.Fatalf("append %d: status %d", k, status)
		}
		id = res.ID
		st, code := submitJob(t, ts.URL, JobSpec{TensorID: id, Rank: 4, MaxIters: 5, Seed: 1})
		if code != http.StatusAccepted {
			t.Fatalf("job %d: status %d", k, code)
		}
		waitState(t, ts.URL, st.ID, 30*time.Second, terminal)
		jobs = append(jobs, st.ID)
	}

	// One worker: the second job waits behind the first and is cancelled
	// while still queued.
	blocker := uploadTensor(t, ts.URL, tnsBytes(t, sptensor.Random([]int{60, 50, 40}, 20000, 9))).ID
	long, _ := submitJob(t, ts.URL, JobSpec{TensorID: blocker, Rank: 12, MaxIters: 1000000, Seed: 1})
	waitState(t, ts.URL, long.ID, 30*time.Second, func(s JobStatus) bool { return s.State == StateRunning })
	queued, _ := submitJob(t, ts.URL, JobSpec{TensorID: id, Rank: 4, MaxIters: 5})
	for _, jid := range []string{queued.ID, long.ID} {
		if resp, _ := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+jid, nil); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("cancel %s: status %d", jid, resp.StatusCode)
		}
	}
	jobs = append(jobs, queued.ID, long.ID)

	for _, jid := range jobs {
		j, ok := s.lookupJob(jid)
		if !ok {
			t.Fatalf("job %s missing from history", jid)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			s.jobsMu.Lock()
			retired, held := j.retired, j.tensor != nil
			s.jobsMu.Unlock()
			if retired {
				if held {
					t.Errorf("retired job %s (%s) still holds its tensor", jid, j.State())
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never retired (state %s)", jid, j.State())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if j, _ := s.lookupJob(queued.ID); j.State() != StateCancelled {
		t.Errorf("queued job ended %s, want cancelled", j.State())
	}
}
