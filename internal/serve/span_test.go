package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sptensor"
)

// TestJobProfileAndTimeline is the end-to-end acceptance run for the span
// profiler surface: a completed distributed job serves a per-phase
// profile whose comm bytes reconcile with the job result, and a Chrome
// trace timeline that is valid, monotonic, and B/E-matched.
func TestJobProfileAndTimeline(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	base := ts.URL + "/v1"
	res := uploadTensor(t, base, tnsBytes(t, sptensor.Random([]int{12, 10, 8}, 300, 3)))

	st, code := submitJob(t, base, JobSpec{
		TensorID: res.ID, Kind: KindDistributed, Rank: 6, MaxIters: 6, Seed: 5, Locales: 2,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	st = waitState(t, base, st.ID, 30*time.Second, terminal)
	if st.State != StateDone {
		t.Fatalf("job ended %s (err=%q)", st.State, st.Error)
	}

	// Profile: per-phase and per-locale attribution, with comm bytes
	// summing exactly to the result's comm_bytes.
	resp, err := http.Get(base + "/jobs/" + st.ID + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	var jp JobProfile
	if err := json.NewDecoder(resp.Body).Decode(&jp); err != nil {
		t.Fatalf("profile decode: %v", err)
	}
	resp.Body.Close()
	if jp.JobID != st.ID || jp.State != StateDone || jp.Kind != KindDistributed {
		t.Errorf("profile header = %+v", jp)
	}
	stats := map[string]obs.PhaseStat{}
	var commBytes int64
	for _, ps := range jp.Profile.Phases {
		stats[ps.Phase] = ps
		if strings.HasPrefix(ps.Phase, "comm_") {
			commBytes += ps.Bytes
		}
	}
	for _, phase := range []string{"iteration", "mttkrp", "solve", "normalize", "fit", "comm_allreduce", "comm_allgather"} {
		if stats[phase].Calls == 0 {
			t.Errorf("profile missing phase %s: %+v", phase, jp.Profile.Phases)
		}
	}
	if st.Result == nil || commBytes != st.Result.CommBytes {
		t.Errorf("profile comm bytes %d != result comm_bytes %v", commBytes, st.Result)
	}
	if len(jp.Profile.Locales) != 2 {
		t.Errorf("want 2 per-locale breakdowns, got %d", len(jp.Profile.Locales))
	}

	// Timeline: Chrome trace-event JSON with per-thread monotonic
	// timestamps and stack-matched B/E pairs.
	resp, err = http.Get(base + "/jobs/" + st.ID + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("timeline Content-Type = %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	stacks := map[int][]string{}
	lastTS := map[int]float64{}
	pairs := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.TS < lastTS[ev.TID] {
			t.Fatalf("tid %d: ts %v went backwards", ev.TID, ev.TS)
		}
		lastTS[ev.TID] = ev.TS
		switch ev.Ph {
		case "B":
			stacks[ev.TID] = append(stacks[ev.TID], ev.Name)
		case "E":
			stk := stacks[ev.TID]
			if len(stk) == 0 || stk[len(stk)-1] != ev.Name {
				t.Fatalf("tid %d: unmatched E %q (stack %v)", ev.TID, ev.Name, stk)
			}
			stacks[ev.TID] = stk[:len(stk)-1]
			pairs++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	for tid, stk := range stacks {
		if len(stk) != 0 {
			t.Fatalf("tid %d: %d spans left open", tid, len(stk))
		}
	}
	if pairs == 0 {
		t.Error("timeline has no span events")
	}

	// The worker folded the profile into the Prometheus families.
	resp, err = http.Get(base + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{
		`splatt_phase_seconds_total{phase="mttkrp"}`,
		`splatt_phase_calls_total{phase="iteration"}`,
		`splatt_dist_comm_bytes_total{op="allreduce"}`,
		`splatt_dist_comm_seconds_total{op="allgather"}`,
		`splatt_dist_collective_seconds_bucket{`,
	} {
		if !strings.Contains(string(text), family) {
			t.Errorf("Prometheus exposition missing %s", family)
		}
	}

	// Unknown jobs 404 on both endpoints.
	for _, ep := range []string{"/jobs/nope/profile", "/jobs/nope/timeline"} {
		resp, err := http.Get(base + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", ep, resp.StatusCode)
		}
	}
}

// TestJobProfileWhileQueuedAndForCPD covers the non-dist shape: a cpd job
// profile has no locale breakdown and no comm phases, and polling the
// profile of a queued/running job is safe.
func TestJobProfileForCPD(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	base := ts.URL + "/v1"
	res := uploadTensor(t, base, tnsBytes(t, sptensor.Random([]int{10, 9, 8}, 250, 7)))
	st, code := submitJob(t, base, JobSpec{TensorID: res.ID, Rank: 5, MaxIters: 4})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	st = waitState(t, base, st.ID, 30*time.Second, terminal)
	if st.State != StateDone {
		t.Fatalf("job ended %s (err=%q)", st.State, st.Error)
	}
	resp, err := http.Get(base + "/jobs/" + st.ID + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	var jp JobProfile
	if err := json.NewDecoder(resp.Body).Decode(&jp); err != nil {
		t.Fatalf("profile decode: %v", err)
	}
	resp.Body.Close()
	if jp.Profile.Locales != nil {
		t.Errorf("cpd profile has locale breakdown: %+v", jp.Profile.Locales)
	}
	calls := map[string]int64{}
	for _, ps := range jp.Profile.Phases {
		if strings.HasPrefix(ps.Phase, "comm_") {
			t.Errorf("cpd profile has comm phase %s", ps.Phase)
		}
		calls[ps.Phase] = ps.Calls
	}
	if calls["mttkrp"] == 0 {
		t.Error("cpd profile has no mttkrp spans")
	}
	// The format build is attributed, not left in the unattributed rest.
	if calls["build"] != 1 {
		t.Errorf("cpd profile has %d build spans, want 1", calls["build"])
	}
}
