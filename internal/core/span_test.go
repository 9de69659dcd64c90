package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sketch"
)

func phaseStats(p *obs.Profiler) map[string]obs.PhaseStat {
	out := map[string]obs.PhaseStat{}
	for _, st := range p.Profile().Phases {
		out[st.Phase] = st
	}
	return out
}

// TestSpanPhasesExactALS pins the phase ledger of an exact ALS run: every
// phase the solver executes appears with the structurally-determined call
// count (modes × iterations for per-mode phases, iterations for the rest).
func TestSpanPhasesExactALS(t *testing.T) {
	tensor := sessionTensor(t)
	modes := tensor.NModes()
	opts := DefaultOptions()
	opts.Rank = 8
	opts.MaxIters = 6
	opts.Spans = obs.NewProfiler(1, 4096)

	_, report, err := CPD(tensor, opts)
	if err != nil {
		t.Fatal(err)
	}
	iters := int64(report.Iterations)
	stats := phaseStats(opts.Spans)

	for phase, want := range map[string]int64{
		"build":     1,
		"iteration": iters,
		"fit":       iters,
		"mttkrp":    iters * int64(modes),
		"solve":     iters * int64(modes),
		"normalize": iters * int64(modes),
		"gram":      iters * int64(modes) * 2, // Hadamard + post-solve Syrk
	} {
		if got := stats[phase].Calls; got != want {
			t.Errorf("%s calls = %d, want %d", phase, got, want)
		}
	}
	for _, phase := range []string{"refine", "sample", "sampled_mttkrp", "leverage",
		"comm_barrier", "comm_allreduce", "comm_allgather"} {
		if _, ok := stats[phase]; ok {
			t.Errorf("exact single-node ALS recorded unexpected phase %s", phase)
		}
	}
	// The iteration envelope must dominate its constituent phases.
	inner := stats["fit"].Seconds + stats["mttkrp"].Seconds +
		stats["solve"].Seconds + stats["normalize"].Seconds + stats["gram"].Seconds
	if stats["iteration"].Seconds < inner {
		t.Errorf("iteration seconds %v < sum of nested phases %v",
			stats["iteration"].Seconds, inner)
	}
}

// TestSpanPhasesARLS pins the sampled solver's split: sampled iterations
// record iteration/sample/sampled_mttkrp/leverage spans, the exact tail
// records refine spans, and the two iteration envelopes partition the run.
func TestSpanPhasesARLS(t *testing.T) {
	tensor := sessionTensor(t)
	opts := DefaultOptions()
	opts.Rank = 8
	opts.MaxIters = 8
	opts.RefineIters = 3
	opts.Solver = sketch.ARLS
	opts.Spans = obs.NewProfiler(1, 4096)

	_, report, err := CPD(tensor, opts)
	if err != nil {
		t.Fatal(err)
	}
	stats := phaseStats(opts.Spans)

	sampled := int64(report.SampledIters)
	exact := int64(report.Iterations - report.SampledIters)
	if sampled == 0 || exact == 0 {
		t.Fatalf("run had %d sampled / %d exact iterations; test needs both", sampled, exact)
	}
	if got := stats["iteration"].Calls; got != sampled {
		t.Errorf("iteration calls = %d, want %d (sampled envelopes)", got, sampled)
	}
	if got := stats["refine"].Calls; got != exact {
		t.Errorf("refine calls = %d, want %d (exact tail envelopes)", got, exact)
	}
	for _, phase := range []string{"sample", "sampled_mttkrp", "leverage"} {
		if stats[phase].Calls == 0 {
			t.Errorf("no %s spans recorded for the sampled phase", phase)
		}
	}
}

// TestSpanIterateAllocationFree pins the tentpole's hard constraint:
// steady-state iterations with span recording enabled stay at 0
// allocs/op. The ring is sized to overflow mid-test so the drop path is
// covered too.
func TestSpanIterateAllocationFree(t *testing.T) {
	tensor := sessionTensor(t)
	for _, tc := range []struct {
		name   string
		solver sketch.Solver
		tasks  int
	}{
		{"als-serial", sketch.ALS, 1},
		{"als-parallel", sketch.ALS, 4},
		{"arls-parallel", sketch.ARLS, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Rank = 8
			opts.MaxIters = 1 << 20 // never the limiter
			opts.RefineIters = 2
			opts.Tasks = tc.tasks
			opts.Solver = tc.solver
			opts.Spans = obs.NewProfiler(1, 32)
			s, err := NewSession(tensor, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.Iterate(1) // warm-up: grows arena pools, builds fiber indexes
			if n := testing.AllocsPerRun(5, func() { s.Iterate(1) }); n != 0 {
				t.Errorf("span-enabled steady-state iteration allocates %.1f per run, want 0", n)
			}
		})
	}
}
