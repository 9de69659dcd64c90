package mttkrp

import (
	"testing"

	"repro/internal/csf"
	"repro/internal/dense"
	"repro/internal/locks"
	"repro/internal/parallel"
	"repro/internal/sptensor"
	"repro/internal/tsort"
)

// TestDecideBoundaries pins the lock-vs-privatize rule at its edges:
// privatize iff I_n × tasks ≤ nnz / privRatio.
func TestDecideBoundaries(t *testing.T) {
	// tasks <= 1 short-circuits to direct writes regardless of the ratio.
	if got := Decide(10, 1_000_000, 1, 50); got != StrategyNone {
		t.Errorf("tasks=1: %v, want none", got)
	}
	if got := Decide(10, 1_000_000, 0, 50); got != StrategyNone {
		t.Errorf("tasks=0: %v, want none", got)
	}

	// Exact equality: modeLen*tasks == nnz/privRatio must privatize (the
	// rule is ≤, matching SPLATT).
	const modeLen, tasks, ratio = 10, 4, 50
	exact := modeLen * tasks * ratio // nnz/ratio == modeLen*tasks exactly
	if got := Decide(modeLen, exact, tasks, ratio); got != StrategyPrivatize {
		t.Errorf("exact equality: %v, want privatize", got)
	}
	// One integer step below the threshold flips to locks.
	if got := Decide(modeLen, exact-ratio, tasks, ratio); got != StrategyLock {
		t.Errorf("just under: %v, want lock", got)
	}

	// privRatio <= 0 falls back to DefaultPrivRatio.
	for _, bad := range []int{0, -7} {
		if got, want := Decide(modeLen, exact, tasks, bad), Decide(modeLen, exact, tasks, DefaultPrivRatio); got != want {
			t.Errorf("privRatio=%d: %v, want default behaviour %v", bad, got, want)
		}
	}
	if DefaultPrivRatio != ratio {
		t.Fatalf("test constants assume DefaultPrivRatio == %d (got %d)", ratio, DefaultPrivRatio)
	}

	// Degenerate inputs: zero nnz can never satisfy a positive threshold.
	if got := Decide(1, 0, 2, 50); got != StrategyLock {
		t.Errorf("nnz=0: %v, want lock", got)
	}
}

// TestStrategyTileFallbackBeyondOrder3 pins the documented fallback: the
// tile schedule exists only for 3rd-order tensors, so a forced
// StrategyTile on an order-4 tensor runs the mutex pool — and still
// computes the right answer.
func TestStrategyTileFallbackBeyondOrder3(t *testing.T) {
	tt := sptensor.Random([]int{8, 7, 6, 5}, 300, 71)
	const rank = 4
	factors := randomFactors(tt.Dims, rank, 73)
	team := parallel.NewTeam(4)
	defer team.Close()
	set := csf.NewSet(tt, csf.AllocTwo, team, tsort.AllOpt)
	op := NewOperator(set, team, rank, Options{
		Access: AccessReference, Strategy: StrategyTile, LockKind: locks.Spin,
	})
	sawLock := false
	for mode := 0; mode < tt.NModes(); mode++ {
		strat := op.StrategyFor(mode)
		if strat == StrategyTile {
			t.Errorf("mode %d: tile offered on an order-4 tensor", mode)
		}
		_, level := set.For(mode)
		if level > 0 {
			if strat != StrategyLock {
				t.Errorf("mode %d (level %d): %v, want lock fallback", mode, level, strat)
			}
			sawLock = true
		}
		want := dense.NewMatrix(tt.Dims[mode], rank)
		COO(tt, factors, mode, want)
		got := dense.NewMatrix(tt.Dims[mode], rank)
		op.Apply(mode, factors, got)
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Errorf("mode %d: tile-fallback result deviates by %g", mode, d)
		}
		if op.LastStrategy() != strat {
			t.Errorf("mode %d: LastStrategy %v != StrategyFor %v", mode, op.LastStrategy(), strat)
		}
	}
	if !sawLock {
		t.Error("no non-root mode exercised the lock fallback")
	}

	// On a 3rd-order tensor the same forced strategy does tile.
	t3 := sptensor.Random([]int{9, 8, 7}, 300, 79)
	set3 := csf.NewSet(t3, csf.AllocTwo, team, tsort.AllOpt)
	op3 := NewOperator(set3, team, rank, Options{
		Access: AccessReference, Strategy: StrategyTile, LockKind: locks.Spin,
	})
	sawTile := false
	for mode := 0; mode < t3.NModes(); mode++ {
		if op3.StrategyFor(mode) == StrategyTile {
			sawTile = true
		}
	}
	if !sawTile {
		t.Error("3rd-order tensor never offered the tile schedule")
	}
}

// TestPrivScratchSizedByStrategy pins the privatization buffers to the
// modes that privatize: none without a privatized mode, and the one
// privatized mode's rows otherwise (not the longest mode's).
func TestPrivScratchSizedByStrategy(t *testing.T) {
	const rank = 4
	dims := []int{100, 300, 5000}
	tt := sptensor.Random(dims, 1000, 9)
	team := parallel.NewTeam(2)
	defer team.Close()
	set := csf.NewSet(tt, csf.AllocOne, team, tsort.AllOpt)

	lock := NewOperator(set, team, rank, Options{Strategy: StrategyLock})
	if n := len(lock.priv.Buf(0)); n != 0 {
		t.Errorf("lock-only operator holds a %d-element privatization buffer", n)
	}

	auto := NewOperator(set, team, rank, Options{PrivRatio: 1})
	for m, want := range []ConflictStrategy{StrategyNone, StrategyPrivatize, StrategyLock} {
		if got := auto.StrategyFor(m); got != want {
			t.Fatalf("mode %d resolves to %v, want %v", m, got, want)
		}
	}
	for tid := 0; tid < team.N(); tid++ {
		if n := len(auto.priv.Buf(tid)); n != dims[1]*rank {
			t.Errorf("task %d privatization buffer %d, want %d", tid, n, dims[1]*rank)
		}
	}
}
