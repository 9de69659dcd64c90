package alto

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dense"
	"repro/internal/mttkrp"
	"repro/internal/parallel"
	"repro/internal/sptensor"
)

// Tests of the fused order-3 walker (runRange3Native over walk3AVX2)
// against the byte-table walker (runRange3) and the naive reference.

// nativeWalker reports whether order-3 narrow tensors take the fused
// walker on this build and host.
func nativeWalker() bool { return NativeExtract() && nativeWalk3 }

// walkerPair builds tt twice: once for the native walker and once with the
// native dispatch disabled, which selects the byte-table walker.
func walkerPair(t testing.TB, tt *sptensor.Tensor) (native, portable *Tensor) {
	t.Helper()
	native, err := FromCOO(tt, nil)
	if err != nil {
		t.Fatal(err)
	}
	portable = &Tensor{}
	*portable = *native
	portable.Enc = forceTables(native.Enc)
	return native, portable
}

// requireBitwise runs every mode's MTTKRP through both walkers and fails
// unless the outputs agree bit for bit.
func requireBitwise(t testing.TB, native, portable *Tensor, team *parallel.Team,
	rank int, strat mttkrp.ConflictStrategy, factors []*dense.Matrix) {

	t.Helper()
	opts := mttkrp.Options{Strategy: strat}
	opN := NewOperator(native, team, rank, opts)
	opP := NewOperator(portable, team, rank, opts)
	for mode, d := range native.Enc.Dims {
		outN := dense.NewMatrix(d, rank)
		outP := dense.NewMatrix(d, rank)
		opN.Apply(mode, factors, outN)
		opP.Apply(mode, factors, outP)
		for i, v := range outN.Data {
			if math.Float64bits(v) != math.Float64bits(outP.Data[i]) {
				t.Fatalf("rank %d tasks %d %v mode %d elem %d: native %v != portable %v",
					rank, team.N(), opN.LastStrategy(), mode, i, v, outP.Data[i])
			}
		}
	}
}

// TestWalker3MatchesExtract drives walk3AVX2 directly in its lock mode,
// where it hands back every finished run: the run's coordinates must be
// those of the key that ended it. The keys are unsorted, so nearly every
// key ends a run.
func TestWalker3MatchesExtract(t *testing.T) {
	if !nativeWalker() {
		t.Skip("no fused walker on this build")
	}
	rng := rand.New(rand.NewSource(37))
	for _, dims := range [][]int{{37, 19, 53}, {1 << 20, 1 << 10, 1 << 12}, {2, 3, 5}} {
		e, err := NewEncoding(dims)
		if err != nil {
			t.Fatal(err)
		}
		const n = 649
		keys := make([]uint64, n)
		vals := make([]float64, n)
		coord := make([]sptensor.Index, 3)
		for x := range keys {
			for m, d := range dims {
				coord[m] = sptensor.Index(rng.Intn(d))
			}
			keys[x], _ = e.Linearize(coord)
			vals[x] = rng.NormFloat64()
		}
		for mode := 0; mode < 3; mode++ {
			ma, mb := otherModes3(mode)
			w := &walker3{
				keys: keys, vals: vals,
				a: make([]float64, dims[ma]), b: make([]float64, dims[mb]),
				acc: make([]float64, 1),
				mT:  e.pextMasks[3*mode], mA: e.pextMasks[3*ma], mB: e.pextMasks[3*mb],
				rowsT: uint64(dims[mode]), rowsA: uint64(dims[ma]), rowsB: uint64(dims[mb]),
				rank: 1,
			}
			for w.x < n {
				before := w.x
				if got := walk3AVX2(w); got != walkRun {
					t.Fatalf("dims %v mode %d: walker returned %d, want a run", dims, mode, got)
				}
				if w.x <= before {
					t.Fatalf("dims %v mode %d: no progress from key %d", dims, mode, before)
				}
				key := keys[w.x-1]
				for m, got := range map[int]uint64{mode: w.curT, ma: w.curA, mb: w.curB} {
					if want := e.Extract(key, 0, m); sptensor.Index(got) != want {
						t.Fatalf("dims %v mode %d key %d: index of mode %d = %d, Extract %d",
							dims, mode, w.x-1, m, got, want)
					}
				}
				w.accUsed = false
			}
		}
	}
}

// walkerTensors are the differential inputs: uniform nonzeros with a few
// duplicate keys, and a small box inside the tensor, where duplicates and
// same-row coordinate changes (the accumulator path) dominate.
func walkerTensors() map[string]*sptensor.Tensor {
	dims := []int{43, 29, 61}
	return map[string]*sptensor.Tensor{
		"uniform":   boxTensor(dims, dims, 3000, true, 5),
		"dense-box": boxTensor(dims, []int{5, 4, 6}, 2000, true, 6),
	}
}

// TestWalker3MatchesPortable compares the two walkers bit for bit over
// ranks 1–40 (every 4-lane tail length) at 1–3 tasks under the lock-free
// strategies. Forced none is run single-task only: with several tasks it
// writes shared rows unsynchronized by design.
func TestWalker3MatchesPortable(t *testing.T) {
	if !nativeWalker() {
		t.Skip("no fused walker on this build")
	}
	teams := newTeams(t)[:3]
	for name, tt := range walkerTensors() {
		native, portable := walkerPair(t, tt)
		if !hasDuplicateKeys(native) {
			t.Fatalf("%s: input has no duplicate keys", name)
		}
		for rank := 1; rank <= 40; rank++ {
			factors := randomFactors(tt.Dims, rank, int64(rank))
			for _, team := range teams {
				for _, strat := range []mttkrp.ConflictStrategy{mttkrp.StrategyNone, mttkrp.StrategyPrivatize} {
					if strat == mttkrp.StrategyNone && team.N() > 1 {
						continue
					}
					requireBitwise(t, native, portable, team, rank, strat, factors)
				}
			}
		}
	}
}

// TestWalker3LockMatchesReference runs both walkers under the lock
// strategy, whose flush order depends on scheduling, against the naive
// MTTKRP.
func TestWalker3LockMatchesReference(t *testing.T) {
	teams := newTeams(t)[1:3]
	for name, tt := range walkerTensors() {
		native, portable := walkerPair(t, tt)
		for _, rank := range []int{1, 3, 4, 16, 35} {
			factors := randomFactors(tt.Dims, rank, int64(rank))
			for _, team := range teams {
				for walker, at := range map[string]*Tensor{"native": native, "portable": portable} {
					op := NewOperator(at, team, rank, mttkrp.Options{Strategy: mttkrp.StrategyLock})
					for mode, d := range tt.Dims {
						want := dense.NewMatrix(d, rank)
						naiveMTTKRP(tt, factors, mode, want)
						got := dense.NewMatrix(d, rank)
						op.Apply(mode, factors, got)
						if diff := got.MaxAbsDiff(want); diff > 1e-9 {
							t.Errorf("%s %s rank %d tasks %d mode %d: deviates by %g",
								name, walker, rank, team.N(), mode, diff)
						}
					}
				}
			}
		}
	}
}

// FuzzWalker3 derives dims, rank and nonzeros from the fuzz input and
// compares the two walkers bit for bit. Input layout: three dimension
// bytes, a rank byte, then 6 bytes per nonzero (a 16-bit coordinate per
// mode), replayed up to 512 nonzeros so short inputs repeat keys.
func FuzzWalker3(f *testing.F) {
	f.Add([]byte{42, 28, 60, 15, 1, 0, 2, 0, 3, 0, 9, 1, 4, 0, 1, 0})
	f.Add([]byte{0, 0, 0, 34, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 1, 200, 39, 0xff, 0x10, 0x20, 0x30, 0x40, 0x50, 7, 7, 7, 7, 7, 7})
	teams := newTeams(f)[:3]
	f.Fuzz(func(t *testing.T, data []byte) {
		if !nativeWalker() {
			t.Skip("no fused walker on this build")
		}
		if len(data) < 4+6 {
			return
		}
		dims := []int{1 + int(data[0]), 1 + int(data[1]), 1 + int(data[2])}
		rank := 1 + int(data[3])%40
		data = data[4:]
		nnz := min(512, 4*len(data)/6)
		tt := sptensor.New(dims, nnz)
		for x := 0; x < nnz; x++ {
			base := (6 * x) % (len(data) - 5)
			for m, d := range dims {
				v := int(data[base+2*m]) | int(data[base+2*m+1])<<8
				tt.Inds[m][x] = sptensor.Index((v + x/7) % d)
			}
			tt.Vals[x] = float64(x%13) - 6.25
		}
		native, portable := walkerPair(t, tt)
		factors := randomFactors(dims, rank, int64(nnz))
		requireBitwise(t, native, portable, teams[0], rank, mttkrp.StrategyNone, factors)
		for _, team := range teams[1:] {
			requireBitwise(t, native, portable, team, rank, mttkrp.StrategyPrivatize, factors)
		}
	})
}

// TestApplyPanicsOnOutOfRangeKey corrupts one key so that one mode's index
// lies past that mode's length (511 on the 375-long mode, and likewise for
// the others). Every mode's Apply — the corrupted mode as target and as a
// non-target — must panic under both walkers and every strategy, never
// touching memory out of bounds.
func TestApplyPanicsOnOutOfRangeKey(t *testing.T) {
	const rank = 5
	dims := []int{375, 281, 906}
	tt := sptensor.Random(dims, 2000, 17)
	factors := randomFactors(dims, rank, 19)
	teams := newTeams(t)
	configs := []struct {
		team  *parallel.Team
		strat mttkrp.ConflictStrategy
	}{
		{teams[0], mttkrp.StrategyNone},
		{teams[1], mttkrp.StrategyLock},
		{teams[1], mttkrp.StrategyPrivatize},
	}
	for bad := range dims {
		native, portable := walkerPair(t, tt)
		lo := append([]uint64(nil), native.Lo...)
		lo[len(lo)/2] |= native.Enc.pextMasks[3*bad] // index 2^bits - 1 >= dims[bad]
		if got := native.Enc.Extract(lo[len(lo)/2], 0, bad); int(got) < dims[bad] {
			t.Fatalf("corrupted index %d is in range", got)
		}
		native.Lo, portable.Lo = lo, lo
		for walker, at := range map[string]*Tensor{"native": native, "portable": portable} {
			for _, c := range configs {
				op := NewOperator(at, c.team, rank, mttkrp.Options{Strategy: c.strat})
				for mode, d := range dims {
					name := fmt.Sprintf("%s/%v/tasks=%d/bad=%d/mode=%d", walker, c.strat, c.team.N(), bad, mode)
					if !applyPanics(op, mode, factors, dense.NewMatrix(d, rank)) {
						t.Errorf("%s: Apply did not panic", name)
					}
				}
			}
		}
	}
}

func applyPanics(op *Operator, mode int, factors []*dense.Matrix, out *dense.Matrix) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	op.Apply(mode, factors, out)
	return false
}

// TestPrivScratchSizedByStrategy pins the privatization buffers to the
// modes that privatize: none without a privatized mode, and the one
// privatized mode's rows otherwise (not the longest mode's).
func TestPrivScratchSizedByStrategy(t *testing.T) {
	const rank = 4
	dims := []int{4, 500, 600}
	at, err := FromCOO(sptensor.Random(dims, 4000, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	team := parallel.NewTeam(2)
	defer team.Close()

	lock := NewOperator(at, team, rank, mttkrp.Options{Strategy: mttkrp.StrategyLock})
	if n := len(lock.priv.Buf(0)); n != 0 {
		t.Errorf("lock-only operator holds a %d-element privatization buffer", n)
	}

	auto := NewOperator(at, team, rank, mttkrp.DefaultOptions())
	for m, want := range []mttkrp.ConflictStrategy{
		mttkrp.StrategyPrivatize, mttkrp.StrategyLock, mttkrp.StrategyLock,
	} {
		if got := auto.StrategyFor(m); got != want {
			t.Fatalf("mode %d resolves to %v, want %v", m, got, want)
		}
	}
	for tid := 0; tid < team.N(); tid++ {
		if n := len(auto.priv.Buf(tid)); n != dims[0]*rank {
			t.Errorf("task %d privatization buffer %d, want %d", tid, n, dims[0]*rank)
		}
	}
}

// BenchmarkALTOMTTKRP times one MTTKRP per mode on the NELL-2 twin (1/32,
// R=16) and the YELP twin (1/8, R=35) with the native and the byte-table
// walker, at 1 task and at GOMAXPROCS tasks, reporting ns per nonzero per
// mode.
func BenchmarkALTOMTTKRP(b *testing.B) {
	inputs := []struct {
		name  string
		scale float64
		rank  int
	}{
		{"nell-2", 1.0 / 32, 16},
		{"yelp", 1.0 / 8, 35},
	}
	for _, in := range inputs {
		spec, err := sptensor.LookupDataset(in.name)
		if err != nil {
			b.Fatal(err)
		}
		tt := spec.Generate(in.scale)
		native, portable := walkerPair(b, tt)
		factors := randomFactors(tt.Dims, in.rank, 1)
		outs := make([]*dense.Matrix, len(tt.Dims))
		for m, d := range tt.Dims {
			outs[m] = dense.NewMatrix(d, in.rank)
		}
		taskCounts := []int{1}
		if p := runtime.GOMAXPROCS(0); p > 1 {
			taskCounts = append(taskCounts, p)
		}
		walkers := []struct {
			name string
			at   *Tensor
		}{{"native", native}, {"portable", portable}}
		if !nativeWalker() {
			walkers = walkers[1:]
		}
		for _, tasks := range taskCounts {
			team := parallel.NewTeam(tasks)
			for _, w := range walkers {
				op := NewOperator(w.at, team, in.rank, mttkrp.DefaultOptions())
				for m, out := range outs { // warm up: first-use set-up is not steady state
					op.Apply(m, factors, out)
				}
				name := fmt.Sprintf("%s/R=%d/tasks=%d/walker=%s", in.name, in.rank, tasks, w.name)
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						for m, out := range outs {
							op.Apply(m, factors, out)
						}
					}
					perNNZ := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(outs)*tt.NNZ())
					b.ReportMetric(perNNZ, "ns/nnz")
				})
			}
			team.Close()
		}
	}
}
