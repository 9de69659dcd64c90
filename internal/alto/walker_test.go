package alto

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

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

// TestWalker3FlatTarget drives walk3AVX2 directly into a flat output over
// unsorted keys, where nearly every key ends a run, on dims up to 2^20
// wide. The result must match the byte-table walker bit for bit and the
// naive MTTKRP to rounding.
func TestWalker3FlatTarget(t *testing.T) {
	if !nativeWalker() {
		t.Skip("no fused walker on this build")
	}
	rng := rand.New(rand.NewSource(37))
	for _, dims := range [][]int{{37, 19, 53}, {1 << 20, 1 << 10, 1 << 12}, {2, 3, 5}} {
		rank := 5
		if dims[0] > 1<<16 {
			rank = 1 // keep the 2^20-row factor and outputs small
		}
		e, err := NewEncoding(dims)
		if err != nil {
			t.Fatal(err)
		}
		const n = 649
		tt := sptensor.New(dims, n)
		at := &Tensor{Enc: e, Lo: make([]uint64, n), Vals: tt.Vals}
		coord := make([]sptensor.Index, 3)
		for x := range at.Lo {
			for m, d := range dims {
				coord[m] = sptensor.Index(rng.Intn(d))
				tt.Inds[m][x] = coord[m]
			}
			at.Lo[x], _ = e.Linearize(coord)
			tt.Vals[x] = rng.NormFloat64()
		}
		at.computeRuns(nil)
		portable := &Tensor{}
		*portable = *at
		portable.Enc = forceTables(e)
		factors := randomFactors(dims, rank, 41)
		for mode, d := range dims {
			ma, mb := otherModes3(mode)
			got := dense.NewMatrix(d, rank)
			w := &walker3{
				keys: at.Lo, vals: at.Vals,
				a: factors[ma].Data, b: factors[mb].Data,
				flat: got.Data, acc: make([]float64, rank),
				mT: e.pextMasks[3*mode], mA: e.pextMasks[3*ma], mB: e.pextMasks[3*mb],
				rowsT: uint64(d), rowsA: uint64(dims[ma]), rowsB: uint64(dims[mb]),
				rank: rank,
			}
			if res := walk3AVX2(w); res != walkDone {
				t.Fatalf("dims %v mode %d: walker returned %d at key %d", dims, mode, res, w.x)
			}
			tables := dense.NewMatrix(d, rank)
			NewOperator(portable, nil, rank, mttkrp.Options{}).Apply(mode, factors, tables)
			for i, v := range got.Data {
				if math.Float64bits(v) != math.Float64bits(tables.Data[i]) {
					t.Fatalf("dims %v mode %d elem %d: walker %v != byte-table %v",
						dims, mode, i, v, tables.Data[i])
				}
			}
			want := dense.NewMatrix(d, rank)
			naiveMTTKRP(tt, factors, mode, want)
			if diff := got.MaxAbsDiff(want); diff > 1e-9 {
				t.Errorf("dims %v mode %d: deviates from naive by %g", dims, mode, diff)
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

// TestWalker3LockMatchesReference runs the lock strategy, whose flush
// order depends on scheduling, against the naive MTTKRP. The fused walker
// has no lock mode, so the "native" tensor runs the byte-table walker here
// too, through the operator's dispatch.
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
// compares the two walkers bit for bit, and each walker's interval
// privatization with the full-buffer reference. Input layout: three dimension
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
			requireIntervalBitwise(t, native, team, rank, factors)
			requireIntervalBitwise(t, portable, team, rank, factors)
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
// modes that privatize: none without a privatized mode, and otherwise the
// widest of each task's own index intervals over those modes
// (max_m |I_t(m)|·R), not the longest mode's length.
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
	for tid, buf := range lock.priv {
		if len(buf) != 0 {
			t.Errorf("lock-only operator: task %d holds a %d-element privatization buffer", tid, len(buf))
		}
	}

	yelp := twinALTO(t, "yelp", 1.0/64)
	for _, c := range []struct {
		at    *Tensor
		strat mttkrp.ConflictStrategy
	}{
		{at, mttkrp.StrategyPrivatize},
		{yelp, mttkrp.StrategyAuto},
	} {
		op := NewOperator(c.at, team, rank, mttkrp.Options{Strategy: c.strat})
		spans := refSpans(c.at, team.N())
		for tid, buf := range op.priv {
			want := 0
			for m := range c.at.Enc.Dims {
				if op.StrategyFor(m) != mttkrp.StrategyPrivatize {
					t.Fatalf("%v: mode %d resolves to %v, want privatize", c.strat, m, op.StrategyFor(m))
				}
				want = max(want, spans[tid][m].n*rank)
			}
			if len(buf) != want {
				t.Errorf("%v: task %d privatization buffer %d, want %d", c.strat, tid, len(buf), want)
			}
		}
	}
}

// BenchmarkALTOMTTKRP times one MTTKRP per mode on the NELL-2 twin (1/32)
// and the YELP twin (1/8) at R = 16 and 35, and on a hypersparse tensor
// (4096 nonzeros, one 2^18-row mode), with the native and the byte-table
// walker. At 1 task every mode runs without conflict resolution; at
// GOMAXPROCS tasks the automatic rule runs next to forced lock and
// privatize, which the conflict-rule costs are fitted from. Forced lock
// runs the byte-table walker under either tensor, so it is reported once.
// Metrics: ns per nonzero per mode, and ns per Apply of each mode.
func BenchmarkALTOMTTKRP(b *testing.B) {
	type input struct {
		name string
		tt   *sptensor.Tensor
		rank int
	}
	var inputs []input
	for _, tw := range []struct {
		name  string
		scale float64
	}{{"nell-2", 1.0 / 32}, {"yelp", 1.0 / 8}} {
		spec, err := sptensor.LookupDataset(tw.name)
		if err != nil {
			b.Fatal(err)
		}
		tt := spec.Generate(tw.scale)
		inputs = append(inputs, input{tw.name, tt, 16}, input{tw.name, tt, 35})
	}
	inputs = append(inputs, input{"hypersparse", sptensor.Random([]int{1 << 18, 64, 64}, 4096, 5), 16})

	type config struct {
		tasks  int
		strat  mttkrp.ConflictStrategy
		walker string
	}
	configs := []config{{1, mttkrp.StrategyAuto, "native"}, {1, mttkrp.StrategyAuto, "portable"}}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		for _, s := range []mttkrp.ConflictStrategy{mttkrp.StrategyAuto, mttkrp.StrategyLock, mttkrp.StrategyPrivatize} {
			for _, w := range []string{"native", "portable"} {
				if s != mttkrp.StrategyLock || w == "portable" {
					configs = append(configs, config{p, s, w})
				}
			}
		}
	}
	teams := map[int]*parallel.Team{}
	defer func() {
		for _, team := range teams {
			team.Close()
		}
	}()
	for _, in := range inputs {
		tt := in.tt
		native, portable := walkerPair(b, tt)
		factors := randomFactors(tt.Dims, in.rank, 1)
		outs := make([]*dense.Matrix, len(tt.Dims))
		for m, d := range tt.Dims {
			outs[m] = dense.NewMatrix(d, in.rank)
		}
		for _, c := range configs {
			at := portable
			if c.walker == "native" {
				if !nativeWalker() {
					continue
				}
				at = native
			}
			team := teams[c.tasks]
			if team == nil {
				team = parallel.NewTeam(c.tasks)
				teams[c.tasks] = team
			}
			op := NewOperator(at, team, in.rank, mttkrp.Options{Strategy: c.strat})
			for m, out := range outs { // warm up: first-use set-up is not steady state
				op.Apply(m, factors, out)
			}
			name := fmt.Sprintf("%s/R=%d/tasks=%d/strategy=%v/walker=%s", in.name, in.rank, c.tasks, c.strat, c.walker)
			b.Run(name, func(b *testing.B) {
				perMode := make([]time.Duration, len(outs))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for m, out := range outs {
						start := time.Now()
						op.Apply(m, factors, out)
						perMode[m] += time.Since(start)
					}
				}
				b.StopTimer()
				perNNZ := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(outs)*tt.NNZ())
				b.ReportMetric(perNNZ, "ns/nnz")
				for m, d := range perMode {
					b.ReportMetric(float64(d.Nanoseconds())/float64(b.N), fmt.Sprintf("ns/mode%d", m))
				}
			})
		}
	}
}
