package alto

import (
	"math"
	"testing"

	"repro/internal/dense"
	"repro/internal/mttkrp"
	"repro/internal/parallel"
	"repro/internal/sptensor"
)

// Tests of the ALTO conflict rule and the interval-bounded privatization
// buffers.

// twinALTO builds the named dataset twin at scale in ALTO form.
func twinALTO(t testing.TB, name string, scale float64) *Tensor {
	t.Helper()
	spec, err := sptensor.LookupDataset(name)
	if err != nil {
		t.Fatal(err)
	}
	at, err := FromCOO(spec.Generate(scale), nil)
	if err != nil {
		t.Fatal(err)
	}
	return at
}

// refSpans recomputes, with Extract, the index interval each mode touches
// in each of tasks contiguous nonzero ranges.
func refSpans(at *Tensor, tasks int) [][]interval {
	spans := make([][]interval, tasks)
	for tid := range spans {
		spans[tid] = make([]interval, at.Order())
		begin, end := parallel.Partition(at.NNZ(), tasks, tid)
		if begin == end {
			continue
		}
		for m := range spans[tid] {
			lo, hi := math.MaxInt, -1
			for x := begin; x < end; x++ {
				var h uint64
				if at.Hi != nil {
					h = at.Hi[x]
				}
				idx := int(at.Enc.Extract(at.Lo[x], h, m))
				lo, hi = min(lo, idx), max(hi, idx)
			}
			spans[tid][m] = interval{lo: lo, n: hi - lo + 1}
		}
	}
	return spans
}

// fullBufferReference is the privatized MTTKRP with full-length buffers:
// each task's partial MTTKRP over its contiguous nonzero range lands in
// its own zeroed Dims[mode]×rank buffer, and the buffers are summed
// element by element in tid order into a zeroed output.
func fullBufferReference(at *Tensor, tasks, rank int, factors []*dense.Matrix, mode int) *dense.Matrix {
	d := at.Enc.Dims[mode]
	out := dense.NewMatrix(d, rank)
	for tid := 0; tid < tasks; tid++ {
		begin, end := parallel.Partition(at.NNZ(), tasks, tid)
		if begin == end {
			continue
		}
		part := &Tensor{Enc: at.Enc, Lo: at.Lo[begin:end], Vals: at.Vals[begin:end]}
		if at.Hi != nil {
			part.Hi = at.Hi[begin:end]
		}
		part.computeRuns(nil)
		buf := dense.NewMatrix(d, rank)
		NewOperator(part, nil, rank, mttkrp.Options{}).Apply(mode, factors, buf)
		for i, v := range buf.Data {
			out.Data[i] += v
		}
	}
	return out
}

// requireIntervalBitwise fails unless privatized MTTKRP with interval
// buffers equals fullBufferReference bit for bit in every mode.
func requireIntervalBitwise(t testing.TB, at *Tensor, team *parallel.Team, rank int, factors []*dense.Matrix) {
	t.Helper()
	op := NewOperator(at, team, rank, mttkrp.Options{Strategy: mttkrp.StrategyPrivatize})
	for mode, d := range at.Enc.Dims {
		got := dense.NewMatrix(d, rank)
		op.Apply(mode, factors, got)
		want := fullBufferReference(at, team.N(), rank, factors, mode)
		for i, v := range got.Data {
			if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
				t.Fatalf("rank %d tasks %d mode %d elem %d: interval %v != full-buffer %v",
					rank, team.N(), mode, i, v, want.Data[i])
			}
		}
	}
}

// TestPrivatizedMatchesFullBuffers checks interval privatization against
// the full-buffer reference under both walkers, on the differential
// inputs and on a hub-skewed twin whose intervals overlap only in part.
func TestPrivatizedMatchesFullBuffers(t *testing.T) {
	teams := newTeams(t)[1:]
	inputs := walkerTensors()
	spec, err := sptensor.LookupDataset("yelp")
	if err != nil {
		t.Fatal(err)
	}
	inputs["yelp"] = spec.Generate(1.0 / 64)
	for name, tt := range inputs {
		native, portable := walkerPair(t, tt)
		for _, rank := range []int{1, 4, 7, 16} {
			factors := randomFactors(tt.Dims, rank, int64(rank))
			for _, team := range teams {
				for _, at := range []*Tensor{native, portable} {
					t.Run(name, func(t *testing.T) {
						requireIntervalBitwise(t, at, team, rank, factors)
					})
				}
			}
		}
	}
}

// TestALTOStrategyRule pins the decisions of the automatic rule: every
// mode of the five dataset twins privatizes at 2, 4 and 8 tasks, and a
// hypersparse wide mode, whose task intervals cover far more rows than it
// has fiber runs, takes locks.
func TestALTOStrategyRule(t *testing.T) {
	teams := map[int]*parallel.Team{}
	for _, tasks := range []int{2, 4, 8} {
		teams[tasks] = parallel.NewTeam(tasks)
		defer teams[tasks].Close()
	}
	for _, name := range sptensor.DatasetOrder {
		at := twinALTO(t, name, 1.0/64)
		for tasks, team := range teams {
			for _, rank := range []int{16, 35} {
				op := NewOperator(at, team, rank, mttkrp.DefaultOptions())
				for m := range at.Enc.Dims {
					if got := op.StrategyFor(m); got != mttkrp.StrategyPrivatize {
						t.Errorf("%s tasks %d rank %d mode %d: %v, want privatize (runs %d)",
							name, tasks, rank, m, got, at.Runs(m))
					}
				}
			}
		}
	}

	dims := []int{1 << 20, 8, 8}
	tt := sptensor.Random(dims, 1000, 23)
	at, err := FromCOO(tt, nil)
	if err != nil {
		t.Fatal(err)
	}
	const rank = 16
	factors := randomFactors(dims, rank, 29)
	want := []mttkrp.ConflictStrategy{mttkrp.StrategyLock, mttkrp.StrategyPrivatize, mttkrp.StrategyPrivatize}
	for tasks, team := range teams {
		op := NewOperator(at, team, rank, mttkrp.DefaultOptions())
		for m, d := range dims {
			if got := op.StrategyFor(m); got != want[m] {
				t.Errorf("hypersparse tasks %d mode %d: %v, want %v", tasks, m, got, want[m])
			}
			got := dense.NewMatrix(d, rank)
			op.Apply(m, factors, got)
			ref := dense.NewMatrix(d, rank)
			naiveMTTKRP(tt, factors, m, ref)
			if diff := got.MaxAbsDiff(ref); diff > 1e-9 {
				t.Errorf("hypersparse tasks %d mode %d: deviates by %g", tasks, m, diff)
			}
		}
	}
}

// TestAutoALTORepeatable requires the automatic strategy on the YELP twin
// at 2 tasks to give the same bits on every Apply: privatization reduces
// in a fixed order, where locked flushes land in scheduling order.
func TestAutoALTORepeatable(t *testing.T) {
	const rank = 16
	at := twinALTO(t, "yelp", 1.0/16)
	team := parallel.NewTeam(2)
	defer team.Close()
	op := NewOperator(at, team, rank, mttkrp.DefaultOptions())
	factors := randomFactors(at.Enc.Dims, rank, 3)
	for mode, d := range at.Enc.Dims {
		first := dense.NewMatrix(d, rank)
		op.Apply(mode, factors, first)
		got := dense.NewMatrix(d, rank)
		for rep := 0; rep < 8; rep++ {
			op.Apply(mode, factors, got)
			for i, v := range got.Data {
				if math.Float64bits(v) != math.Float64bits(first.Data[i]) {
					t.Fatalf("mode %d (%v) apply %d elem %d: %v != %v",
						mode, op.LastStrategy(), rep+2, i, v, first.Data[i])
				}
			}
		}
	}
}

// TestOperatorSpansMatchExtract checks the operator's per-task intervals
// against a recount with Extract, on narrow and wide encodings.
func TestOperatorSpansMatchExtract(t *testing.T) {
	teams := newTeams(t)[1:]
	for _, dims := range [][]int{{43, 29, 61}, {1 << 24, 1 << 24, 1 << 24, 9}} {
		at, err := FromCOO(sptensor.Random(dims, 3000, 7), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, team := range teams {
			op := NewOperator(at, team, 2, mttkrp.DefaultOptions())
			for tid, spans := range refSpans(at, team.N()) {
				for m, want := range spans {
					if got := op.spans[tid*at.Order()+m]; got != want {
						t.Errorf("dims %v tasks %d task %d mode %d: interval %+v, want %+v",
							dims, team.N(), tid, m, got, want)
					}
				}
			}
		}
	}
}

// TestCorruptKeyIntervalsClamped corrupts one key so that every mode's
// index lies past the mode's length: the intervals, and with them the
// privatization buffers, stay inside the modes, and Apply still panics.
func TestCorruptKeyIntervalsClamped(t *testing.T) {
	const rank = 3
	dims := []int{375, 281, 906}
	tt := sptensor.Random(dims, 2000, 17)
	native, portable := walkerPair(t, tt)
	lo := append([]uint64(nil), native.Lo...)
	for m := range dims {
		lo[len(lo)-1] |= native.Enc.pextMasks[3*m]
	}
	native.Lo, portable.Lo = lo, lo
	team := parallel.NewTeam(2)
	defer team.Close()
	factors := randomFactors(dims, rank, 19)
	for _, at := range []*Tensor{native, portable} {
		op := NewOperator(at, team, rank, mttkrp.Options{Strategy: mttkrp.StrategyPrivatize})
		for tid, buf := range op.priv {
			for m, d := range dims {
				if iv := op.spans[tid*3+m]; iv.lo < 0 || iv.lo+iv.n > d {
					t.Errorf("task %d mode %d: interval %+v leaves [0, %d)", tid, m, iv, d)
				}
			}
			if len(buf) > 906*rank {
				t.Errorf("task %d: %d-element buffer exceeds the longest mode", tid, len(buf))
			}
		}
		for m, d := range dims {
			if !applyPanics(op, m, factors, dense.NewMatrix(d, rank)) {
				t.Errorf("mode %d: Apply did not panic", m)
			}
		}
	}
}
