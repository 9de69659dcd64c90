package alto

import (
	"fmt"
	"math/bits"

	"repro/internal/dense"
	"repro/internal/locks"
	"repro/internal/mttkrp"
	"repro/internal/parallel"
	"repro/internal/sptensor"
)

// Operator performs MTTKRPs for every mode of an ALTO tensor. One Operator
// is built per CP-ALS run and reused across all iterations, owning the
// mutex pool, privatization buffers, and per-task walker workspaces
// exactly as the CSF operator does.
//
// Parallelization splits the linearized nonzero array into contiguous
// per-task ranges (perfect nnz balance by construction — no slice-weight
// partitioning needed, since there is no root mode). Every task walks its
// range with the incremental byte-table delinearizer (Encoding.Step; the
// order-3 narrow path inlines it over register-resident state): only the
// modes whose key bytes changed between consecutive sorted keys are
// re-extracted, and the returned change mask drives the reuse of the
// Hadamard product of the non-target factor rows across nonzeros whose
// non-target coordinates are unchanged — the linearized analogue of CSF's
// fiber-product reuse. Run accumulation is lazy (a single-nonzero run
// flushes with one fused multiply-add), and the accumulator flushes only
// when the output-mode index changes, so lock traffic scales with the
// mode's fiber-run count, not with nnz. A task's contiguous key range
// touches only an interval of each mode's indices, so its privatization
// buffer covers that interval alone. On hosts with BMI2 and AVX2+FMA the
// order-3 narrow path runs the same walk as one assembly loop per task
// (runRange3Native) under the lock-free strategies.
type Operator struct {
	t    *Tensor
	team *parallel.Team
	opts mttkrp.Options
	rank int

	pool   locks.Pool
	bounds []int // contiguous nonzero ranges, len tasks+1

	// spans[tid*order+m] is the index interval task tid's key range
	// touches in mode m (empty for an empty range; nil at one task).
	spans      []interval
	strategies []mttkrp.ConflictStrategy // per mode, fixed at construction
	// priv[tid] is task tid's privatization buffer: the widest of its
	// intervals over the privatized modes, times rank, indexed by
	// (row - interval start)·rank.
	priv [][]float64

	kernels []taskKernel // per-task walker workspaces
	faults  []any        // per-task panic raised by the last Apply

	// Staged operands of the in-flight Apply; runBody and reduceBody are
	// built once so no closure is materialized per call.
	curMode     int
	curFactors  []*dense.Matrix
	curOut      *dense.Matrix
	curStrategy mttkrp.ConflictStrategy
	runBody     func(tid int)
	reduceBody  func(tid int)

	lastStrategy mttkrp.ConflictStrategy
}

// interval is the index range [lo, lo+n) of one mode that one task's key
// range touches.
type interval struct{ lo, n int }

// taskKernel is one task's persistent kernel workspace.
type taskKernel struct {
	cur   []uint64  // incremental walker state: current coordinate per mode
	acc   []float64 // output-row accumulator (rank)
	hprod []float64 // cached non-target Hadamard product (rank)
	walk  walker3   // fused order-3 walker state (native walker only)
}

// NewOperator builds an operator for the given ALTO tensor. rank is the
// decomposition rank R; team may be nil for serial execution. Workspace
// buffers are drawn from opts.Arena when the engine provides one.
func NewOperator(t *Tensor, team *parallel.Team, rank int, opts mttkrp.Options) *Operator {
	o := &Operator{t: t, team: team, opts: opts, rank: rank}
	o.pool = locks.NewPool(opts.LockKind, opts.PoolSize)
	tasks := o.tasks()
	o.bounds = make([]int, tasks+1)
	for tid := 0; tid < tasks; tid++ {
		begin, _ := parallel.Partition(t.NNZ(), tasks, tid)
		o.bounds[tid] = begin
	}
	o.bounds[tasks] = t.NNZ()

	order := t.Order()
	if tasks > 1 {
		o.spans = make([]interval, tasks*order)
		team.Run(o.measureSpans)
	}
	o.strategies = make([]mttkrp.ConflictStrategy, order)
	for m := range o.strategies {
		o.strategies[m] = o.decide(m)
	}
	// Privatization buffers cover each task's intervals in the modes that
	// privatize only.
	o.priv = make([][]float64, tasks)
	for tid := range o.priv {
		n := 0
		for m, s := range o.strategies {
			if s == mttkrp.StrategyPrivatize {
				n = max(n, o.spans[tid*order+m].n)
			}
		}
		o.priv[tid] = make([]float64, n*rank)
	}

	arena := opts.Arena
	if arena == nil || arena.Tasks() < tasks {
		arena = parallel.NewArena(tasks)
	}
	native3 := order == 3 && t.Hi == nil && t.Enc.native && nativeWalk3
	o.kernels = make([]taskKernel, tasks)
	o.faults = make([]any, tasks)
	for tid := range o.kernels {
		ta := arena.Task(tid)
		k := &o.kernels[tid]
		k.cur = make([]uint64, order)
		k.acc = ta.F64(rank)
		k.hprod = ta.F64(rank)
	}
	o.runBody = func(tid int) {
		defer o.catch(tid)
		begin, end := o.bounds[tid], o.bounds[tid+1]
		if begin >= end {
			return
		}
		if o.curStrategy == mttkrp.StrategyPrivatize {
			buf, _ := o.privBuf(tid)
			clear(buf)
		}
		switch {
		case native3 && o.curStrategy != mttkrp.StrategyLock:
			o.runRange3Native(tid, begin, end)
		case order == 3 && o.t.Hi == nil:
			o.runRange3(tid, begin, end)
		default:
			o.runRange(tid, begin, end)
		}
	}
	o.reduceBody = o.reduce
	return o
}

// measureSpans records, for task tid's key range, the index interval each
// mode touches, clamped to the mode's length: a corrupt key can widen an
// interval to at most the whole mode, and the walkers still reject its
// out-of-range index when Apply runs. Extraction preserves order (mode m's
// index orders like the key's bits under m's masks, high word first), so
// the pass takes the masked minimum and maximum and extracts only those.
func (o *Operator) measureSpans(tid int) {
	begin, end := o.bounds[tid], o.bounds[tid+1]
	if begin >= end {
		return
	}
	enc := o.t.Enc
	lo := o.t.Lo[begin:end]
	spans := o.spans[tid*len(enc.Dims) : (tid+1)*len(enc.Dims)]
	for m, d := range enc.Dims {
		mLo, mHi := enc.pextMasks[3*m], enc.pextMasks[3*m+1]
		minLo, maxLo := ^uint64(0), uint64(0)
		var minHi, maxHi uint64
		if o.t.Hi == nil {
			for _, k := range lo {
				minLo, maxLo = min(minLo, k&mLo), max(maxLo, k&mLo)
			}
		} else {
			minHi = ^uint64(0)
			for x, kh := range o.t.Hi[begin:end] {
				h, l := kh&mHi, lo[x]&mLo
				if h < minHi || h == minHi && l < minLo {
					minHi, minLo = h, l
				}
				if h > maxHi || h == maxHi && l > maxLo {
					maxHi, maxLo = h, l
				}
			}
		}
		// Indices are read unsigned, so a corrupt one past the int32 range
		// clamps like any other instead of turning negative.
		top := uint64(d - 1)
		first := min(uint64(uint32(enc.Extract(minLo, minHi, m))), top)
		last := min(uint64(uint32(enc.Extract(maxLo, maxHi, m))), top)
		spans[m] = interval{lo: int(first), n: int(last-first) + 1}
	}
}

// catch records a panic raised by task tid (an out-of-range index in a
// corrupted key), so Apply re-raises it on the calling goroutine instead
// of the panic killing a team worker.
func (o *Operator) catch(tid int) {
	if r := recover(); r != nil {
		o.faults[tid] = r
	}
}

func (o *Operator) tasks() int {
	if o.team == nil {
		return 1
	}
	return o.team.N()
}

// LastStrategy reports the conflict strategy used by the most recent Apply.
func (o *Operator) LastStrategy() mttkrp.ConflictStrategy { return o.lastStrategy }

// Measured costs the ALTO conflict rule trades, in nanoseconds of total
// (all-task) work; see EXPERIMENTS.md, "ALTO conflict rule:
// interval-bounded privatization", for the fit.
const (
	// privElemCost is privatization's cost per element of a task's
	// interval buffer: zeroing it before the walk and adding it into the
	// output after. Fitted where the buffers outgrow the caches, the only
	// regime in which the rule is close.
	privElemCost = 4.0
	// lockRunCost is locking's cost per fiber run: one acquire/release of
	// the mutex pool around the run's flush. It is fitted with both
	// strategies on the byte-table walker; where the fused walker runs, a
	// locked mode also gives it up, which only widens the margin.
	lockRunCost = 30.0
)

// StrategyFor reports the conflict strategy Apply would use for a mode.
func (o *Operator) StrategyFor(mode int) mttkrp.ConflictStrategy { return o.strategies[mode] }

// decide picks mode's conflict strategy. The automatic rule charges each
// strategy only for the work the other does not do: privatization zeroes
// and reduces R·Σ_t |I_t(m)| elements, where I_t(m) is the index interval
// task t's key range touches, and locking takes the pool lock once per
// fiber run (flushes happen per run, not per nonzero). Both pay the flush
// itself. Privatize iff R·Σ_t|I_t(m)|·privElemCost ≤ runs(m)·lockRunCost.
func (o *Operator) decide(mode int) mttkrp.ConflictStrategy {
	if o.tasks() == 1 {
		return mttkrp.StrategyNone
	}
	switch o.opts.Strategy {
	case mttkrp.StrategyLock, mttkrp.StrategyPrivatize, mttkrp.StrategyNone:
		return o.opts.Strategy
	case mttkrp.StrategyTile:
		// Tiling is a CSF-tree phase schedule; the linearized layout has no
		// tiles, so fall back to the mutex pool (as CSF does for order > 3).
		return mttkrp.StrategyLock
	}
	order := o.t.Order()
	span := 0
	for tid := 0; tid < o.tasks(); tid++ {
		span += o.spans[tid*order+mode].n
	}
	if float64(o.rank)*float64(span)*privElemCost <= float64(o.t.Runs(mode))*lockRunCost {
		return mttkrp.StrategyPrivatize
	}
	return mttkrp.StrategyLock
}

// privBuf returns task tid's privatization buffer for the current mode,
// one rank-wide row per index of the task's interval, and the interval's
// first index, which the buffer's row 0 holds.
func (o *Operator) privBuf(tid int) (buf []float64, lo int) {
	iv := o.spans[tid*o.t.Order()+o.curMode]
	n := iv.n * o.rank
	return o.priv[tid][:n:n], iv.lo
}

// Apply computes out = MTTKRP(tensor, factors, mode). out must be
// Dims[mode]×rank and is overwritten.
func (o *Operator) Apply(mode int, factors []*dense.Matrix, out *dense.Matrix) {
	dims := o.t.Enc.Dims
	if out.Rows != dims[mode] || out.Cols != o.rank {
		panic(fmt.Sprintf("alto: output %dx%d, want %dx%d",
			out.Rows, out.Cols, dims[mode], o.rank))
	}
	out.Zero()
	strategy := o.StrategyFor(mode)
	o.lastStrategy = strategy

	o.curMode, o.curFactors, o.curOut, o.curStrategy = mode, factors, out, strategy
	o.run(o.runBody)
	for _, r := range o.faults {
		if r != nil {
			clear(o.faults)
			o.curFactors, o.curOut = nil, nil
			panic(r)
		}
	}
	if strategy == mttkrp.StrategyPrivatize {
		o.run(o.reduceBody)
	}
	o.curFactors, o.curOut = nil, nil
}

// run executes body once per task, on the team when there is one.
func (o *Operator) run(body func(tid int)) {
	if o.team == nil || o.team.N() == 1 {
		body(0)
	} else {
		o.team.Run(body)
	}
}

// reduce adds the task buffers into the zeroed output over output rows
// split across the team: for each task in tid order, its buffer over the
// overlap of its interval with this task's rows. Rows outside a task's
// interval hold +0 in a full-length buffer, and adding +0 to a sum that
// starts at +0 changes no bit, so every output element sees the same
// additions in the same order as a reduce over full-length buffers.
func (o *Operator) reduce(tid int) {
	rank, order := o.rank, o.t.Order()
	begin, end := parallel.Partition(o.curOut.Rows, o.tasks(), tid)
	out := o.curOut.Data
	for t, buf := range o.priv {
		iv := o.spans[t*order+o.curMode]
		lo, hi := max(begin, iv.lo), min(end, iv.lo+iv.n)
		if lo < hi {
			dense.VecAdd(out[lo*rank:hi*rank], buf[(lo-iv.lo)*rank:(hi-iv.lo)*rank])
		}
	}
}

// flush commits the accumulated output row under the conflict strategy and
// clears the accumulator.
func (o *Operator) flush(strategy mttkrp.ConflictStrategy, out *dense.Matrix,
	privBuf []float64, privLo int, row sptensor.Index, acc []float64) {

	id := int(row)
	switch strategy {
	case mttkrp.StrategyLock:
		target := out.Row(id) // bounds-checked outside the lock
		o.pool.Lock(id)
		dense.VecAdd(target, acc)
		o.pool.Unlock(id)
	case mttkrp.StrategyPrivatize:
		off := (id - privLo) * o.rank
		dense.VecAdd(privBuf[off:off+o.rank], acc)
	default: // StrategyNone: single task, direct writes
		dense.VecAdd(out.Row(id), acc)
	}
	dense.VecZero(acc)
}

// runRange is the kernel body for one task's contiguous nonzero range: walk
// the sorted keys with the incremental byte-table delinearizer (Step),
// reuse the non-target Hadamard product across nonzeros whose non-target
// coordinates are unchanged, and flush the accumulator on output-row
// change.
func (o *Operator) runRange(tid, begin, end int) {
	enc := o.t.Enc
	mode := o.curMode
	factors, out, strategy := o.curFactors, o.curOut, o.curStrategy
	lo, hiArr, vals := o.t.Lo, o.t.Hi, o.t.Vals
	k := &o.kernels[tid]
	cur, acc, hprod := k.cur, k.acc, k.hprod

	// Modes other than the target: a change there invalidates hprod.
	// Mask bits are exact for modes 0..30; every mode >= 31 folds onto
	// bit 31, so bit 31 may only be cleared when the target is a low mode
	// that owns its bit exclusively — for a target mode >= 31 the bit also
	// carries other modes' changes and must stay in otherMask (the check
	// degrades to an always-recompute, never to a stale reuse).
	otherMask := ^uint32(0)
	if mode < 31 {
		otherMask &^= 1 << uint(mode)
	}

	var privBuf []float64
	privLo := 0
	if strategy == mttkrp.StrategyPrivatize {
		privBuf, privLo = o.privBuf(tid)
	}

	prevLo := lo[begin]
	var prevHi uint64
	if hiArr != nil {
		prevHi = hiArr[begin]
	}
	enc.ExtractAll(prevLo, prevHi, cur)
	curRow := sptensor.Index(cur[mode])
	o.hadamard(mode, factors, cur, hprod)
	dense.VecAxpy(acc, hprod, vals[begin])

	for x := begin + 1; x < end; x++ {
		curLo := lo[x]
		var curHi uint64
		if hiArr != nil {
			curHi = hiArr[x]
		}
		mask := enc.Step(prevLo, prevHi, curLo, curHi, cur)
		prevLo, prevHi = curLo, curHi
		if row := sptensor.Index(cur[mode]); row != curRow {
			o.flush(strategy, out, privBuf, privLo, curRow, acc)
			curRow = row
		}
		if mask&otherMask != 0 {
			o.hadamard(mode, factors, cur, hprod)
		}
		dense.VecAxpy(acc, hprod, vals[x])
	}
	o.flush(strategy, out, privBuf, privLo, curRow, acc)
}

// runRange3 is the 3rd-order narrow-encoding specialization of runRange:
// the walker state lives in three registers, the byte-patch loop is
// inlined (no per-step call, no slice-state indirection), and the
// non-target Hadamard product is a single two-row VecMulSet — matching the
// specialization the CSF side gets from its 3rd-order kernels. Wide
// (two-word) order-3 encodings take the generic path.
func (o *Operator) runRange3(tid, begin, end int) {
	enc := o.t.Enc
	mode := o.curMode
	factors, out, strategy := o.curFactors, o.curOut, o.curStrategy
	lo, vals := o.t.Lo, o.t.Vals
	k := &o.kernels[tid]
	acc, hprod := k.acc, k.hprod
	deltas := enc.chunkDeltas

	ma, mb := otherModes3(mode)
	fa, fb := factors[ma], factors[mb]

	var privBuf []float64
	privLo := 0
	if strategy == mttkrp.StrategyPrivatize {
		privBuf, privLo = o.privBuf(tid)
	}

	prevLo := lo[begin]
	cur := k.cur
	enc.ExtractAll(prevLo, 0, cur)
	// Register-resident walker state, target-ordered: curT is the output
	// coordinate, curA/curB the non-target ones. Delta rows are indexed by
	// the (loop-invariant) mode positions, so no per-nonzero remapping.
	curT, curA, curB := cur[mode], cur[ma], cur[mb]
	curRow := sptensor.Index(curT)
	dense.VecMulSet(hprod, fa.Row(int(curA)), fb.Row(int(curB)))

	// Lazy run accumulation: a value sharing the current (row, hprod) pair
	// only bumps the scalar vpend; acc materializes only when hprod changes
	// mid-run. Runs that never materialize (the common short-run case)
	// flush with a single direct VecAxpy instead of the
	// accumulate/add/zero triple.
	vpend := vals[begin]
	pendValid, accUsed := true, false

	for x := begin + 1; x < end; x++ {
		curLo := lo[x]
		// Inlined Step for order 3: patch the registers from the changed
		// bytes' delta rows. A nonzero XOR delta implies a real coordinate
		// change (chunk contributions are disjoint bit sets), so the flags
		// are exact.
		diff := curLo ^ prevLo
		rowChanged, otherChanged := false, false
		for diff != 0 {
			b := bits.TrailingZeros64(diff) >> 3
			shift := 8 * uint(b)
			d := deltas[b]
			oldOff := int(byte(prevLo>>shift)) * 3
			newOff := int(byte(curLo>>shift)) * 3
			oldRow := d[oldOff : oldOff+3]
			newRow := d[newOff : newOff+3]
			if dd := oldRow[mode] ^ newRow[mode]; dd != 0 {
				curT ^= dd
				rowChanged = true
			}
			if dd := oldRow[ma] ^ newRow[ma]; dd != 0 {
				curA ^= dd
				otherChanged = true
			}
			if dd := oldRow[mb] ^ newRow[mb]; dd != 0 {
				curB ^= dd
				otherChanged = true
			}
			diff &^= 0xFF << shift
		}
		prevLo = curLo
		if rowChanged {
			o.flushRun(strategy, out, privBuf, privLo, curRow, acc, hprod, vpend, pendValid, accUsed)
			curRow = sptensor.Index(curT)
			pendValid, accUsed = false, false
		}
		if otherChanged {
			ra, rb := fa.Row(int(curA)), fb.Row(int(curB))
			if pendValid { // materialize the pending value under the old hprod
				if accUsed {
					vecMaterializeMul(acc, hprod, ra, rb, vpend)
				} else {
					vecMaterializeMulSet(acc, hprod, ra, rb, vpend)
					accUsed = true
				}
				pendValid = false
			} else {
				dense.VecMulSet(hprod, ra, rb)
			}
		}
		v := vals[x]
		if pendValid {
			vpend += v // merged keys share row and hprod
		} else {
			vpend = v
			pendValid = true
		}
	}
	o.flushRun(strategy, out, privBuf, privLo, curRow, acc, hprod, vpend, pendValid, accUsed)
}

// walker3 is one task's operands and run state for the fused order-3
// walker; the assembly reads its fields through go_asm.h offsets.
type walker3 struct {
	keys       []uint64  // Lo up to the range end: the walk stops at len(keys)
	vals       []float64 // Vals up to the range end
	a, b       []float64 // non-target factor rows, rank-strided
	flat       []float64 // flush target: rowsT rank-wide rows from row base
	acc        []float64 // run accumulator (rank)
	mT, mA, mB uint64    // pext masks of the target and non-target modes
	// Every adopted index is checked against its bounds: the target index
	// must lie in [base, base+rowsT), the others below rowsA and rowsB.
	base                uint64
	rowsT, rowsA, rowsB uint64
	rank                int
	// flatBase is the address row 0 of the target mode would have in flat,
	// set by the walker on entry; it is only ever offset by a checked
	// index, and flat keeps the buffer alive.
	flatBase uintptr

	x       int  // next key to adopt; the offending key after walkOutOfRange
	accUsed bool // acc holds a materialized part of the current run
}

// Results of walk3AVX2.
const (
	walkDone       = iota // range walked, every run flushed
	walkOutOfRange        // key x holds an index outside its bounds
)

// runRange3Native drives the fused AVX2+BMI2 walker (walk3AVX2) over one
// task's range under a lock-free strategy. The walker reads the sorted
// keys directly, extracts each mode's index with one pext, and runs the
// lazy-run accumulation of runRange3 with the rank loop in YMM registers,
// in the same operation sequence: duplicate keys add into the pending
// value; a same-row coordinate change materializes it into acc as
// v·round(a·b), then as an FMA; a row change adds acc into the target row
// and then applies fma(v, round(a·b), target). The Hadamard product rounds
// before the FMA because the portable walker materializes it into hprod
// first, so both walkers agree bit for bit. Under privatization the target
// is the task's interval buffer, based at the interval start.
func (o *Operator) runRange3Native(tid, begin, end int) {
	enc, mode, rank := o.t.Enc, o.curMode, o.rank
	ma, mb := otherModes3(mode)
	fa, fb := o.curFactors[ma], o.curFactors[mb]
	k := &o.kernels[tid]
	w := &k.walk
	*w = walker3{
		keys: o.t.Lo[:end], vals: o.t.Vals[:end],
		a: fa.Data[:fa.Rows*rank], b: fb.Data[:fb.Rows*rank],
		acc: k.acc[:rank],
		// Narrow encoding: the low-word pext masks extract whole indices.
		mT: enc.pextMasks[3*mode], mA: enc.pextMasks[3*ma], mB: enc.pextMasks[3*mb],
		rowsA: uint64(fa.Rows), rowsB: uint64(fb.Rows),
		rank: rank, x: begin,
	}
	if o.curStrategy == mttkrp.StrategyPrivatize {
		buf, lo := o.privBuf(tid)
		w.flat, w.base, w.rowsT = buf, uint64(lo), uint64(o.spans[tid*3+mode].n)
	} else {
		dimT := enc.Dims[mode]
		w.flat, w.rowsT = o.curOut.Data[:dimT*rank], uint64(dimT)
	}
	if walk3AVX2(w) == walkOutOfRange {
		panic(fmt.Sprintf("alto: nonzero %d has an index out of range", w.x))
	}
}

// flushRun commits one output row's run: the materialized accumulator (if
// any) plus the pending value under the current Hadamard product.
func (o *Operator) flushRun(strategy mttkrp.ConflictStrategy, out *dense.Matrix,
	privBuf []float64, privLo int, row sptensor.Index, acc, hprod []float64, vpend float64,
	pendValid, accUsed bool) {

	id := int(row)
	var target []float64
	switch strategy {
	case mttkrp.StrategyPrivatize:
		off := (id - privLo) * o.rank
		target = privBuf[off : off+o.rank]
	default:
		target = out.Row(id)
	}
	locked := strategy == mttkrp.StrategyLock
	if locked { // the target is bounds-checked outside the lock
		o.pool.Lock(id)
	}
	if accUsed {
		dense.VecAdd(target, acc)
	}
	if pendValid {
		dense.VecAxpy(target, hprod, vpend)
	}
	if locked {
		o.pool.Unlock(id)
	}
	if accUsed {
		dense.VecZero(acc)
	}
}

// otherModes3 returns the two non-target modes of an order-3 tensor.
func otherModes3(mode int) (ma, mb int) {
	switch mode {
	case 0:
		return 1, 2
	case 1:
		return 0, 2
	}
	return 0, 1
}

// vecMaterializeMulSet / vecMaterializeMul materialize a pending run and
// recompute the Hadamard product. On generic builds the fused single-pass
// bodies below win (one loop instead of two); when the dense package has
// native SIMD kernels, two vectorized passes beat one scalar pass and the
// pointers are repointed at dense-kernel pairs.
var (
	vecMaterializeMulSet = vecMaterializeMulSetGeneric
	vecMaterializeMul    = vecMaterializeMulGeneric
)

func init() {
	if dense.Native() {
		vecMaterializeMulSet = dense.VecScaleMulSet
		vecMaterializeMul = dense.VecAxpyMulSet
	}
}

// vecMaterializeMulSetGeneric fuses a pending-run materialization with the
// Hadamard recompute in one pass: acc[i] = v·hprod[i], then hprod[i] =
// a[i]·b[i]. Unrolled by 4 like the dense vector kernels.
func vecMaterializeMulSetGeneric(acc, hprod, a, b []float64, v float64) {
	n := len(acc)
	i := 0
	for ; i+4 <= n; i += 4 {
		acc[i] = v * hprod[i]
		acc[i+1] = v * hprod[i+1]
		acc[i+2] = v * hprod[i+2]
		acc[i+3] = v * hprod[i+3]
		hprod[i] = a[i] * b[i]
		hprod[i+1] = a[i+1] * b[i+1]
		hprod[i+2] = a[i+2] * b[i+2]
		hprod[i+3] = a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		acc[i] = v * hprod[i]
		hprod[i] = a[i] * b[i]
	}
}

// vecMaterializeMulGeneric is vecMaterializeMulSetGeneric with
// accumulation: acc[i] += v·hprod[i], then hprod[i] = a[i]·b[i].
func vecMaterializeMulGeneric(acc, hprod, a, b []float64, v float64) {
	n := len(acc)
	i := 0
	for ; i+4 <= n; i += 4 {
		acc[i] += v * hprod[i]
		acc[i+1] += v * hprod[i+1]
		acc[i+2] += v * hprod[i+2]
		acc[i+3] += v * hprod[i+3]
		hprod[i] = a[i] * b[i]
		hprod[i+1] = a[i+1] * b[i+1]
		hprod[i+2] = a[i+2] * b[i+2]
		hprod[i+3] = a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		acc[i] += v * hprod[i]
		hprod[i] = a[i] * b[i]
	}
}

// hadamard recomputes the cached Hadamard product of the non-target factor
// rows at the walker's current coordinates.
func (o *Operator) hadamard(mode int, factors []*dense.Matrix, cur []uint64, hprod []float64) {
	first := true
	for m := range cur {
		if m == mode {
			continue
		}
		fr := factors[m].Row(int(cur[m]))
		if first {
			copy(hprod, fr)
			first = false
		} else {
			dense.VecMul(hprod, fr)
		}
	}
	if first { // order-1 degenerate: empty product
		for j := range hprod {
			hprod[j] = 1
		}
	}
}
