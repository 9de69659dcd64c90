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
// mode's fiber-run count, not with nnz. On hosts with BMI2 and AVX2+FMA the
// order-3 narrow path runs the same walk as one assembly loop per task
// (runRange3Native).
type Operator struct {
	t    *Tensor
	team *parallel.Team
	opts mttkrp.Options
	rank int

	pool   locks.Pool
	priv   *parallel.Scratch
	bounds []int // contiguous nonzero ranges, len tasks+1

	kernels []taskKernel // per-task walker workspaces
	faults  []any        // per-task panic raised by the last Apply

	// Staged operands of the in-flight Apply; runBody is built once so no
	// closure is materialized per call.
	curMode     int
	curFactors  []*dense.Matrix
	curOut      *dense.Matrix
	curStrategy mttkrp.ConflictStrategy
	runBody     func(tid int)

	lastStrategy mttkrp.ConflictStrategy
}

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
	// Privatization buffers are sized for the modes that privatize only.
	privSize := 0
	for m, d := range t.Enc.Dims {
		if o.StrategyFor(m) == mttkrp.StrategyPrivatize {
			privSize = max(privSize, d*rank)
		}
	}
	tasks := o.tasks()
	o.priv = parallel.NewScratch(tasks, privSize)
	o.bounds = make([]int, tasks+1)
	for tid := 0; tid < tasks; tid++ {
		begin, _ := parallel.Partition(t.NNZ(), tasks, tid)
		o.bounds[tid] = begin
	}
	o.bounds[tasks] = t.NNZ()

	arena := opts.Arena
	if arena == nil || arena.Tasks() < tasks {
		arena = parallel.NewArena(tasks)
	}
	order := t.Order()
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
		switch {
		case native3:
			o.runRange3Native(tid, begin, end)
		case order == 3 && o.t.Hi == nil:
			o.runRange3(tid, begin, end)
		default:
			o.runRange(tid, begin, end)
		}
	}
	return o
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

// StrategyFor reports the conflict strategy Apply would use for a mode.
//
// The automatic decision adapts SPLATT's lock-vs-privatize rule to the
// linearized layout: because row flushes happen once per fiber run, the
// rule compares the privatization-reduction cost I_m × tasks against
// runs(m) / privRatio — the *run* count, not nnz. A mode with high fiber
// reuse (runs ≪ nnz) therefore leans toward locks, which it acquires
// rarely, instead of paying the dense O(I_m × tasks) reduction.
func (o *Operator) StrategyFor(mode int) mttkrp.ConflictStrategy {
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
	return mttkrp.Decide(o.t.Enc.Dims[mode], int(o.t.Runs(mode)), o.tasks(), o.opts.PrivRatio)
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

	if strategy == mttkrp.StrategyPrivatize {
		o.priv.Zero(dims[mode] * o.rank)
	}
	o.curMode, o.curFactors, o.curOut, o.curStrategy = mode, factors, out, strategy
	if o.team == nil || o.team.N() == 1 {
		o.runBody(0)
	} else {
		o.team.Run(o.runBody)
	}
	o.curFactors, o.curOut = nil, nil
	for _, r := range o.faults {
		if r != nil {
			clear(o.faults)
			panic(r)
		}
	}
	if strategy == mttkrp.StrategyPrivatize {
		o.priv.ReduceInto(o.team, out.Data, dims[mode]*o.rank)
	}
}

// flush commits the accumulated output row under the conflict strategy and
// clears the accumulator.
func (o *Operator) flush(strategy mttkrp.ConflictStrategy, out *dense.Matrix,
	privBuf []float64, row sptensor.Index, acc []float64) {

	id := int(row)
	switch strategy {
	case mttkrp.StrategyLock:
		target := out.Row(id) // bounds-checked outside the lock
		o.pool.Lock(id)
		dense.VecAdd(target, acc)
		o.pool.Unlock(id)
	case mttkrp.StrategyPrivatize:
		dense.VecAdd(privBuf[id*o.rank:id*o.rank+o.rank], acc)
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
	if strategy == mttkrp.StrategyPrivatize {
		n := o.t.Enc.Dims[mode] * o.rank
		privBuf = o.priv.Buf(tid)[:n:n]
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
			o.flush(strategy, out, privBuf, curRow, acc)
			curRow = row
		}
		if mask&otherMask != 0 {
			o.hadamard(mode, factors, cur, hprod)
		}
		dense.VecAxpy(acc, hprod, vals[x])
	}
	o.flush(strategy, out, privBuf, curRow, acc)
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
	if strategy == mttkrp.StrategyPrivatize {
		n := o.t.Enc.Dims[mode] * o.rank
		privBuf = o.priv.Buf(tid)[:n:n]
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
			o.flushRun(strategy, out, privBuf, curRow, acc, hprod, vpend, pendValid, accUsed)
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
	o.flushRun(strategy, out, privBuf, curRow, acc, hprod, vpend, pendValid, accUsed)
}

// walker3 is one task's operands and run state for the fused order-3
// walker; the assembly reads its fields through go_asm.h offsets.
type walker3 struct {
	keys       []uint64  // Lo up to the range end: the walk stops at len(keys)
	vals       []float64 // Vals up to the range end
	a, b       []float64 // non-target factor rows, rank-strided
	flat       []float64 // lock-free flush target (rowsT rows); nil under locks
	acc        []float64 // run accumulator (rank)
	mT, mA, mB uint64    // pext masks of the target and non-target modes
	// Row bounds every adopted index is checked against.
	rowsT, rowsA, rowsB uint64
	rank                int

	// Run state: x is the next key to adopt; when the walker returns a
	// finished run, cur* are its last coordinates and vpend its pending value.
	x                int
	curT, curA, curB uint64
	vpend            float64
	accUsed          bool
}

// Results of walk3AVX2.
const (
	walkDone       = iota // range walked, every run flushed
	walkRun               // a finished run awaits a locked flush (flat == nil)
	walkOutOfRange        // key x holds an index outside its mode
)

// runRange3Native drives the fused AVX2+BMI2 walker (walk3AVX2) over one
// task's range. The walker reads the sorted keys directly, extracts each
// mode's index with one pext, and runs the lazy-run accumulation of
// runRange3 with the rank loop in YMM registers, in the same operation
// sequence: duplicate keys add into the pending value; a same-row
// coordinate change materializes it into acc as v·round(a·b), then as an
// FMA; a row change adds acc into the target row and then applies
// fma(v, round(a·b), target). The Hadamard product rounds before the FMA
// because the portable walker materializes it into hprod first, so both
// walkers agree bit for bit. Lock-free strategies flush inside the
// walker; under locks it returns each finished run, which is flushed here
// inside the pool lock.
func (o *Operator) runRange3Native(tid, begin, end int) {
	enc, mode, rank := o.t.Enc, o.curMode, o.rank
	ma, mb := otherModes3(mode)
	fa, fb := o.curFactors[ma], o.curFactors[mb]
	dimT := enc.Dims[mode]
	k := &o.kernels[tid]
	w := &k.walk
	*w = walker3{
		keys: o.t.Lo[:end], vals: o.t.Vals[:end],
		a: fa.Data[:fa.Rows*rank], b: fb.Data[:fb.Rows*rank],
		acc: k.acc[:rank],
		// Narrow encoding: the low-word pext masks extract whole indices.
		mT: enc.pextMasks[3*mode], mA: enc.pextMasks[3*ma], mB: enc.pextMasks[3*mb],
		rowsT: uint64(dimT), rowsA: uint64(fa.Rows), rowsB: uint64(fb.Rows),
		rank: rank, x: begin,
	}
	switch o.curStrategy {
	case mttkrp.StrategyPrivatize:
		w.flat = o.priv.Buf(tid)[:dimT*rank]
	case mttkrp.StrategyNone:
		w.flat = o.curOut.Data[:dimT*rank]
	}
	for {
		switch walk3AVX2(w) {
		case walkDone:
			return
		case walkOutOfRange:
			panic(fmt.Sprintf("alto: nonzero %d has an index out of range", w.x))
		}
		o.flushRunRows(w.curT, w.acc, fa.Row(int(w.curA)), fb.Row(int(w.curB)), w.vpend, w.accUsed)
		if w.x == end {
			return
		}
		w.accUsed = false
	}
}

// flushRunRows flushes one run the native walker handed back under the
// lock strategy: the materialized accumulator (if any), then the pending
// value straight from the factor rows via the fused scaled-Hadamard kernel.
func (o *Operator) flushRunRows(row uint64, acc, ra, rb []float64, vpend float64, accUsed bool) {
	id := int(row)
	target := o.curOut.Row(id)
	o.pool.Lock(id)
	if accUsed {
		dense.VecAdd(target, acc)
	}
	dense.VecMulAxpy(target, ra, rb, vpend)
	o.pool.Unlock(id)
	if accUsed {
		dense.VecZero(acc)
	}
}

// flushRun commits one output row's run: the materialized accumulator (if
// any) plus the pending value under the current Hadamard product.
func (o *Operator) flushRun(strategy mttkrp.ConflictStrategy, out *dense.Matrix,
	privBuf []float64, row sptensor.Index, acc, hprod []float64, vpend float64,
	pendValid, accUsed bool) {

	id := int(row)
	var target []float64
	switch strategy {
	case mttkrp.StrategyPrivatize:
		target = privBuf[id*o.rank : id*o.rank+o.rank]
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
