package alto

import (
	"repro/internal/parallel"
	"repro/internal/sptensor"
)

// Tensor is a sparse tensor in ALTO linearized form: one (or, for wide
// encodings, two) machine word(s) of interleaved coordinates per nonzero,
// sorted ascending by linearized index. A single Tensor serves every
// mode's MTTKRP — the format is mode-agnostic by construction.
type Tensor struct {
	Enc *Encoding
	// Lo holds the low 64 bits of each nonzero's linearized index.
	Lo []uint64
	// Hi holds the high bits when Enc.Wide(); nil otherwise.
	Hi []uint64
	// Vals holds the nonzero values in linearized order.
	Vals []float64

	// runs[m] counts the maximal runs of equal mode-m index in the
	// linearized order — the fiber-reuse statistic driving the per-mode
	// conflict decision (one output-row flush happens per run, not per
	// nonzero).
	runs []int64
}

// FromCOO linearizes and sorts a coordinate tensor. The input is not
// modified. team parallelizes the build (nil builds serially); the result
// does not depend on the team size. Fails only when the dimensions are not
// encodable (see NewEncoding).
func FromCOO(t *sptensor.Tensor, team *parallel.Team) (*Tensor, error) {
	enc, err := NewEncoding(t.Dims)
	if err != nil {
		return nil, err
	}
	nnz := t.NNZ()
	at := &Tensor{
		Enc:  enc,
		Lo:   make([]uint64, nnz),
		Vals: make([]float64, nnz),
	}
	if enc.Wide() {
		at.Hi = make([]uint64, nnz)
	}
	order := t.NModes()
	parallel.ForBlocks(team, nnz, func(_, begin, end int) {
		coord := make([]sptensor.Index, order)
		for x := begin; x < end; x++ {
			for m := range coord {
				coord[m] = t.Inds[m][x]
			}
			lo, hi := enc.Linearize(coord)
			at.Lo[x] = lo
			if at.Hi != nil {
				at.Hi[x] = hi
			}
		}
		copy(at.Vals[begin:end], t.Vals[begin:end])
	})
	radixSort(at.Lo, at.Hi, at.Vals, enc.TotalBits, team)
	at.computeRuns(team)
	return at, nil
}

// delinTile is the batch size of the tiled walks over the key array (run
// counting, ForEachNonzero): big enough to amortize the per-tile setup,
// small enough that one tile's keys and index columns stay L1/L2-resident.
const delinTile = 1024

// computeRuns counts, per mode, the maximal runs of equal index in the
// linearized order. Mode m's index differs between neighbouring keys
// exactly when their XOR has a bit under the mode's pext masks, so the
// count needs no delinearization: each task tallies the transitions
// between neighbours in its block (the block's last key is compared with
// the next block's first, which stitches the blocks), and the per-task
// tallies sum to a count independent of the team size.
func (at *Tensor) computeRuns(team *parallel.Team) {
	order := at.Order()
	at.runs = make([]int64, order)
	nnz := at.NNZ()
	if nnz == 0 {
		return
	}
	tasks := 1
	if team != nil {
		tasks = team.N()
	}
	masks := at.Enc.pextMasks
	counts := make([]int64, tasks*order)
	parallel.ForBlocks(team, nnz-1, func(tid, begin, end int) {
		c := counts[tid*order : (tid+1)*order]
		for tile := begin; tile < end; tile += delinTile {
			tileEnd := min(tile+delinTile, end)
			for m := range c {
				c[m] += transitions(at.Lo, at.Hi, tile, tileEnd, masks[3*m], masks[3*m+1])
			}
		}
	})
	for m := range at.runs {
		at.runs[m] = 1
		for tid := 0; tid < tasks; tid++ {
			at.runs[m] += counts[tid*order+m]
		}
	}
}

// transitions counts the x in [begin, end) whose key differs from key x+1
// under (loMask, hiMask). hi may be nil for narrow encodings.
func transitions(lo, hi []uint64, begin, end int, loMask, hiMask uint64) int64 {
	var n uint64
	if hi == nil {
		for x := begin; x < end; x++ {
			d := (lo[x] ^ lo[x+1]) & loMask
			n += (d | -d) >> 63 // 1 iff d != 0
		}
		return int64(n)
	}
	for x := begin; x < end; x++ {
		d := (lo[x]^lo[x+1])&loMask | (hi[x]^hi[x+1])&hiMask
		n += (d | -d) >> 63
	}
	return int64(n)
}

// at delinearizes nonzero x into dst.
func (at *Tensor) at(x int, dst []sptensor.Index) {
	var hi uint64
	if at.Hi != nil {
		hi = at.Hi[x]
	}
	at.Enc.Delinearize(at.Lo[x], hi, dst)
}

// Order reports the tensor order.
func (at *Tensor) Order() int { return len(at.Enc.Dims) }

// NNZ reports the nonzero count.
func (at *Tensor) NNZ() int { return len(at.Vals) }

// Runs reports the fiber-run count of mode m in the linearized order.
func (at *Tensor) Runs(m int) int64 { return at.runs[m] }

// Reuse reports mode m's fiber reuse: nonzeros per run (≥ 1). High reuse
// means consecutive nonzeros mostly share the mode-m index, so an MTTKRP
// flushes (and locks) the output row once per run instead of per nonzero.
func (at *Tensor) Reuse(m int) float64 {
	if at.runs[m] == 0 {
		return 1
	}
	return float64(at.NNZ()) / float64(at.runs[m])
}

// MemoryBytes estimates the in-memory footprint: linearized words plus
// values. This is the format's headline advantage over multi-CSF sets —
// one representation regardless of how many modes need fast MTTKRPs.
func (at *Tensor) MemoryBytes() int64 {
	words := int64(len(at.Lo))
	if at.Hi != nil {
		words += int64(len(at.Hi))
	}
	return words*8 + int64(len(at.Vals))*8
}

// ForEachNonzero streams every nonzero with its full coordinate and value
// in linearized order, delinearizing one index word at a time. The coord
// slice is reused across calls; fn must copy what it keeps. This is the
// nonzero access path the sampled (ARLS) solver builds its fiber index
// from.
func (at *Tensor) ForEachNonzero(fn func(coord []sptensor.Index, val float64)) {
	order := at.Order()
	nnz := at.NNZ()
	coord := make([]sptensor.Index, order)
	cols := make([][]sptensor.Index, order)
	for m := range cols {
		cols[m] = make([]sptensor.Index, delinTile)
	}
	for tile := 0; tile < nnz; tile += delinTile {
		end := tile + delinTile
		if end > nnz {
			end = nnz
		}
		at.Enc.DelinearizeRange(at.Lo, at.Hi, tile, end, cols, nil)
		for i := 0; i < end-tile; i++ {
			for m := 0; m < order; m++ {
				coord[m] = cols[m][i]
			}
			fn(coord, at.Vals[tile+i])
		}
	}
}

// ToCOO reconstructs the coordinate tensor (in linearized order). Tests
// use it to prove linearization loses nothing.
func (at *Tensor) ToCOO() *sptensor.Tensor {
	t := sptensor.New(at.Enc.Dims, at.NNZ())
	copy(t.Vals, at.Vals)
	coord := make([]sptensor.Index, at.Order())
	for x := 0; x < at.NNZ(); x++ {
		at.at(x, coord)
		for m := range coord {
			t.Inds[m][x] = coord[m]
		}
	}
	return t
}
