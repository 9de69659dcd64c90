package alto

import "repro/internal/parallel"

// radixCutoff is the range length at or below which the radix sort
// finishes a bucket with insertion sort instead of another digit pass.
const radixCutoff = 32

// keys is the sort view of a linearized tensor: the (hi, lo) key words
// plus the values that travel with them. hi is nil for narrow encodings,
// where every key's high word is zero.
type keys struct {
	lo, hi []uint64
	vals   []float64
}

// radixSort orders the nonzeros ascending by (hi, lo) key in place, with
// an MSD radix ("American flag") sort over 8-bit digits of the low
// totalBits key bits (the rest are zero). Tasks histogram the top digit
// over their blocks, one serial pass permutes the nonzeros into the 256
// buckets, and the buckets are then shared across the team by weight,
// each task sorting its buckets serially. No copy of the keys or values
// is made. The serial permutation and the per-bucket recursion are
// deterministic, so equal keys end in the same order for any team size.
func radixSort(lo, hi []uint64, vals []float64, totalBits int, team *parallel.Team) {
	n := len(lo)
	if n < 2 || totalBits == 0 {
		return
	}
	tasks := 1
	if team != nil {
		tasks = team.N()
	}
	k := keys{lo: lo, hi: hi, vals: vals}
	shift := uint(max(totalBits-8, 0))

	hists := make([][256]int, tasks)
	parallel.ForBlocks(team, n, func(tid, begin, end int) {
		var h [256]int
		for i := begin; i < end; i++ {
			h[k.digit(i, shift)]++
		}
		hists[tid] = h
	})
	var counts [256]int
	for _, h := range hists {
		for b, c := range h {
			counts[b] += c
		}
	}
	ends := k.permute(0, shift, &counts)
	if shift == 0 {
		return
	}
	weights := make([]int64, 256)
	for b, c := range counts {
		weights[b] = int64(c)
	}
	bounds := parallel.PartitionByWeight(weights, tasks)
	parallel.For(team, tasks, func(tid int) {
		for b := bounds[tid]; b < bounds[tid+1]; b++ {
			begin := 0
			if b > 0 {
				begin = ends[b-1]
			}
			k.sort(begin, ends[b], nextShift(shift))
		}
	})
}

// nextShift is the digit position below shift. The last digit may
// overlap bits already sorted on; those are equal within a bucket, so
// the overlap only costs the pass, never the order.
func nextShift(shift uint) uint {
	if shift < 8 {
		return 0
	}
	return shift - 8
}

// digit128 returns bits [shift, shift+8) of the 128-bit key (hi, lo).
func digit128(lo, hi uint64, shift uint) int {
	switch {
	case shift >= 64:
		return int(byte(hi >> (shift - 64)))
	case shift > 56:
		return int(byte(lo>>shift | hi<<(64-shift)))
	default:
		return int(byte(lo >> shift))
	}
}

// digit returns the digit at shift of key i.
func (k *keys) digit(i int, shift uint) int {
	if k.hi == nil {
		return int(byte(k.lo[i] >> shift))
	}
	return digit128(k.lo[i], k.hi[i], shift)
}

// sort orders [begin, end), whose keys agree on every bit above
// shift+8, by radix passes from the digit at shift down.
func (k *keys) sort(begin, end int, shift uint) {
	if end-begin <= radixCutoff {
		k.insertion(begin, end)
		return
	}
	var counts [256]int
	for i := begin; i < end; i++ {
		counts[k.digit(i, shift)]++
	}
	ends := k.permute(begin, shift, &counts)
	if shift == 0 {
		return
	}
	next := nextShift(shift)
	for b := 0; b < 256; b++ {
		if ends[b]-begin > 1 {
			k.sort(begin, ends[b], next)
		}
		begin = ends[b]
	}
}

// permute moves the nonzeros of [begin, begin+Σcounts) into the buckets
// of their digit at shift, in place: every misplaced nonzero is carried
// along its cycle in registers and written once, to the next free slot of
// its bucket. It returns the bucket end offsets.
func (k *keys) permute(begin int, shift uint, counts *[256]int) (ends [256]int) {
	var next [256]int
	pos := begin
	for b, c := range counts {
		next[b] = pos
		pos += c
		ends[b] = pos
	}
	wide := k.hi != nil
	for b := range next {
		for i := next[b]; i < ends[b]; i = next[b] {
			lo, v := k.lo[i], k.vals[i]
			var hi uint64
			if wide {
				hi = k.hi[i]
			}
			d := digit128(lo, hi, shift)
			for d != b {
				j := next[d]
				next[d]++
				lo, k.lo[j] = k.lo[j], lo
				v, k.vals[j] = k.vals[j], v
				if wide {
					hi, k.hi[j] = k.hi[j], hi
				}
				d = digit128(lo, hi, shift)
			}
			k.lo[i], k.vals[i] = lo, v
			if wide {
				k.hi[i] = hi
			}
			next[b]++
		}
	}
	return ends
}

// insertion sorts [begin, end) by full (hi, lo) key. It is stable, so
// equal keys keep the order the radix passes left them in.
func (k *keys) insertion(begin, end int) {
	if k.hi == nil {
		for i := begin + 1; i < end; i++ {
			lo, v := k.lo[i], k.vals[i]
			j := i
			for ; j > begin && lo < k.lo[j-1]; j-- {
				k.lo[j], k.vals[j] = k.lo[j-1], k.vals[j-1]
			}
			k.lo[j], k.vals[j] = lo, v
		}
		return
	}
	for i := begin + 1; i < end; i++ {
		lo, hi, v := k.lo[i], k.hi[i], k.vals[i]
		j := i
		for ; j > begin && (hi < k.hi[j-1] || hi == k.hi[j-1] && lo < k.lo[j-1]); j-- {
			k.lo[j], k.hi[j], k.vals[j] = k.lo[j-1], k.hi[j-1], k.vals[j-1]
		}
		k.lo[j], k.hi[j], k.vals[j] = lo, hi, v
	}
}
