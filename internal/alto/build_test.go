package alto

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/parallel"
	"repro/internal/sptensor"
)

// Differential tests of the ALTO build (parallel linearize, in-place radix
// sort, mask-diff run counting) against a serial reference that sorts with
// sort.Sort and counts runs by full delinearization.

// refSorter orders nonzeros by (hi, lo) linearized index through the
// sort.Interface — the reference the radix sort must reproduce.
type refSorter Tensor

func (s *refSorter) Len() int { return len(s.Lo) }

func (s *refSorter) Less(i, j int) bool {
	if s.Hi != nil && s.Hi[i] != s.Hi[j] {
		return s.Hi[i] < s.Hi[j]
	}
	return s.Lo[i] < s.Lo[j]
}

func (s *refSorter) Swap(i, j int) {
	s.Lo[i], s.Lo[j] = s.Lo[j], s.Lo[i]
	if s.Hi != nil {
		s.Hi[i], s.Hi[j] = s.Hi[j], s.Hi[i]
	}
	s.Vals[i], s.Vals[j] = s.Vals[j], s.Vals[i]
}

// refFromCOO is the serial reference build.
func refFromCOO(t *sptensor.Tensor) (*Tensor, error) {
	enc, err := NewEncoding(t.Dims)
	if err != nil {
		return nil, err
	}
	nnz := t.NNZ()
	at := &Tensor{Enc: enc, Lo: make([]uint64, nnz), Vals: append([]float64(nil), t.Vals...)}
	if enc.Wide() {
		at.Hi = make([]uint64, nnz)
	}
	coord := make([]sptensor.Index, t.NModes())
	for x := 0; x < nnz; x++ {
		for m := range coord {
			coord[m] = t.Inds[m][x]
		}
		lo, hi := enc.linearizeSegs(coord)
		at.Lo[x] = lo
		if at.Hi != nil {
			at.Hi[x] = hi
		}
	}
	sort.Sort((*refSorter)(at))
	order := t.NModes()
	at.runs = make([]int64, order)
	prev := make([]sptensor.Index, order)
	cur := make([]sptensor.Index, order)
	for x := 0; x < nnz; x++ {
		at.at(x, cur)
		for m := range cur {
			if x == 0 || cur[m] != prev[m] {
				at.runs[m]++
			}
		}
		copy(prev, cur)
	}
	return at, nil
}

// sameBuild reports the first difference between two builds, comparing
// keys and runs always and values only when vals is set.
func sameBuild(got, want *Tensor, vals bool) error {
	if len(got.Lo) != len(want.Lo) || (got.Hi == nil) != (want.Hi == nil) {
		return fmt.Errorf("shape: nnz %d vs %d, wide %v vs %v",
			len(got.Lo), len(want.Lo), got.Hi != nil, want.Hi != nil)
	}
	for x := range want.Lo {
		if got.Lo[x] != want.Lo[x] {
			return fmt.Errorf("Lo[%d] = %x, want %x", x, got.Lo[x], want.Lo[x])
		}
		if want.Hi != nil && got.Hi[x] != want.Hi[x] {
			return fmt.Errorf("Hi[%d] = %x, want %x", x, got.Hi[x], want.Hi[x])
		}
		if vals && math.Float64bits(got.Vals[x]) != math.Float64bits(want.Vals[x]) {
			return fmt.Errorf("Vals[%d] = %v, want %v", x, got.Vals[x], want.Vals[x])
		}
	}
	for m := range want.runs {
		if got.Runs(m) != want.Runs(m) {
			return fmt.Errorf("Runs(%d) = %d, want %d", m, got.Runs(m), want.Runs(m))
		}
	}
	return nil
}

// hasDuplicateKeys reports whether a sorted build holds equal keys.
func hasDuplicateKeys(at *Tensor) bool {
	for x := 1; x < len(at.Lo); x++ {
		if at.Lo[x] == at.Lo[x-1] && (at.Hi == nil || at.Hi[x] == at.Hi[x-1]) {
			return true
		}
	}
	return false
}

// checkBuild builds t at team sizes 1–4 (and nil) and compares every
// build with the reference: bitwise when t is duplicate-free, and on keys
// and runs otherwise, with values then required equal across team sizes.
func checkBuild(t *testing.T, tt *sptensor.Tensor, teams []*parallel.Team) {
	t.Helper()
	want, err := refFromCOO(tt)
	if err != nil {
		t.Fatal(err)
	}
	dup := hasDuplicateKeys(want)
	serial, err := FromCOO(tt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBuild(serial, want, !dup); err != nil {
		t.Fatalf("serial build vs reference: %v", err)
	}
	for _, team := range teams {
		got, err := FromCOO(tt, team)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBuild(got, serial, true); err != nil {
			t.Fatalf("tasks=%d build vs serial: %v", team.N(), err)
		}
	}
}

func newTeams(t testing.TB) []*parallel.Team {
	teams := make([]*parallel.Team, 4)
	for i := range teams {
		teams[i] = parallel.NewTeam(i + 1)
	}
	t.Cleanup(func() {
		for _, team := range teams {
			team.Close()
		}
	})
	return teams
}

// shuffled returns t with its nonzeros in random order, so the build
// never sees presorted input.
func shuffled(t *sptensor.Tensor, seed int64) *sptensor.Tensor {
	out := t.Clone()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(out.NNZ(), func(i, j int) {
		for m := range out.Inds {
			out.Inds[m][i], out.Inds[m][j] = out.Inds[m][j], out.Inds[m][i]
		}
		out.Vals[i], out.Vals[j] = out.Vals[j], out.Vals[i]
	})
	return out
}

// boxTensor draws nnz coordinates uniformly from [0, box[m]) inside a
// tensor of the given dims, keeping duplicates when dups is set and
// dropping them otherwise.
func boxTensor(dims, box []int, nnz int, dups bool, seed int64) *sptensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := sptensor.New(dims, 0)
	seen := map[string]bool{}
	coord := make([]sptensor.Index, len(dims))
	for tries := 0; t.NNZ() < nnz && tries < 20*nnz; tries++ {
		for m := range dims {
			coord[m] = sptensor.Index(rng.Intn(box[m]))
		}
		if k := fmt.Sprint(coord); !dups {
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		for m := range dims {
			t.Inds[m] = append(t.Inds[m], coord[m])
		}
		t.Vals = append(t.Vals, rng.NormFloat64())
	}
	return t
}

func TestFromCOOMatchesReference(t *testing.T) {
	teams := newTeams(t)
	cases := []struct {
		name string
		t    *sptensor.Tensor
	}{
		{"empty", sptensor.New([]int{9, 8, 7}, 0)},
		{"one", boxTensor([]int{9, 8, 7}, []int{9, 8, 7}, 1, false, 1)},
		{"unit-modes", boxTensor([]int{1, 1, 1}, []int{1, 1, 1}, 1, false, 2)},
		{"unit-and-wide-modes", boxTensor([]int{1, 5000, 1, 300}, []int{1, 5000, 1, 300}, 4000, false, 3)},
		{"order3", boxTensor([]int{300, 200, 500}, []int{300, 200, 500}, 20000, false, 4)},
		{"order3-cutoff", boxTensor([]int{40, 40, 40}, []int{40, 40, 40}, radixCutoff+1, false, 5)},
		{"order4", boxTensor([]int{50, 60, 70, 9}, []int{50, 60, 70, 9}, 15000, false, 6)},
		{"order5", boxTensor([]int{31, 17, 1000, 2, 90}, []int{31, 17, 1000, 2, 90}, 15000, false, 7)},
		{"one-top-bucket", boxTensor([]int{1 << 12, 1 << 12, 1 << 12}, []int{8, 8, 64}, 3000, false, 8)},
		{"wide", boxTensor([]int{1 << 24, 1 << 24, 1 << 24}, []int{1 << 24, 1 << 24, 1 << 24}, 10000, false, 9)},
		{"wide-straddle", boxTensor([]int{1 << 24, 1 << 24, 1 << 24}, []int{1 << 22, 1 << 22, 1 << 22}, 10000, false, 10)},
		{"wide-low-word-only", boxTensor([]int{1 << 24, 1 << 24, 1 << 24}, []int{1 << 10, 1 << 10, 1 << 10}, 10000, false, 11)},
		{"wide-order5", boxTensor([]int{1 << 21, 1 << 21, 1 << 21, 1 << 21, 1 << 21}, []int{1 << 21, 1 << 21, 1 << 21, 1 << 21, 1 << 21}, 8000, false, 12)},
		{"random-shuffled", shuffled(sptensor.Random([]int{120, 90, 70}, 20000, 13), 14)},
		{"duplicates", boxTensor([]int{30, 20, 10}, []int{30, 20, 10}, 20000, true, 15)},
		{"duplicates-wide", boxTensor([]int{1 << 24, 1 << 24, 1 << 24}, []int{4, 40, 4}, 5000, true, 16)},
		{"all-equal", boxTensor([]int{30, 20, 10}, []int{1, 1, 1}, 500, true, 17)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkBuild(t, c.t, teams) })
	}
}

// FuzzFromCOO decodes the input into a small tensor — order, per-mode
// bit-widths and coordinates — and runs the differential build check.
// Widths up to 31 bits per mode (the int32 index range) reach narrow,
// straddling and two-word keys; coordinates may repeat, which exercises
// the team-size invariance of equal keys.
func FuzzFromCOO(f *testing.F) {
	f.Add([]byte{3, 4, 4, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{5, 30, 30, 30, 30, 0, 0xff, 0x10, 0x20, 0x30, 0x40})
	f.Add([]byte{4, 0, 0, 0, 0})
	f.Add([]byte{3, 24, 24, 24, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	teams := newTeams(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if tt := fuzzTensor(data); tt != nil {
			checkBuild(t, tt, teams)
		}
	})
}

// fuzzTensor decodes a fuzz input (see FuzzFromCOO), or returns nil when
// the input is too short or its dimensions are not encodable.
func fuzzTensor(data []byte) *sptensor.Tensor {
	if len(data) < 1 {
		return nil
	}
	order := 3 + int(data[0])%3
	data = data[1:]
	if len(data) < order {
		return nil
	}
	dims := make([]int, order)
	for m := range dims {
		dims[m] = 1 << (int(data[m]) % 32)
	}
	data = data[order:]
	if _, err := NewEncoding(dims); err != nil {
		return nil
	}
	// Each coordinate takes 4 bytes, masked to its mode's range; the
	// stream is replayed with a per-pass offset up to 1024 nonzeros so a
	// short input still yields multi-level radix buckets.
	nnz := 0
	stride := 4 * order
	if len(data) >= stride {
		nnz = min(1024, 16*len(data)/stride)
	}
	tt := sptensor.New(dims, nnz)
	for x := 0; x < nnz; x++ {
		base := (x * stride) % (len(data) - stride + 1)
		pass := uint32(x*stride/len(data)) * 2654435761
		for m := 0; m < order; m++ {
			b := data[base+4*m : base+4*m+4]
			v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
			tt.Inds[m][x] = sptensor.Index((v ^ pass) & uint32(dims[m]-1))
		}
		tt.Vals[x] = float64(x)
	}
	return tt
}

// TestEncodingHotPathsDoNotAllocate pins the key paths at zero heap
// allocations on both the native and the portable dispatch: a scratch
// array that escapes (e.g. through an assembly declaration without
// //go:noescape) costs one allocation per nonzero in the build.
func TestEncodingHotPathsDoNotAllocate(t *testing.T) {
	for _, dims := range [][]int{{300, 200, 500}, {50, 60, 70, 9}, {1 << 24, 1 << 24, 1 << 24}} {
		native, err := NewEncoding(dims)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []*Encoding{native, forceTables(native)} {
			name := fmt.Sprintf("%v/native=%v", dims, e.native)
			tt := boxTensor(dims, dims, 256, false, 19)
			at, err := refFromCOO(tt)
			if err != nil {
				t.Fatal(err)
			}
			order := len(dims)
			coord := make([]sptensor.Index, order)
			for m := range coord {
				coord[m] = tt.Inds[m][0]
			}
			cur := make([]uint64, order)
			out := make([][]sptensor.Index, order)
			for m := range out {
				out[m] = make([]sptensor.Index, at.NNZ())
			}
			changed := make([]uint32, at.NNZ())
			var hi0, hi1 uint64
			if at.Hi != nil {
				hi0, hi1 = at.Hi[0], at.Hi[1]
			}
			for _, p := range []struct {
				path string
				fn   func()
			}{
				{"Linearize", func() { e.Linearize(coord) }},
				{"ExtractAll", func() { e.ExtractAll(at.Lo[0], hi0, cur) }},
				{"Step", func() { e.Step(at.Lo[0], hi0, at.Lo[1], hi1, cur) }},
				{"DelinearizeRange", func() { e.DelinearizeRange(at.Lo, at.Hi, 0, at.NNZ(), out, changed) }},
			} {
				if allocs := testing.AllocsPerRun(50, p.fn); allocs != 0 {
					t.Errorf("%s: %s allocates %v times per call", name, p.path, allocs)
				}
			}
		}
	}
}

// TestFromCOOAllocsIndependentOfNNZ pins the build's allocation count as
// a constant: the key and value arrays, the run counts, and per-task
// bookkeeping — nothing per nonzero.
func TestFromCOOAllocsIndependentOfNNZ(t *testing.T) {
	dims := []int{300, 200, 500}
	small := boxTensor(dims, dims, 2000, false, 21)
	large := boxTensor(dims, dims, 40000, false, 22)
	for _, tasks := range []int{1, 3} {
		team := parallel.NewTeam(tasks)
		allocs := func(tt *sptensor.Tensor) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := FromCOO(tt, team); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := allocs(small), allocs(large); a != b {
			t.Errorf("tasks=%d: %v allocs at nnz %d but %v at nnz %d",
				tasks, a, small.NNZ(), b, large.NNZ())
		}
		team.Close()
	}
}
