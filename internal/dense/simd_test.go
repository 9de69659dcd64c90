package dense

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/cpu"
	"repro/internal/parallel"
)

// withGenericKernels runs fn with the dispatch table forced to the pure-Go
// bodies, restoring the detected set afterwards. Tests and the native-vs-
// generic benchmarks use it; nothing outside the test binary swaps the
// table after init.
func withGenericKernels(fn func()) {
	sAxpy, sAdd, sMul, sMulAdd, sMulSet, sScaleSet, sDot, sSyrk :=
		vecAxpy, vecAdd, vecMul, vecMulAdd, vecMulSet, vecScaleSet, vecDot, syrkRow
	sAxpyMS, sScaleMS, sMulAxpy :=
		vecAxpyMulSet, vecScaleMulSet, vecMulAxpy
	sChol := cholSolveRows
	vecAxpy, vecAdd, vecMul, vecMulAdd, vecMulSet, vecScaleSet, vecDot, syrkRow =
		vecAxpyGeneric, vecAddGeneric, vecMulGeneric, vecMulAddGeneric,
		vecMulSetGeneric, vecScaleSetGeneric, vecDotGeneric, syrkRowGeneric
	vecAxpyMulSet, vecScaleMulSet, vecMulAxpy =
		vecAxpyMulSetCompose, vecScaleMulSetCompose, vecMulAxpyGeneric
	cholSolveRows = cholSolveRowsGeneric
	defer func() {
		vecAxpy, vecAdd, vecMul, vecMulAdd, vecMulSet, vecScaleSet, vecDot, syrkRow =
			sAxpy, sAdd, sMul, sMulAdd, sMulSet, sScaleSet, sDot, sSyrk
		vecAxpyMulSet, vecScaleMulSet, vecMulAxpy =
			sAxpyMS, sScaleMS, sMulAxpy
		cholSolveRows = sChol
	}()
	fn()
}

// closeEnough compares a native result against the generic one with a
// tolerance scaled to the magnitude of the terms: FMA contraction changes
// rounding, so bitwise equality is not expected, but 1e-12 relative to the
// accumulation scale is.
func closeEnough(got, want, scale float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	if scale < 1 {
		scale = 1
	}
	return math.Abs(got-want) <= 1e-12*scale
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * 8
		if rng.Intn(16) == 0 {
			v[i] = 0 // exercise the Syrk skip path
		}
	}
	return v
}

// checkKernelParity runs every dispatched kernel against its generic body
// on the given operands and reports mismatches.
func checkKernelParity(t *testing.T, dst, x, y []float64, a float64) {
	t.Helper()
	n := len(dst)
	scale := math.Abs(a)
	for i := 0; i < n; i++ {
		s := math.Abs(dst[i]) + math.Abs(a*x[i]) + math.Abs(x[i]*y[i])
		if s > scale {
			scale = s
		}
	}

	check := func(name string, native, generic func(d []float64)) {
		t.Helper()
		dn := append([]float64(nil), dst...)
		dg := append([]float64(nil), dst...)
		native(dn)
		generic(dg)
		for i := range dn {
			if !closeEnough(dn[i], dg[i], scale) {
				t.Fatalf("%s: n=%d i=%d native=%g generic=%g", name, n, i, dn[i], dg[i])
			}
		}
	}

	check("VecAxpy", func(d []float64) { vecAxpy(d, x, a) }, func(d []float64) { vecAxpyGeneric(d, x, a) })
	check("VecAdd", func(d []float64) { vecAdd(d, x) }, func(d []float64) { vecAddGeneric(d, x) })
	check("VecMul", func(d []float64) { vecMul(d, x) }, func(d []float64) { vecMulGeneric(d, x) })
	check("VecMulAdd", func(d []float64) { vecMulAdd(d, x, y) }, func(d []float64) { vecMulAddGeneric(d, x, y) })
	check("VecMulSet", func(d []float64) { vecMulSet(d, x, y) }, func(d []float64) { vecMulSetGeneric(d, x, y) })
	check("VecScaleSet", func(d []float64) { vecScaleSet(d, x, a) }, func(d []float64) { vecScaleSetGeneric(d, x, a) })
	check("VecMulAxpy", func(d []float64) { vecMulAxpy(d, x, y, a) }, func(d []float64) { vecMulAxpyGeneric(d, x, y, a) })

	// The fused scale-accumulate kernels mutate both dst and the Hadamard
	// buffer h, so they get a two-output variant of the check.
	h := make([]float64, n)
	for i := range h {
		h[i] = 0.5*x[i] - y[i]
	}
	scale2 := scale
	for i := 0; i < n; i++ {
		if s := math.Abs(a * h[i]); s > scale2 {
			scale2 = s
		}
	}
	check2 := func(name string, native, generic func(d, hh []float64)) {
		t.Helper()
		dn, dg := append([]float64(nil), dst...), append([]float64(nil), dst...)
		hn, hg := append([]float64(nil), h...), append([]float64(nil), h...)
		native(dn, hn)
		generic(dg, hg)
		for i := range dn {
			if !closeEnough(dn[i], dg[i], scale2) {
				t.Fatalf("%s dst: n=%d i=%d native=%g generic=%g", name, n, i, dn[i], dg[i])
			}
			if !closeEnough(hn[i], hg[i], scale2) {
				t.Fatalf("%s h: n=%d i=%d native=%g generic=%g", name, n, i, hn[i], hg[i])
			}
		}
	}
	check2("VecAxpyMulSet",
		func(d, hh []float64) { vecAxpyMulSet(d, hh, x, y, a) },
		func(d, hh []float64) { vecAxpyMulSetCompose(d, hh, x, y, a) })
	check2("VecScaleMulSet",
		func(d, hh []float64) { vecScaleMulSet(d, hh, x, y, a) },
		func(d, hh []float64) { vecScaleMulSetCompose(d, hh, x, y, a) })

	gotDot := vecDot(x, y)
	wantDot := vecDotGeneric(x, y)
	dotScale := 0.0
	for i := range x {
		dotScale += math.Abs(x[i] * y[i])
	}
	if !closeEnough(gotDot, wantDot, dotScale) {
		t.Fatalf("VecDot: n=%d native=%g generic=%g", n, gotDot, wantDot)
	}
}

func TestKernelParitySizes(t *testing.T) {
	t.Logf("kernel ISA: %s (cpu %s)", KernelISA(), cpu.Summary())
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 32, 33, 63, 64, 100, 255} {
		checkKernelParity(t, randVec(rng, n), randVec(rng, n), randVec(rng, n), rng.NormFloat64()*4)
	}
}

func TestSyrkRowParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, r := range []int{1, 2, 3, 4, 5, 8, 13, 16, 32, 47} {
		row := randVec(rng, r)
		scale := 0.0
		for _, v := range row {
			if math.Abs(v) > scale {
				scale = math.Abs(v)
			}
		}
		scale = scale * scale * float64(r)
		pn := randVec(rng, r*r)
		pg := append([]float64(nil), pn...)
		syrkRow(pn, row)
		syrkRowGeneric(pg, row)
		for i := range pn {
			if !closeEnough(pn[i], pg[i], scale) {
				t.Fatalf("syrkRow r=%d i=%d native=%g generic=%g", r, i, pn[i], pg[i])
			}
		}
	}
}

// FuzzVecKernels is the differential harness of the dispatch layer: the
// fuzzer picks lengths, offsets, and raw float64 payloads, and every
// native kernel must agree with its pure-Go body within 1e-12 of the
// accumulation scale (exactly under purego builds, where both sides are
// the same code).
func FuzzVecKernels(f *testing.F) {
	f.Add(uint16(8), int64(1))
	f.Add(uint16(0), int64(2))
	f.Add(uint16(259), int64(3))
	f.Add(uint16(31), int64(-9))
	f.Fuzz(func(t *testing.T, nRaw uint16, seed int64) {
		n := int(nRaw % 300)
		rng := rand.New(rand.NewSource(seed))
		checkKernelParity(t, randVec(rng, n), randVec(rng, n), randVec(rng, n), rng.NormFloat64()*4)
	})
}

// FuzzVecKernelsRawBits drives the kernels with arbitrary bit patterns
// (including NaN, Inf, denormals) — the paths where contraction or a
// skipped multiply could diverge structurally rather than in rounding.
// NaN/Inf positions must match exactly; finite lanes use the scaled bound.
func FuzzVecKernelsRawBits(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f}) // +Inf
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0xf8, 0x7f}) // NaN
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 8
		if n == 0 {
			return
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
		// Split the payload across the three operands.
		dst := vals
		x := append([]float64(nil), vals...)
		for i, j := 0, len(x)-1; i < j; i, j = i+1, j-1 {
			x[i], x[j] = x[j], x[i]
		}
		dn := append([]float64(nil), dst...)
		dg := append([]float64(nil), dst...)
		vecMulAdd(dn, x, x)
		vecMulAddGeneric(dg, x, x)
		for i := range dn {
			gotNaN, wantNaN := math.IsNaN(dn[i]), math.IsNaN(dg[i])
			if gotNaN != wantNaN {
				t.Fatalf("VecMulAdd NaN mismatch at %d: native=%v generic=%v", i, dn[i], dg[i])
			}
			if wantNaN || math.IsInf(dg[i], 0) {
				continue
			}
			scale := math.Abs(dst[i]) + math.Abs(x[i]*x[i])
			if !closeEnough(dn[i], dg[i], scale) {
				t.Fatalf("VecMulAdd at %d: native=%g generic=%g", i, dn[i], dg[i])
			}
		}
	})
}

// cholFactors returns the Cholesky factor L, and its transpose, of the
// Gram matrix G = BᵀB (B is rows×r with entries from next) with a ridge of
// diag(G) + ridge·I added: SPD, and well conditioned after diagonal
// scaling whatever B is, so the factorization cannot fail on rounding.
func cholFactors(t testing.TB, r, rows int, ridge float64, next func() float64) (l, lt *Matrix) {
	t.Helper()
	b := NewMatrix(rows, r)
	for i := range b.Data {
		b.Data[i] = next()
	}
	l = NewMatrix(r, r)
	Syrk(nil, b, l)
	for i := 0; i < r; i++ {
		l.Set(i, i, 2*l.At(i, i)+ridge)
	}
	if err := Cholesky(l); err != nil {
		t.Fatalf("r=%d: ridged Gram not SPD: %v", r, err)
	}
	return l, l.Transpose()
}

// checkCholSolveRows runs the dispatched cholSolveRows on rows [begin, end)
// of m and requires every element of the result, inside the window and
// out, to carry the same bits as per-row CholeskySolve on that window.
func checkCholSolveRows(t *testing.T, l, lt, m *Matrix, begin, end int) {
	t.Helper()
	want := m.Clone()
	for i := begin; i < end; i++ {
		CholeskySolve(l, want.Row(i))
	}
	got := m.Clone()
	cholSolveRows(l, lt, got, begin, end, make([]float64, cholBatch*l.Rows))
	for i, w := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
			t.Fatalf("isa=%s r=%d rows=%d [%d,%d): element (%d,%d) = %v, CholeskySolve %v",
				KernelISA(), l.Rows, m.Rows, begin, end, i/l.Rows, i%l.Rows, got.Data[i], w)
		}
	}
}

// TestCholSolveRowsMatchesCholeskySolve pins the row-batched solve to the
// per-row reference bit for bit, native and generic, over ranks on both
// sides of the 4- and 8-row batch widths and windows that start off a
// batch boundary the way team partitions do.
func TestCholSolveRowsMatchesCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rowCounts := []int{1003}
	for n := 0; n < 20; n++ {
		rowCounts = append(rowCounts, n)
	}
	for _, r := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 35, 40} {
		l, lt := cholFactors(t, r, 2*r+3, 0.5, rng.NormFloat64)
		for _, rows := range rowCounts {
			m := NewRandomMatrix(rows, r, rng)
			windows := [][2]int{{0, rows}}
			if rows > 4 {
				windows = append(windows, [2]int{1, rows}, [2]int{3, rows - 1})
			}
			for tid := 0; tid < 3; tid++ {
				begin, end := parallel.Partition(rows, 3, tid)
				windows = append(windows, [2]int{begin, end})
			}
			for _, w := range windows {
				checkCholSolveRows(t, l, lt, m, w[0], w[1])
				withGenericKernels(func() { checkCholSolveRows(t, l, lt, m, w[0], w[1]) })
			}
		}
	}
}

// FuzzCholSolveRows derives the rank, the row window, an SPD V (Gram plus
// ridge) and the right-hand sides from the fuzz bytes; the row-batched
// solve must match per-row CholeskySolve bit for bit, native and generic.
func FuzzCholSolveRows(f *testing.F) {
	f.Add([]byte{34, 21, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{7, 9, 1, 1, 0x80, 0x7f, 0x10})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{39, 40, 5, 2, 0xff, 0xfe, 0x01, 0x33, 0x9c, 0x42, 0x07, 0xe1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 5 {
			return
		}
		r := 1 + int(raw[0])%40
		rows := int(raw[1]) % 48
		begin := int(raw[2]) % (rows + 1)
		end := begin + int(raw[3])%(rows-begin+1)
		payload := raw[4:]
		pos := 0
		// Entries are small integers scaled by a power of two the payload
		// also picks, so magnitudes span many binades but stay finite.
		next := func() float64 {
			b, e := payload[pos%len(payload)], payload[(pos+1)%len(payload)]
			pos++
			return math.Ldexp(float64(int8(b)), int(e%32)-16)
		}
		l, lt := cholFactors(t, r, r+int(raw[3]%4), 1, next)
		m := NewMatrix(rows, r)
		for i := range m.Data {
			m.Data[i] = next()
		}
		checkCholSolveRows(t, l, lt, m, begin, end)
		withGenericKernels(func() { checkCholSolveRows(t, l, lt, m, begin, end) })
	})
}

func benchSizes(b *testing.B, name string, run func(b *testing.B, n int)) {
	b.Helper()
	for _, n := range []int{16, 1024} {
		b.Run(name+"/n="+itoa(n)+"/isa=native", func(b *testing.B) { run(b, n) })
		b.Run(name+"/n="+itoa(n)+"/isa=generic", func(b *testing.B) {
			withGenericKernels(func() { run(b, n) })
		})
	}
}

func itoa(n int) string {
	if n == 16 {
		return "16"
	}
	return "1024"
}

var benchSink float64

// BenchmarkVecKernels pins the native-vs-generic ratio of the hot vector
// kernels; EXPERIMENTS.md records the measured speedups.
func BenchmarkVecKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	benchSizes(b, "VecDot", func(b *testing.B, n int) {
		x, y := randVec(rng, n), randVec(rng, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink += VecDot(x, y)
		}
	})
	benchSizes(b, "VecAxpy", func(b *testing.B, n int) {
		d, x := randVec(rng, n), randVec(rng, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			VecAxpy(d, x, 1.000000001)
		}
	})
	benchSizes(b, "VecMulSet", func(b *testing.B, n int) {
		d, x, y := randVec(rng, n), randVec(rng, n), randVec(rng, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			VecMulSet(d, x, y)
		}
	})
}

// BenchmarkSyrk pins the Gram-kernel ratio on a tall-skinny block shaped
// like a CP-ALS factor (4096×32).
func BenchmarkSyrk(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const rows, rank = 4096, 32
	a := NewMatrix(rows, rank)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	part := make([]float64, rank*rank)
	b.Run("isa=native", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			syrkBlock(a, part, 0, rows)
		}
	})
	b.Run("isa=generic", func(b *testing.B) {
		withGenericKernels(func() {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				syrkBlock(a, part, 0, rows)
			}
		})
	})
}

// BenchmarkCholSolveRows times the row-batched triangular solve over a
// factor-sized block (4096 rows) at R = 16 and the paper's R = 35. The
// right-hand sides are restored before every solve (untimed): solving in
// place repeatedly would shrink them into the slow denormal range.
func BenchmarkCholSolveRows(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const rows = 4096
	for _, r := range []int{16, 35} {
		l, lt := cholFactors(b, r, 2*r, 1, rng.NormFloat64)
		rhs := NewRandomMatrix(rows, r, rng)
		m := rhs.Clone()
		scratch := make([]float64, cholBatch*r)
		run := func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m.CopyFrom(rhs)
				b.StartTimer()
				cholSolveRows(l, lt, m, 0, rows, scratch)
			}
		}
		name := "r=" + strconv.Itoa(r)
		b.Run(name+"/isa=native", run)
		b.Run(name+"/isa=generic", func(b *testing.B) { withGenericKernels(func() { run(b) }) })
	}
}
