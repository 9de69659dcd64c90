//go:build amd64 && !purego

package dense

import "repro/internal/cpu"

// Assembly kernel declarations (vec_amd64.s). Each matches its generic
// counterpart's contract exactly: n from dst (x for the dot), remaining
// operands at least n long.
func vecAxpyAVX2(dst, x []float64, a float64)
func vecAddAVX2(dst, x []float64)
func vecMulAVX2(dst, x []float64)
func vecMulAddAVX2(dst, x, y []float64)
func vecMulSetAVX2(dst, x, y []float64)
func vecScaleSetAVX2(dst, x []float64, a float64)
func vecDotAVX2(x, y []float64) float64
func syrkRowAVX2(part, row []float64)
func vecAxpyMulSetAVX2(dst, h, x, y []float64, v float64)
func vecScaleMulSetAVX2(dst, h, x, y []float64, v float64)
func vecMulAxpyAVX2(dst, x, y []float64, v float64)

//go:noescape
func cholSolve8AVX2(l, lt, x []float64)

// cholSolveRowsAVX2 is the native cholSolveRows body: it interleaves eight
// rows at a time into scratch (element k of row r at scratch[k*8+r]),
// solves them in the YMM lanes, and copies them back; the remaining rows
// go to the portable body. Bitwise identical to CholeskySolve per row.
func cholSolveRowsAVX2(l, lt, m *Matrix, begin, end int, scratch []float64) {
	n := l.Rows
	x := scratch[:cholBatch*n]
	i := begin
	for ; i+cholBatch <= end; i += cholBatch {
		block := m.Data[i*n : (i+cholBatch)*n]
		for r := 0; r < cholBatch; r++ {
			for k, v := range block[r*n : (r+1)*n] {
				x[k*cholBatch+r] = v
			}
		}
		cholSolve8AVX2(l.Data, lt.Data, x)
		for r := 0; r < cholBatch; r++ {
			row := block[r*n : (r+1)*n]
			for k := range row {
				row[k] = x[k*cholBatch+r]
			}
		}
	}
	cholSolveRowsGeneric(l, lt, m, i, end, nil)
}

// The FMA kernels contract multiply-add rounding, so they are gated on
// both AVX2 and FMA together: mixing contracted and uncontracted kernels
// across dispatch entries would make results depend on which entry a
// caller hit.
func init() {
	if !(cpu.HasAVX2 && cpu.HasFMA) {
		return
	}
	vecAxpy = vecAxpyAVX2
	vecAdd = vecAddAVX2
	vecMul = vecMulAVX2
	vecMulAdd = vecMulAddAVX2
	vecMulSet = vecMulSetAVX2
	vecScaleSet = vecScaleSetAVX2
	vecDot = vecDotAVX2
	syrkRow = syrkRowAVX2
	vecAxpyMulSet = vecAxpyMulSetAVX2
	vecScaleMulSet = vecScaleMulSetAVX2
	vecMulAxpy = vecMulAxpyAVX2
	cholSolveRows = cholSolveRowsAVX2
	kernelISA = "avx2+fma"
}
