//go:build amd64 && !purego

#include "textflag.h"

// AVX2+FMA vector kernels. Layout conventions shared by every routine:
// the element count n comes from dst's (or x's, for VecDot) slice header;
// callers guarantee every other operand has at least n elements. Main
// loops process 8 float64s (two YMM registers) per iteration, then a
// 4-wide block, then a VEX-encoded scalar tail (no SSE/AVX transition
// penalties), and exit through VZEROUPPER.

// func vecAxpyAVX2(dst, x []float64, a float64)
TEXT ·vecAxpyAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   axpy_tail4
axpy_loop8:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VFMADD213PD (DI)(AX*8), Y0, Y1
	VFMADD213PD 32(DI)(AX*8), Y0, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   axpy_loop8
axpy_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  axpy_tail1
	VMOVUPD (SI)(AX*8), Y1
	VFMADD213PD (DI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
axpy_tail1:
	CMPQ AX, CX
	JGE  axpy_done
axpy_s1:
	VMOVSD (SI)(AX*8), X1
	VFMADD213SD (DI)(AX*8), X0, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   axpy_s1
axpy_done:
	VZEROUPPER
	RET

// func vecAddAVX2(dst, x []float64)
TEXT ·vecAddAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   add_tail4
add_loop8:
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD 32(DI)(AX*8), Y2
	VADDPD (SI)(AX*8), Y1, Y1
	VADDPD 32(SI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   add_loop8
add_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  add_tail1
	VMOVUPD (DI)(AX*8), Y1
	VADDPD (SI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
add_tail1:
	CMPQ AX, CX
	JGE  add_done
add_s1:
	VMOVSD (DI)(AX*8), X1
	VADDSD (SI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   add_s1
add_done:
	VZEROUPPER
	RET

// func vecMulAVX2(dst, x []float64)
TEXT ·vecMulAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   mul_tail4
mul_loop8:
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD 32(DI)(AX*8), Y2
	VMULPD (SI)(AX*8), Y1, Y1
	VMULPD 32(SI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   mul_loop8
mul_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  mul_tail1
	VMOVUPD (DI)(AX*8), Y1
	VMULPD (SI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
mul_tail1:
	CMPQ AX, CX
	JGE  mul_done
mul_s1:
	VMOVSD (DI)(AX*8), X1
	VMULSD (SI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   mul_s1
mul_done:
	VZEROUPPER
	RET

// func vecMulAddAVX2(dst, x, y []float64)
TEXT ·vecMulAddAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ y_base+48(FP), BX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   muladd_tail4
muladd_loop8:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMOVUPD (DI)(AX*8), Y3
	VMOVUPD 32(DI)(AX*8), Y4
	VFMADD231PD (BX)(AX*8), Y1, Y3
	VFMADD231PD 32(BX)(AX*8), Y2, Y4
	VMOVUPD Y3, (DI)(AX*8)
	VMOVUPD Y4, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   muladd_loop8
muladd_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  muladd_tail1
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD (DI)(AX*8), Y3
	VFMADD231PD (BX)(AX*8), Y1, Y3
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ $4, AX
muladd_tail1:
	CMPQ AX, CX
	JGE  muladd_done
muladd_s1:
	VMOVSD (SI)(AX*8), X1
	VMOVSD (DI)(AX*8), X3
	VFMADD231SD (BX)(AX*8), X1, X3
	VMOVSD X3, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   muladd_s1
muladd_done:
	VZEROUPPER
	RET

// func vecMulSetAVX2(dst, x, y []float64)
TEXT ·vecMulSetAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ y_base+48(FP), BX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   mulset_tail4
mulset_loop8:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD (BX)(AX*8), Y1, Y1
	VMULPD 32(BX)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   mulset_loop8
mulset_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  mulset_tail1
	VMOVUPD (SI)(AX*8), Y1
	VMULPD (BX)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
mulset_tail1:
	CMPQ AX, CX
	JGE  mulset_done
mulset_s1:
	VMOVSD (SI)(AX*8), X1
	VMULSD (BX)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   mulset_s1
mulset_done:
	VZEROUPPER
	RET

// func vecScaleSetAVX2(dst, x []float64, a float64)
TEXT ·vecScaleSetAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   scaleset_tail4
scaleset_loop8:
	VMULPD (SI)(AX*8), Y0, Y1
	VMULPD 32(SI)(AX*8), Y0, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   scaleset_loop8
scaleset_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  scaleset_tail1
	VMULPD (SI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
scaleset_tail1:
	CMPQ AX, CX
	JGE  scaleset_done
scaleset_s1:
	VMULSD (SI)(AX*8), X0, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   scaleset_s1
scaleset_done:
	VZEROUPPER
	RET

// func vecDotAVX2(x, y []float64) float64
TEXT ·vecDotAVX2(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), BX
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   dot_tail4
dot_loop8:
	VMOVUPD (SI)(AX*8), Y3
	VMOVUPD 32(SI)(AX*8), Y4
	VFMADD231PD (BX)(AX*8), Y3, Y1
	VFMADD231PD 32(BX)(AX*8), Y4, Y2
	ADDQ $8, AX
	CMPQ AX, DX
	JL   dot_loop8
dot_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  dot_reduce
	VMOVUPD (SI)(AX*8), Y3
	VFMADD231PD (BX)(AX*8), Y3, Y1
	ADDQ $4, AX
dot_reduce:
	// Fold the two 4-lane accumulators into one scalar in X1.
	VADDPD Y2, Y1, Y1
	VEXTRACTF128 $1, Y1, X2
	VADDPD X2, X1, X1
	VPERMILPD $1, X1, X2
	VADDSD X2, X1, X1
	CMPQ AX, CX
	JGE  dot_done
dot_s1:
	VMOVSD (SI)(AX*8), X3
	VFMADD231SD (BX)(AX*8), X3, X1
	INCQ AX
	CMPQ AX, CX
	JL   dot_s1
dot_done:
	VMOVSD X1, ret+48(FP)
	VZEROUPPER
	RET

// func syrkRowAVX2(part, row []float64)
//
// One row's rank-1 update of the upper-triangle Gram partial:
// part[j*r+k] += row[j]*row[k] for k >= j, r = len(row). Fusing the j
// loop into assembly keeps `row` streaming from L1 and removes the per-j
// dispatch overhead the generic body pays on its VecAxpy calls.
TEXT ·syrkRowAVX2(SB), NOSPLIT, $0-48
	MOVQ part_base+0(FP), DI
	MOVQ row_base+24(FP), SI
	MOVQ row_len+32(FP), CX // r
	XORQ R8, R8             // j
	MOVQ DI, R9             // &part[j*(r+1)]
	MOVQ SI, R10            // &row[j]
	MOVQ CX, R11            // r - j
	MOVQ CX, R12            // (r+1)*8: per-j stride of the diagonal
	SHLQ $3, R12
	ADDQ $8, R12
	VXORPD X5, X5, X5       // 0.0 for the skip test
syrk_j:
	CMPQ R8, CX
	JGE  syrk_done
	VMOVSD (R10), X0
	VUCOMISD X5, X0
	JP   syrk_nz  // NaN: unordered compare, do not skip
	JE   syrk_next
syrk_nz:
	VBROADCASTSD (R10), Y0
	XORQ AX, AX
	MOVQ R11, DX
	ANDQ $-8, DX
	JE   syrk_tail4
syrk_loop8:
	VMOVUPD (R10)(AX*8), Y1
	VMOVUPD 32(R10)(AX*8), Y2
	VFMADD213PD (R9)(AX*8), Y0, Y1
	VFMADD213PD 32(R9)(AX*8), Y0, Y2
	VMOVUPD Y1, (R9)(AX*8)
	VMOVUPD Y2, 32(R9)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   syrk_loop8
syrk_tail4:
	MOVQ R11, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  syrk_tail1
	VMOVUPD (R10)(AX*8), Y1
	VFMADD213PD (R9)(AX*8), Y0, Y1
	VMOVUPD Y1, (R9)(AX*8)
	ADDQ $4, AX
syrk_tail1:
	CMPQ AX, R11
	JGE  syrk_next
syrk_s1:
	VMOVSD (R10)(AX*8), X1
	VFMADD213SD (R9)(AX*8), X0, X1
	VMOVSD X1, (R9)(AX*8)
	INCQ AX
	CMPQ AX, R11
	JL   syrk_s1
syrk_next:
	INCQ R8
	ADDQ R12, R9
	ADDQ $8, R10
	DECQ R11
	JMP  syrk_j
syrk_done:
	VZEROUPPER
	RET

// func vecAxpyMulSetAVX2(dst, h, x, y []float64, v float64)
// dst[i] += v*h[i]; h[i] = x[i]*y[i] — one pass, h loaded once.
TEXT ·vecAxpyMulSetAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ h_base+24(FP), BX
	MOVQ x_base+48(FP), SI
	MOVQ y_base+72(FP), R8
	VBROADCASTSD v+96(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   axms_tail4
axms_loop8:
	VMOVUPD (BX)(AX*8), Y1
	VMOVUPD 32(BX)(AX*8), Y2
	VFMADD213PD (DI)(AX*8), Y0, Y1
	VFMADD213PD 32(DI)(AX*8), Y0, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD (SI)(AX*8), Y3
	VMOVUPD 32(SI)(AX*8), Y4
	VMULPD (R8)(AX*8), Y3, Y3
	VMULPD 32(R8)(AX*8), Y4, Y4
	VMOVUPD Y3, (BX)(AX*8)
	VMOVUPD Y4, 32(BX)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   axms_loop8
axms_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  axms_tail1
	VMOVUPD (BX)(AX*8), Y1
	VFMADD213PD (DI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD (SI)(AX*8), Y3
	VMULPD (R8)(AX*8), Y3, Y3
	VMOVUPD Y3, (BX)(AX*8)
	ADDQ $4, AX
axms_tail1:
	CMPQ AX, CX
	JGE  axms_done
axms_s1:
	VMOVSD (BX)(AX*8), X1
	VFMADD213SD (DI)(AX*8), X0, X1
	VMOVSD X1, (DI)(AX*8)
	VMOVSD (SI)(AX*8), X3
	VMULSD (R8)(AX*8), X3, X3
	VMOVSD X3, (BX)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   axms_s1
axms_done:
	VZEROUPPER
	RET

// func vecScaleMulSetAVX2(dst, h, x, y []float64, v float64)
// dst[i] = v*h[i]; h[i] = x[i]*y[i] — one pass, h loaded once.
TEXT ·vecScaleMulSetAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ h_base+24(FP), BX
	MOVQ x_base+48(FP), SI
	MOVQ y_base+72(FP), R8
	VBROADCASTSD v+96(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   sms_tail4
sms_loop8:
	VMOVUPD (BX)(AX*8), Y1
	VMOVUPD 32(BX)(AX*8), Y2
	VMULPD Y0, Y1, Y1
	VMULPD Y0, Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD (SI)(AX*8), Y3
	VMOVUPD 32(SI)(AX*8), Y4
	VMULPD (R8)(AX*8), Y3, Y3
	VMULPD 32(R8)(AX*8), Y4, Y4
	VMOVUPD Y3, (BX)(AX*8)
	VMOVUPD Y4, 32(BX)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   sms_loop8
sms_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  sms_tail1
	VMOVUPD (BX)(AX*8), Y1
	VMULPD Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD (SI)(AX*8), Y3
	VMULPD (R8)(AX*8), Y3, Y3
	VMOVUPD Y3, (BX)(AX*8)
	ADDQ $4, AX
sms_tail1:
	CMPQ AX, CX
	JGE  sms_done
sms_s1:
	VMOVSD (BX)(AX*8), X1
	VMULSD X0, X1, X1
	VMOVSD X1, (DI)(AX*8)
	VMOVSD (SI)(AX*8), X3
	VMULSD (R8)(AX*8), X3, X3
	VMOVSD X3, (BX)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   sms_s1
sms_done:
	VZEROUPPER
	RET

// func vecMulAxpyAVX2(dst, x, y []float64, v float64)
// dst[i] += v * (x[i]*y[i]); the product rounds (VMULPD) before the fused
// scale-accumulate so results match VecMulSet-then-VecAxpy bitwise.
TEXT ·vecMulAxpyAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ y_base+48(FP), R8
	VBROADCASTSD v+72(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   mxp_tail4
mxp_loop8:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD (R8)(AX*8), Y1, Y1
	VMULPD 32(R8)(AX*8), Y2, Y2
	VFMADD213PD (DI)(AX*8), Y0, Y1
	VFMADD213PD 32(DI)(AX*8), Y0, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   mxp_loop8
mxp_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  mxp_tail1
	VMOVUPD (SI)(AX*8), Y1
	VMULPD (R8)(AX*8), Y1, Y1
	VFMADD213PD (DI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
mxp_tail1:
	CMPQ AX, CX
	JGE  mxp_done
mxp_s1:
	VMOVSD (SI)(AX*8), X1
	VMULSD (R8)(AX*8), X1, X1
	VFMADD213SD (DI)(AX*8), X0, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   mxp_s1
mxp_done:
	VZEROUPPER
	RET

// func cholSolve8AVX2(l, lt, x []float64)
//
// Solves (L·Lᵀ)·x = b for eight right-hand sides at once, in place. x is
// n×8 interleaved (x[k*8+r] is element k of row r), n = len(x)/8; l holds
// L and lt holds Lᵀ, both n×n row-major. Y0 carries rows 0-3 and Y1 rows
// 4-7 of the element being solved. Every lane runs CholeskySolve's
// sequence: ascending k, a rounded VMULPD then a VSUBPD (deliberately not
// a fused VFNMADD, which would round once and break bitwise parity with
// the portable body), then a VDIVPD by the diagonal.
TEXT ·cholSolve8AVX2(SB), NOSPLIT, $0-72
	MOVQ l_base+0(FP), SI
	MOVQ lt_base+24(FP), DX
	MOVQ x_base+48(FP), DI
	MOVQ x_len+56(FP), CX
	SHRQ $3, CX             // n
	MOVQ CX, R11            // row stride of l and lt in bytes
	SHLQ $3, R11

	// Forward: L·y = b, i ascending; y[i] -= L[i,k]·y[k] for k < i.
	XORQ AX, AX             // i
	MOVQ SI, R8             // &L[i,0]
	MOVQ DI, R9             // &x[i*8]
chol_fwd_row:
	CMPQ AX, CX
	JGE  chol_bwd
	VMOVUPD (R9), Y0
	VMOVUPD 32(R9), Y1
	XORQ BX, BX             // k
	MOVQ DI, R10            // &x[k*8]
	TESTQ AX, AX
	JE   chol_fwd_div
chol_fwd_k:
	VBROADCASTSD (R8)(BX*8), Y2
	VMULPD (R10), Y2, Y3
	VMULPD 32(R10), Y2, Y4
	VSUBPD Y3, Y0, Y0
	VSUBPD Y4, Y1, Y1
	ADDQ $64, R10
	INCQ BX
	CMPQ BX, AX
	JL   chol_fwd_k
chol_fwd_div:
	VBROADCASTSD (R8)(AX*8), Y2
	VDIVPD Y2, Y0, Y0
	VDIVPD Y2, Y1, Y1
	VMOVUPD Y0, (R9)
	VMOVUPD Y1, 32(R9)
	ADDQ R11, R8
	ADDQ $64, R9
	INCQ AX
	JMP  chol_fwd_row

	// Backward: Lᵀ·x = y, i descending; x[i] -= Lᵀ[i,k]·x[k] for k > i.
chol_bwd:
	MOVQ CX, AX
	DECQ AX                 // i = n-1
	JL   chol_done
	MOVQ AX, R8
	IMULQ R11, R8
	ADDQ DX, R8             // &Lᵀ[i,0]
	MOVQ AX, R9
	SHLQ $6, R9
	ADDQ DI, R9             // &x[i*8]
chol_bwd_row:
	VMOVUPD (R9), Y0
	VMOVUPD 32(R9), Y1
	LEAQ 1(AX), BX          // k
	LEAQ 64(R9), R10        // &x[k*8]
	CMPQ BX, CX
	JGE  chol_bwd_div
chol_bwd_k:
	VBROADCASTSD (R8)(BX*8), Y2
	VMULPD (R10), Y2, Y3
	VMULPD 32(R10), Y2, Y4
	VSUBPD Y3, Y0, Y0
	VSUBPD Y4, Y1, Y1
	ADDQ $64, R10
	INCQ BX
	CMPQ BX, CX
	JL   chol_bwd_k
chol_bwd_div:
	VBROADCASTSD (R8)(AX*8), Y2
	VDIVPD Y2, Y0, Y0
	VDIVPD Y2, Y1, Y1
	VMOVUPD Y0, (R9)
	VMOVUPD Y1, 32(R9)
	SUBQ R11, R8
	SUBQ $64, R9
	DECQ AX
	JGE  chol_bwd_row
chol_done:
	VZEROUPPER
	RET
