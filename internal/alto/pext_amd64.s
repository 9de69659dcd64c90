//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// BMI2 bit-extraction kernels. masks is laid out 3 uint64s per mode:
// low-word pext mask, high-word pext mask, and the left-shift aligning
// the high-word bits above the low-word ones. Narrow encodings have a
// zero high mask, and pext(x, 0) == 0, so one code path serves both key
// widths.

// func pextAll(lo, hi uint64, masks []uint64, cur []uint64) uint32
TEXT ·pextAll(SB), NOSPLIT, $0-68
	MOVQ lo+0(FP), R8
	MOVQ hi+8(FP), R9
	MOVQ masks_base+16(FP), SI
	MOVQ cur_base+40(FP), DI
	MOVQ cur_len+48(FP), CX
	XORQ AX, AX  // mode index m
	XORQ R15, R15 // change mask
pa_loop:
	CMPQ AX, CX
	JGE  pa_done
	MOVQ (SI), R10      // low mask
	MOVQ 8(SI), R11     // high mask
	MOVQ 16(SI), R12    // high shift
	PEXTQ R10, R8, R13
	PEXTQ R11, R9, R14
	SHLXQ R12, R14, R14
	ORQ  R14, R13       // R13 = mode m's index
	MOVQ (DI)(AX*8), BX
	XORQ R13, BX        // BX = old ^ new
	MOVQ R13, (DI)(AX*8)
	TESTQ BX, BX
	JZ   pa_next
	MOVQ AX, DX         // changed: set bit min(m, 31)
	CMPQ DX, $31
	JLE  pa_setbit
	MOVQ $31, DX
pa_setbit:
	MOVQ $1, R14
	SHLXQ DX, R14, R14
	ORQ  R14, R15
pa_next:
	ADDQ $24, SI
	INCQ AX
	JMP  pa_loop
pa_done:
	MOVL R15, ret+64(FP)
	RET

// CALC_ROWS points R14, AX and DX at the flat row curT - base and the
// factor rows curA and curB of the current run. The target address is
// curT·rank·8 + flatBase, where flatBase = flat - base·rank·8 is set on
// entry, so the interval base costs nothing per run.
#define CALC_ROWS \
	MOVQ  R10, R14 \
	IMULQ CX, R14 \
	SHLQ  $3, R14 \
	ADDQ  walker3_flatBase(DI), R14 \
	MOVQ  R11, AX \
	IMULQ CX, AX \
	SHLQ  $3, AX \
	ADDQ  walker3_a(DI), AX \
	MOVQ  R12, DX \
	IMULQ CX, DX \
	SHLQ  $3, DX \
	ADDQ  walker3_b(DI), DX

// func walk3AVX2(w *walker3) int
//
// The fused order-3 walker. Register map:
//   DI  w               SI  keys base        R9  vals base
//   R8  x (next key)    CX  rank             R10/R11/R12  curT/curA/curB
//   X1  pending value   Y0  pending value broadcast over a rank loop
// The accumulator flag stays in w.accUsed: it is read once per run.
// AX, BX, DX, R13, R14, R15 and Y1-Y3 are scratch. Each rank loop runs
// four lanes per step and a scalar tail. Every lane rounds a·b before
// scaling or FMA-accumulating it, with the operand order of
// vecMulAxpyAVX2 and vecAddAVX2, so results match the byte-table walker
// bit for bit. A target index is in bounds iff curT - base < rowsT as an
// unsigned compare, which rejects indices below base and at or above
// base + rowsT at once.
TEXT ·walk3AVX2(SB), NOSPLIT, $0-16
	MOVQ w+0(FP), DI
	MOVQ walker3_keys(DI), SI
	MOVQ walker3_vals(DI), R9
	MOVQ walker3_rank(DI), CX
	MOVQ walker3_x(DI), R8
	MOVQ  walker3_base(DI), AX
	IMULQ CX, AX
	SHLQ  $3, AX
	MOVQ  walker3_flat(DI), BX
	SUBQ  AX, BX
	MOVQ  BX, walker3_flatBase(DI)

	// Key x (x < len(keys)) starts the first run.
	MOVQ  (SI)(R8*8), R15
	PEXTQ walker3_mT(DI), R15, R10
	MOVQ  R10, AX
	SUBQ  walker3_base(DI), AX
	CMPQ  AX, walker3_rowsT(DI)
	JAE   w3_oob
	PEXTQ walker3_mA(DI), R15, R11
	PEXTQ walker3_mB(DI), R15, R12
	CMPQ  R11, walker3_rowsA(DI)
	JAE   w3_oob
	CMPQ  R12, walker3_rowsB(DI)
	JAE   w3_oob

w3_pend:
	// The key at x was adopted: its value becomes the pending value.
	VMOVSD (R9)(R8*8), X1
	INCQ  R8

w3_next:
	CMPQ  R8, (walker3_keys+8)(DI)
	JAE   w3_end
	MOVQ  (SI)(R8*8), R15
	PEXTQ walker3_mT(DI), R15, R13
	CMPQ  R13, R10
	JNE   w3_row
	PEXTQ walker3_mA(DI), R15, R14
	PEXTQ walker3_mB(DI), R15, R15
	CMPQ  R14, R11
	JNE   w3_coord
	CMPQ  R15, R12
	JNE   w3_coord
	// Duplicate key: merge into the pending value.
	VADDSD (R9)(R8*8), X1, X1
	INCQ  R8
	JMP   w3_next

w3_coord:
	// Same row, new non-target coordinates: materialize the pending value
	// into acc under the old rows, then adopt the new ones.
	CMPQ  R14, walker3_rowsA(DI)
	JAE   w3_oob
	CMPQ  R15, walker3_rowsB(DI)
	JAE   w3_oob
	MOVQ  R11, AX
	IMULQ CX, AX
	SHLQ  $3, AX
	ADDQ  walker3_a(DI), AX
	MOVQ  R12, DX
	IMULQ CX, DX
	SHLQ  $3, DX
	ADDQ  walker3_b(DI), DX
	MOVQ  R14, R11
	MOVQ  R15, R12
	MOVQ  walker3_acc(DI), R14
	VBROADCASTSD X1, Y0
	MOVQ  CX, R15
	ANDQ  $-4, R15
	XORQ  R13, R13
	CMPB  walker3_accUsed(DI), $0
	JNE   w3_fma
	MOVB  $1, walker3_accUsed(DI)

	// acc = v·(a·b)
	TESTQ R15, R15
	JZ    w3_set1
w3_set4:
	VMOVUPD (AX)(R13*8), Y1
	VMULPD  (DX)(R13*8), Y1, Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD Y1, (R14)(R13*8)
	ADDQ  $4, R13
	CMPQ  R13, R15
	JB    w3_set4
w3_set1:
	CMPQ  R13, CX
	JAE   w3_pend
	VMOVSD (AX)(R13*8), X1
	VMULSD (DX)(R13*8), X1, X1
	VMULSD X0, X1, X1
	VMOVSD X1, (R14)(R13*8)
	INCQ  R13
	JMP   w3_set1

w3_row:
	// Key x starts a new row, so the run ending at x-1 is complete: point
	// AX/DX/R14 at its rows, adopt key x and flush the run into flat.
	MOVQ  R13, AX
	SUBQ  walker3_base(DI), AX
	CMPQ  AX, walker3_rowsT(DI)
	JAE   w3_oob
	CALC_ROWS
	MOVQ  R13, R10
	PEXTQ walker3_mA(DI), R15, R11
	PEXTQ walker3_mB(DI), R15, R12
	CMPQ  R11, walker3_rowsA(DI)
	JAE   w3_oob
	CMPQ  R12, walker3_rowsB(DI)
	JAE   w3_oob
	JMP   w3_flush

w3_end:
	// End of range: the last run is complete.
	CALC_ROWS

w3_flush:
	VBROADCASTSD X1, Y0
	MOVQ  CX, R15
	ANDQ  $-4, R15
	XORQ  R13, R13
	CMPB  walker3_accUsed(DI), $0
	JNE   w3_flushacc

	// target = fma(v, a·b, target); target is the flat row or acc. Both
	// callers continue at w3_pend, which ends the walk at the range end.
w3_fma:
	TESTQ R15, R15
	JZ    w3_fma1
w3_fma4:
	VMOVUPD (AX)(R13*8), Y1
	VMULPD  (DX)(R13*8), Y1, Y1
	VFMADD213PD (R14)(R13*8), Y0, Y1
	VMOVUPD Y1, (R14)(R13*8)
	ADDQ  $4, R13
	CMPQ  R13, R15
	JB    w3_fma4
w3_fma1:
	CMPQ  R13, CX
	JAE   w3_flushed
	VMOVSD (AX)(R13*8), X1
	VMULSD (DX)(R13*8), X1, X1
	VFMADD213SD (R14)(R13*8), X0, X1
	VMOVSD X1, (R14)(R13*8)
	INCQ  R13
	JMP   w3_fma1

	// target = fma(v, a·b, target + acc); acc = 0
w3_flushacc:
	MOVB  $0, walker3_accUsed(DI)
	MOVQ  walker3_acc(DI), BX
	VXORPD Y3, Y3, Y3
	TESTQ R15, R15
	JZ    w3_acc1
w3_acc4:
	VMOVUPD (R14)(R13*8), Y1
	VADDPD  (BX)(R13*8), Y1, Y1
	VMOVUPD (AX)(R13*8), Y2
	VMULPD  (DX)(R13*8), Y2, Y2
	VFMADD213PD Y1, Y0, Y2
	VMOVUPD Y2, (R14)(R13*8)
	VMOVUPD Y3, (BX)(R13*8)
	ADDQ  $4, R13
	CMPQ  R13, R15
	JB    w3_acc4
w3_acc1:
	CMPQ  R13, CX
	JAE   w3_flushed
	VMOVSD (R14)(R13*8), X1
	VADDSD (BX)(R13*8), X1, X1
	VMOVSD (AX)(R13*8), X2
	VMULSD (DX)(R13*8), X2, X2
	VFMADD213SD X1, X0, X2
	VMOVSD X2, (R14)(R13*8)
	VMOVSD X3, (BX)(R13*8)
	INCQ  R13
	JMP   w3_acc1

w3_flushed:
	CMPQ  R8, (walker3_keys+8)(DI)
	JB    w3_pend
	VZEROUPPER
	MOVQ  $0, ret+8(FP) // walkDone
	RET

w3_oob:
	MOVQ  R8, walker3_x(DI)
	VZEROUPPER
	MOVQ  $1, ret+8(FP) // walkOutOfRange
	RET

// func pdepKey(cur []uint64, masks []uint64) (lo, hi uint64)
TEXT ·pdepKey(SB), NOSPLIT, $0-64
	MOVQ cur_base+0(FP), DI
	MOVQ cur_len+8(FP), CX
	MOVQ masks_base+24(FP), SI
	XORQ R8, R8  // lo
	XORQ R9, R9  // hi
	XORQ AX, AX
pd_loop:
	CMPQ AX, CX
	JGE  pd_done
	MOVQ (DI)(AX*8), R13 // mode index value
	MOVQ (SI), R10       // low mask
	MOVQ 8(SI), R11      // high mask
	MOVQ 16(SI), R12     // high shift
	PDEPQ R10, R13, R14  // deposit low bits
	ORQ  R14, R8
	SHRXQ R12, R13, R14  // bits above the low-word run
	PDEPQ R11, R14, R14
	ORQ  R14, R9
	ADDQ $24, SI
	INCQ AX
	JMP  pd_loop
pd_done:
	MOVQ R8, lo+48(FP)
	MOVQ R9, hi+56(FP)
	RET
