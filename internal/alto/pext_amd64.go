//go:build amd64 && !purego

package alto

import "repro/internal/cpu"

// nativeBitExtract gates the BMI2 kernels; SHLX rides on the same feature
// bit as PDEP/PEXT, so one flag covers all three instructions.
var nativeBitExtract = cpu.HasBMI2

// pextAll extracts every mode's index from the (lo, hi) key into cur
// (len = order), returning a change mask relative to cur's previous
// contents: bit min(m, 31) is set for every mode whose value changed —
// the same folding the byte-table Step reports. masks is the Encoding's
// 3-words-per-mode pext mask table. Implemented in pext_amd64.s.
//
//go:noescape
func pextAll(lo, hi uint64, masks []uint64, cur []uint64) uint32

// nativeWalk3 gates the fused order-3 walker, which needs the dense
// kernels' AVX2+FMA on top of BMI2.
var nativeWalk3 = cpu.HasBMI2 && cpu.HasAVX2 && cpu.HasFMA

// walk3AVX2 walks w.keys from w.x with the fused order-3 walker (see
// runRange3Native) and reports walkDone or walkOutOfRange.
// Implemented in pext_amd64.s.
//
//go:noescape
func walk3AVX2(w *walker3) int

// pdepKey linearizes one coordinate tuple (cur, len = order) into a
// (lo, hi) key — the pdep mirror of pextAll. Implemented in pext_amd64.s.
//
//go:noescape
func pdepKey(cur []uint64, masks []uint64) (lo, hi uint64)
