//go:build !amd64 || purego

package alto

// No BMI2 on this build: the Encoding methods never take the native
// branch (native is always false), so these stubs are unreachable. They
// exist to keep the portable build compiling and to fail loudly if the
// dispatch invariant is ever broken.
var (
	nativeBitExtract = false
	nativeWalk3      = false
)

func pextAll(lo, hi uint64, masks []uint64, cur []uint64) uint32 {
	panic("alto: pextAll called without BMI2")
}

func walk3AVX2(w *walker3) int {
	panic("alto: walk3AVX2 called without BMI2 and AVX2")
}

func pdepKey(cur []uint64, masks []uint64) (lo, hi uint64) {
	panic("alto: pdepKey called without BMI2")
}
