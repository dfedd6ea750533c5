//go:build !amd64 && !arm64

package nn

// Architectures without assembly kernels run the portable reference
// tier only; the dispatch machinery still works (SetSIMD(SIMDGeneric)
// is valid) so cross-platform code can use the same knobs, and
// forcing avx2/neon fails with an error naming this arch.

var archTier *simdTier
