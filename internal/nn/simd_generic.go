//go:build !amd64

package nn

// Every architecture but amd64, arm64 included, runs the portable
// reference tier only; the dispatch machinery still works
// (SetSIMD(SIMDGeneric) is valid) so cross-platform code can use the
// same knobs, and forcing avx2 fails with an error naming this arch.

var archTier *simdTier
