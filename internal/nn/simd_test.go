package nn

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
)

// forEachSIMDLevel runs fn as a subtest once per kernel tier this
// machine supports, with the dispatch pinned to that tier, and
// restores the boot tier afterwards. Tests using it must not run in
// parallel — the dispatch is process-global.
func forEachSIMDLevel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	defer SetSIMDAuto()
	for _, l := range SupportedSIMDLevels() {
		t.Run(l.String(), func(t *testing.T) {
			if err := SetSIMD(l); err != nil {
				t.Fatal(err)
			}
			fn(t)
		})
	}
}

// sse2Bodies, set on amd64 (cpu_amd64_test.go), installs the five
// SSE2-encoded 4-lane bodies of the avx2-fma tier (i8Rows, i8Rows4,
// expRow, rowMax, vscale) and nothing else.
var sse2Bodies func(*kernelSet)

// forEachKernelSet is forEachSIMDLevel plus, on amd64, an "sse2"
// subtest that dispatches the reference set overlaid with only the
// SSE2-encoded bodies, reporting avx2-fma (the tier they belong to):
// they are checked apart from the 8-wide AVX2 ones, and on every amd64
// host, with AVX2 or without. The SSE2 and AVX2 bodies share no entry
// point, so each test holds both to the same contract as the whole
// tier.
func forEachKernelSet(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	forEachSIMDLevel(t, fn)
	if sse2Bodies == nil {
		return
	}
	defer SetSIMDAuto()
	t.Run("sse2", func(t *testing.T) {
		ks := refKernelSet()
		sse2Bodies(ks)
		ks.level = SIMDAVX2
		activeKernels.Store(ks)
		fn(t)
	})
}

func TestParseSIMDRoundTrip(t *testing.T) {
	for _, l := range []SIMDLevel{SIMDGeneric, SIMDAVX2} {
		got, err := ParseSIMD(l.String())
		if err != nil || got != l {
			t.Errorf("ParseSIMD(%q) = %v, %v; want %v", l.String(), got, err, l)
		}
	}
	if got, err := ParseSIMD("avx2"); err != nil || got != SIMDAVX2 {
		t.Errorf("ParseSIMD(avx2) = %v, %v; want avx2-fma", got, err)
	}
	for _, bad := range []string{"", "sse4", "avx512", "AVX2"} {
		if _, err := ParseSIMD(bad); err == nil {
			t.Errorf("ParseSIMD(%q) accepted; want error", bad)
		}
	}
}

// TestRetiredSIMDLevelsRefused pins that the removed tiers — amd64's
// sse2 and arm64's neon — are loud errors, never a silent remap:
// ParseSIMD rejects each name, its old gauge code is not a level, and
// a process booted with NER_SIMD=<name> exits non-zero naming the
// level and every level this host supports.
func TestRetiredSIMDLevelsRefused(t *testing.T) {
	for _, retired := range []struct {
		name string
		code SIMDLevel
	}{{"sse2", 1}, {"neon", 3}} {
		t.Run(retired.name, func(t *testing.T) {
			if _, err := ParseSIMD(retired.name); err == nil {
				t.Fatalf("ParseSIMD(%s) accepted; want error", retired.name)
			}
			if err := SetSIMD(retired.code); err == nil {
				SetSIMDAuto()
				t.Fatalf("SetSIMD(%d) accepted the retired %s code", retired.code, retired.name)
			}
			cmd := exec.Command(os.Args[0], "-test.run=^$")
			cmd.Env = append(os.Environ(), "NER_SIMD="+retired.name)
			out, err := cmd.CombinedOutput()
			if err == nil {
				t.Fatalf("NER_SIMD=%s booted; output:\n%s", retired.name, out)
			}
			want := []string{retired.name}
			for _, l := range SupportedSIMDLevels() {
				want = append(want, l.String())
			}
			for _, w := range want {
				if !strings.Contains(string(out), w) {
					t.Fatalf("NER_SIMD=%s error does not name %q:\n%s", retired.name, w, out)
				}
			}
		})
	}
}

func TestSIMDLevelSelection(t *testing.T) {
	levels := SupportedSIMDLevels()
	if len(levels) == 0 || levels[0] != SIMDGeneric {
		t.Fatalf("SupportedSIMDLevels() = %v; want generic first", levels)
	}
	best := BestSIMD()
	found := false
	for _, l := range levels {
		if l == best {
			found = true
		}
	}
	if !found {
		t.Fatalf("BestSIMD() = %v not in supported set %v", best, levels)
	}
	defer SetSIMDAuto()
	for _, l := range levels {
		if err := SetSIMD(l); err != nil {
			t.Fatalf("SetSIMD(%v): %v", l, err)
		}
		if got := ActiveSIMD(); got != l {
			t.Fatalf("ActiveSIMD() = %v after SetSIMD(%v)", got, l)
		}
	}
	SetSIMDAuto()
	if unknown := SIMDLevel(4); SetSIMD(unknown) == nil {
		t.Fatal("SetSIMD accepted an unknown level")
	}
}

// TestDotRows32MatchesRefAcrossLevels checks every dispatched f32 dot
// kernel against the portable reference on ragged, empty, and
// tail-only widths. The tiers accumulate in different widths (and the
// AVX2 tier contracts with FMA), so the comparison is the analytic
// dot-product condition bound, not bit equality.
func TestDotRows32MatchesRefAcrossLevels(t *testing.T) {
	forEachSIMDLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		for _, in := range []int{0, 1, 3, 4, 7, 8, 15, 16, 17, 31, 32, 33, 63, 100} {
			for _, outs := range []int{1, 2, 5} {
				a := make([]float32, in)
				rows := make([]float32, in*outs)
				for i := range a {
					a[i] = float32(rng.NormFloat64())
				}
				for i := range rows {
					rows[i] = float32(rng.NormFloat64())
				}
				got := make([]float32, outs)
				want := make([]float32, outs)
				dotRows32(got, a, rows)
				dotRows32Ref(want, a, rows)
				for j := range got {
					var sumabs float64
					for k := 0; k < in; k++ {
						sumabs += math.Abs(float64(a[k]) * float64(rows[j*in+k]))
					}
					tol := 1e-5*sumabs + 1e-6
					if diff := math.Abs(float64(got[j]) - float64(want[j])); diff > tol {
						t.Fatalf("in=%d out %d/%d: |%g − %g| = %g > %g", in, j, outs, got[j], want[j], diff, tol)
					}
				}
			}
		}
	})
}

// TestGEMMTilingBitIdentity pins the row-sharding contract: the packed
// GEMMs produce bit-identical output at every worker count and kernel
// tier — including shapes with fewer rows than workers and shard
// boundaries that cut the i8 kernel's four-row blocks.
func TestGEMMTilingBitIdentity(t *testing.T) {
	shapes := []struct{ rows, in, out int }{
		{3, 256, 256}, // rows < workers → one row per shard
		{6, 256, 96},  // ragged spans, 4-row blocks + tail
		{32, 64, 128}, // rows ≥ workers
	}
	defer SetMatMulWorkers(0)
	forEachKernelSet(t, func(t *testing.T) {
		rng := NewRNG(59)
		for _, sh := range shapes {
			d := NewDense("t", sh.in, sh.out, rng)
			rng.NormalInit(d.B.W, 0.5)
			x := down(randomMatrix(sh.rows, sh.in, int64(500+sh.rows)))

			SetMatMulWorkers(1)
			base32 := NewMatrix32(sh.rows, sh.out)
			d.InferInto32(base32, x)
			var qs I8Scratch
			baseI8 := NewMatrix32(sh.rows, sh.out)
			d.InferIntoI8(baseI8, x, &qs)

			for _, workers := range []int{2, 3, 8, 16} {
				SetMatMulWorkers(workers)
				got := NewMatrix32(sh.rows, sh.out)
				d.InferInto32(got, x)
				assertBits32(t, sh, workers, "f32", got, base32)
				d.InferIntoI8(got, x, &qs)
				assertBits32(t, sh, workers, "i8", got, baseI8)
			}
			SetMatMulWorkers(0)
		}
	})
}

func assertBits32(t *testing.T, sh struct{ rows, in, out int }, workers int, path string, got, want *Matrix32) {
	t.Helper()
	for i, v := range got.Data {
		if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%dx%d→%d %s workers=%d: element %d = %g, serial %g",
				sh.rows, sh.in, sh.out, path, workers, i, v, want.Data[i])
		}
	}
}

// TestKernelSwitchHammer drives concurrent inference while the
// dispatched tier flips continuously. The atomic kernelSet must keep
// every individual GEMM internally coherent (one tier); run under
// -race this also proves the switch path publishes safely.
func TestKernelSwitchHammer(t *testing.T) {
	rng := NewRNG(61)
	d := NewDense("h", 64, 48, rng)
	rng.NormalInit(d.B.W, 0.5)
	x := down(randomMatrix(8, 64, 67))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var qs I8Scratch
			dst := NewMatrix32(8, 48)
			for {
				select {
				case <-stop:
					return
				default:
				}
				d.InferInto32(dst, x)
				d.InferIntoI8(dst, x, &qs)
			}
		}()
	}
	levels := SupportedSIMDLevels()
	for i := 0; i < 300; i++ {
		if err := SetSIMD(levels[i%len(levels)]); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	SetSIMDAuto()
}
