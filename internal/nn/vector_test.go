package nn

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestL2NormAndNormalize(t *testing.T) {
	v := []float64{3, 4}
	if math.Abs(L2Norm(v)-5) > 1e-12 {
		t.Fatalf("L2Norm = %v", L2Norm(v))
	}
	u := Normalize(v)
	if math.Abs(L2Norm(u)-1) > 1e-12 {
		t.Fatalf("normalized norm = %v", L2Norm(u))
	}
	z := Normalize([]float64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("Normalize(zero) = %v, want zero vector", z)
	}
}

func TestCosineSimilarityKnown(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{1, 0}, []float64{1, 0}, 1},
		{[]float64{1, 0}, []float64{0, 1}, 0},
		{[]float64{1, 0}, []float64{-1, 0}, -1},
		{[]float64{0, 0}, []float64{1, 0}, 0},
	}
	for _, c := range cases {
		if got := CosineSimilarity(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("CosineSimilarity(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// sanitizeVec maps arbitrary quick-generated floats into the bounded
// range embeddings actually occupy, avoiding overflow in x².
func sanitizeVec(a [4]float64) []float64 {
	out := make([]float64, len(a))
	for i, v := range a {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[i] = math.Mod(v, 10)
	}
	return out
}

func TestCosineDistanceRangeProperty(t *testing.T) {
	f := func(a, b [4]float64) bool {
		d := CosineDistance(sanitizeVec(a), sanitizeVec(b))
		return d >= 0 && d <= 2 && !math.IsNaN(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCosineDistanceScaleInvarianceProperty(t *testing.T) {
	f := func(a, b [4]float64, scale uint8) bool {
		s := float64(scale%50) + 1
		av, bv := sanitizeVec(a), sanitizeVec(b)
		scaled := make([]float64, 4)
		copy(scaled, av)
		Scale(scaled, s)
		return math.Abs(CosineDistance(av, bv)-CosineDistance(scaled, bv)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCosineSimilarityNormsMatchesCosineDistance pins that supplying
// the norms changes no bit: 1 − CosineSimilarityNorms with L2Norm of
// each side equals CosineDistance on random vectors, on duplicates, on
// the zero vector and on a vector whose norm (1e-13) is below the
// zero-vector cut-off.
func TestCosineSimilarityNormsMatchesCosineDistance(t *testing.T) {
	rng := NewRNG(5)
	vecs := [][]float64{make([]float64, 6), {1e-13, 0, 0, 0, 0, 0}}
	for i := 0; i < 30; i++ {
		v := make([]float64, 6)
		for k := range v {
			v[k] = rng.NormFloat64()
		}
		vecs = append(vecs, v, append([]float64(nil), v...))
	}
	for _, a := range vecs {
		for _, b := range vecs {
			got := 1 - CosineSimilarityNorms(a, b, L2Norm(a), L2Norm(b))
			if want := CosineDistance(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v vs %v: %v with norms, CosineDistance %v", a, b, got, want)
			}
		}
	}
}

func TestEuclideanDistance(t *testing.T) {
	if got := EuclideanDistance([]float64{0, 0}, []float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("EuclideanDistance = %v", got)
	}
}

func TestMean(t *testing.T) {
	m := Mean([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m[0] != 3 || m[1] != 4 {
		t.Fatalf("Mean = %v", m)
	}
	if Mean(nil) != nil {
		t.Fatal("Mean(nil) should be nil")
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(a [5]float64) bool {
		// Clamp to avoid Inf inputs from quick.
		in := make([]float64, 5)
		for i, v := range a {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			in[i] = math.Mod(v, 50)
		}
		p := Softmax(in)
		sum := 0.0
		for _, v := range p {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxStableWithLargeLogits(t *testing.T) {
	p := Softmax([]float64{1000, 1000, 1000})
	for _, v := range p {
		if math.Abs(v-1.0/3.0) > 1e-9 {
			t.Fatalf("Softmax large-logit = %v", p)
		}
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{1, 5, 3}) != 1 {
		t.Fatal("ArgMax basic failed")
	}
	if ArgMax([]float64{2, 2}) != 0 {
		t.Fatal("ArgMax tie should pick lowest index")
	}
	if ArgMax(nil) != -1 {
		t.Fatal("ArgMax(nil) should be -1")
	}
}

func TestAddScaledAndScale(t *testing.T) {
	dst := []float64{1, 1}
	AddScaled(dst, []float64{2, 3}, 2)
	if dst[0] != 5 || dst[1] != 7 {
		t.Fatalf("AddScaled = %v", dst)
	}
}
