package nn

import "math"

// Dot returns the inner product of a and b. The slices must have equal
// length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("nn: dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// AddScaled adds s*src into dst element-wise.
func AddScaled(dst, src []float64, s float64) {
	if len(dst) != len(src) {
		panic("nn: addscaled length mismatch")
	}
	for i, v := range src {
		dst[i] += s * v
	}
}

// Scale multiplies every element of v by s in place.
func Scale(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// L2Norm returns the Euclidean norm of v.
func L2Norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Normalize returns a unit-norm copy of v. If v is (numerically) the
// zero vector it returns a zero vector of the same length, avoiding NaNs.
func Normalize(v []float64) []float64 {
	out := make([]float64, len(v))
	n := L2Norm(v)
	if n < 1e-12 {
		return out
	}
	for i, x := range v {
		out[i] = x / n
	}
	return out
}

// CosineSimilarity returns the cosine of the angle between a and b,
// in [-1, 1]. Zero vectors yield similarity 0.
func CosineSimilarity(a, b []float64) float64 {
	return CosineSimilarityNorms(a, b, L2Norm(a), L2Norm(b))
}

// CosineSimilarityNorms is CosineSimilarity given na = L2Norm(a) and
// nb = L2Norm(b), for a caller that compares each vector with many
// others and computes its norm once. It is the only copy of the
// arithmetic, so the two agree bit for bit.
func CosineSimilarityNorms(a, b []float64, na, nb float64) float64 {
	if na < 1e-12 || nb < 1e-12 {
		return 0
	}
	s := Dot(a, b) / (na * nb)
	if s > 1 {
		s = 1
	} else if s < -1 {
		s = -1
	}
	return s
}

// CosineDistance returns 1 − CosineSimilarity(a, b), in [0, 2]. This is
// the distance the paper uses both for the triplet-loss margin and for
// agglomerative clustering of mention embeddings.
func CosineDistance(a, b []float64) float64 {
	return 1 - CosineSimilarity(a, b)
}

// EuclideanDistance returns the L2 distance between a and b.
func EuclideanDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("nn: euclidean length mismatch")
	}
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Mean returns the element-wise mean of the given vectors. All vectors
// must share one length; an empty input returns nil.
func Mean(vecs [][]float64) []float64 {
	if len(vecs) == 0 {
		return nil
	}
	out := make([]float64, len(vecs[0]))
	for _, v := range vecs {
		AddScaled(out, v, 1)
	}
	Scale(out, 1/float64(len(vecs)))
	return out
}

// Softmax writes the softmax of logits into a new slice. It is
// numerically stabilized by subtracting the maximum logit.
func Softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	SoftmaxInto(out, logits)
	return out
}

// SoftmaxInto writes the softmax of logits into dst (len(dst) ≥
// len(logits); dst may alias logits): the max logit, math.Exp(v − max)
// per element (the dispatched exp pass at scale 1, where v·1 − max is
// v − max exactly), their sum in ascending order, one division each.
func SoftmaxInto(dst, logits []float64) {
	if len(logits) > 0 {
		softmaxRows64(kernels(), dst[:len(logits)], logits, len(logits), 1)
	}
}

// ArgMax returns the index of the largest element of v, or -1 for an
// empty slice. Ties resolve to the lowest index.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i, x := range v[1:] {
		if x > v[best] {
			best = i + 1
		}
	}
	return best
}
