package transformer

import (
	"math"

	"nerglobalizer/internal/nn"
)

// Cache-free inference. Forward caches activations on the encoder
// structs for backprop (attention stores q/k/v/attn/concat, the
// embedding its hash indices), so one encoder cannot run Forward from
// several goroutines. InferBatch is the encoder's one inference path:
// it writes no encoder state, packs many sentences into one flat token
// matrix and runs every position-independent layer (dense projections,
// feed-forward, layer norm) as a single pass over all packed tokens —
// one large GEMM per projection instead of one small GEMM per
// sentence. Only attention depends on sentence boundaries; it iterates
// segment offsets over the packed q/k/v, reusing one per-worker head
// workspace instead of re-slicing allocations.
//
// All intermediates live in an InferScratch arena recycled through the
// encoder's sync.Pool, so steady-state inference performs no heap
// allocations beyond the returned token states (one backing array per
// call, shared by the per-sentence views).
//
// The identity contract: at F64, for every sentence in the batch,
// InferBatch returns exactly the bytes Forward(tokens, false) would, at
// every batch composition and worker count. This holds by construction
// — the nn kernels compute each output element with the same
// floating-point operations in the same order whether a matrix holds
// one sentence or fifty (dense rows are independent dot products with
// ascending-k accumulation; layer norm and GELU are row- and
// element-local), and the fused kernels in nn/fused.go are pinned
// bit-identical to the layer forwards they replace.

// InferScratch is a per-worker arena for packed batched inference. It
// grows to the largest packed batch seen and is reused across calls;
// the zero value is ready to use.
type InferScratch struct {
	// Packed N×Dim token-state buffers: x is the layer input (and
	// final output), q/k/v/concat/mid rotate through the sublayers.
	x, q, k, v, concat, mid *nn.Matrix
	// ff is the packed N×FFDim feed-forward intermediate.
	ff *nn.Matrix
	// Per-segment, per-head attention workspaces (≤ maxT rows).
	qh, kh, vh, oh *nn.Matrix
	scores, attnW  *nn.Matrix
	// offs[i] is the packed row offset of sentence i; offs[len] is the
	// total packed token count.
	offs []int

	// Float32 siblings of the planes above, used by the reduced
	// precision tiers (infer_batch32.go); nil until the first reduced
	// call through this arena.
	x32, q32, k32, v32, concat32, mid32 *nn.Matrix32
	ff32                                *nn.Matrix32
	qh32, kh32, vh32, oh32              *nn.Matrix32
	scores32, attnW32                   *nn.Matrix32
	// qs holds the int8 tier's quantized activation plane and per-row
	// scales.
	qs nn.I8Scratch
}

// InferBatch encodes a batch of token sequences at precision tier p,
// returning one T×Dim matrix of contextual token embeddings per
// sentence. At F64 every matrix is byte-identical to
// Forward(tokens, false) on that sentence, computed in large fused
// kernels over a recycled scratch arena; the reduced tiers
// (infer_batch32.go) trade that bit-identity for bandwidth under the
// error bounds pinned in nn. Sequences longer than MaxLen are
// truncated; empty sequences yield 0×Dim matrices. InferBatch writes
// no encoder state, so concurrent calls on one Encoder are safe,
// including at different tiers; Forward/Backward training must not run
// at the same time.
func (e *Encoder) InferBatch(batch [][]string, p nn.Precision) []*nn.Matrix {
	s, _ := e.scratch.Get().(*InferScratch)
	if s == nil {
		s = new(InferScratch)
	}
	var out []*nn.Matrix
	if p == nn.F64 {
		out = e.inferPacked(batch, s)
	} else {
		out = e.inferPacked32(batch, s, p)
	}
	e.scratch.Put(s)
	return out
}

// packEmbed fills s.offs with the packed row offsets of batch and
// embeds every (truncated) sentence at its offset in s.x; positions
// restart at every segment boundary, exactly as Forward numbers them.
// Returns the packed token count and the longest segment.
// Embedding always runs in f64 — it is a sparse gather/accumulate, not
// a GEMM, so the reduced tiers share it and downconvert the result.
func (e *Encoder) packEmbed(batch [][]string, s *InferScratch) (n, maxT int) {
	s.offs = s.offs[:0]
	for _, toks := range batch {
		s.offs = append(s.offs, n)
		T := len(e.Truncate(toks))
		if T > maxT {
			maxT = T
		}
		n += T
	}
	s.offs = append(s.offs, n)
	s.x = nn.ReuseMatrix(s.x, n, e.cfg.Dim)
	for i, toks := range batch {
		off := s.offs[i]
		for p, tok := range e.Truncate(toks) {
			e.embed.inferRowInto(s.x.Row(off+p), tok, p)
		}
	}
	return n, maxT
}

// inferPacked runs the packed forward pass inside the given arena.
func (e *Encoder) inferPacked(batch [][]string, s *InferScratch) []*nn.Matrix {
	dim := e.cfg.Dim
	n, maxT := e.packEmbed(batch, s)

	// Pre-size every buffer to this batch so the per-segment reshapes
	// below never allocate mid-layer.
	dh := dim / e.cfg.Heads
	s.q = nn.ReuseMatrix(s.q, n, dim)
	s.k = nn.ReuseMatrix(s.k, n, dim)
	s.v = nn.ReuseMatrix(s.v, n, dim)
	s.concat = nn.ReuseMatrix(s.concat, n, dim)
	s.mid = nn.ReuseMatrix(s.mid, n, dim)
	s.ff = nn.ReuseMatrix(s.ff, n, e.cfg.FFDim)
	s.qh = nn.ReuseMatrix(s.qh, maxT, dh)
	s.kh = nn.ReuseMatrix(s.kh, maxT, dh)
	s.vh = nn.ReuseMatrix(s.vh, maxT, dh)
	s.oh = nn.ReuseMatrix(s.oh, maxT, dh)
	s.scores = nn.ReuseMatrix(s.scores, maxT, maxT)
	s.attnW = nn.ReuseMatrix(s.attnW, maxT, maxT)

	for _, l := range e.layers {
		l.inferPacked(e.cfg, s)
	}

	// One backing allocation for the whole batch; each sentence gets a
	// view of its packed rows. The views are plain value Matrices in
	// one array, so the result costs three allocations regardless of
	// batch size.
	data := make([]float64, n*dim)
	copy(data, s.x.Data)
	mats := make([]nn.Matrix, len(batch))
	outs := make([]*nn.Matrix, len(batch))
	for i := range batch {
		lo, hi := s.offs[i]*dim, s.offs[i+1]*dim
		mats[i] = nn.Matrix{Rows: s.offs[i+1] - s.offs[i], Cols: dim, Data: data[lo:hi:hi]}
		outs[i] = &mats[i]
	}
	return outs
}

// inferPacked runs one encoder block over the packed token states in
// s.x, leaving the block's output in s.x. Dense, feed-forward and
// layer-norm run over all packed rows at once; attention walks the
// segment offsets.
func (l *encoderLayer) inferPacked(cfg Config, s *InferScratch) {
	dim := cfg.Dim
	dh := dim / cfg.Heads
	invSqrt := 1 / math.Sqrt(float64(dh))

	a := l.attn
	a.wq.InferInto(s.q, s.x)
	a.wk.InferInto(s.k, s.x)
	a.wv.InferInto(s.v, s.x)
	s.concat.Zero()
	for seg := 0; seg+1 < len(s.offs); seg++ {
		off, T := s.offs[seg], s.offs[seg+1]-s.offs[seg]
		if T == 0 {
			continue
		}
		s.qh = nn.ReuseMatrix(s.qh, T, dh)
		s.kh = nn.ReuseMatrix(s.kh, T, dh)
		s.vh = nn.ReuseMatrix(s.vh, T, dh)
		s.oh = nn.ReuseMatrix(s.oh, T, dh)
		s.scores = nn.ReuseMatrix(s.scores, T, T)
		s.attnW = nn.ReuseMatrix(s.attnW, T, T)
		for h := 0; h < cfg.Heads; h++ {
			segHeadSliceInto(s.qh, s.q, off, h*dh)
			segHeadSliceInto(s.kh, s.k, off, h*dh)
			segHeadSliceInto(s.vh, s.v, off, h*dh)
			nn.MatMulTInto(s.scores, s.qh, s.kh)
			nn.ScaledSoftmaxRowsInto(s.attnW, s.scores, invSqrt)
			nn.MatMulInto(s.oh, s.attnW, s.vh)
			segHeadStore(s.concat, s.oh, off, h*dh)
		}
	}
	// q/k/v are free once the heads are done; reuse q for the output
	// projection and v for the feed-forward output.
	a.wo.InferInto(s.q, s.concat)
	l.ln1.InferResidualInto(s.mid, s.q, s.x)
	l.ff1.InferInto(s.ff, s.mid)
	l.gelu.InferInto(s.ff, s.ff)
	l.ff2.InferInto(s.v, s.ff)
	l.ln2.InferResidualInto(s.x, s.v, s.mid)
}

// segHeadSliceInto fills dst (T×dh) with rows [rowOff, rowOff+T) of m,
// columns [colOff, colOff+dh) — one head of one packed segment.
func segHeadSliceInto(dst, m *nn.Matrix, rowOff, colOff int) {
	dh := dst.Cols
	for i := 0; i < dst.Rows; i++ {
		copy(dst.Row(i), m.Row(rowOff + i)[colOff:colOff+dh])
	}
}

// segHeadStore adds src (T×dh) into rows [rowOff, rowOff+T) of dst,
// columns [colOff, colOff+dh).
func segHeadStore(dst, src *nn.Matrix, rowOff, colOff int) {
	dh := src.Cols
	for i := 0; i < src.Rows; i++ {
		drow := dst.Row(rowOff + i)[colOff : colOff+dh]
		for j, v := range src.Row(i) {
			drow[j] += v
		}
	}
}
