package transformer

import (
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/tokenizer"
)

// Inference-time token embedding. embedding.forward caches its hash
// indices for backprop, so the packed inference path (infer_batch.go)
// embeds through inferRowInto instead, which writes no encoder state
// and produces the identical row.

// FNV-1a 32-bit constants, matching hash/fnv so the allocation-free
// fast path below lands in the same buckets as hashToken.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// isASCII reports whether the token is pure ASCII — the case where
// bytes coincide with runes and lower-casing is a byte map, so trigram
// buckets can be computed in-place without building strings.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// lowerASCII matches strings.ToLower byte-for-byte on ASCII input.
func lowerASCII(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + 'a' - 'A'
	}
	return b
}

// paddedByte indexes the virtual padded token "^"+tok+"$" without
// materializing it. Valid for j in [0, len(tok)+2).
func paddedByte(tok string, j int) byte {
	switch {
	case j == 0:
		return '^'
	case j == len(tok)+1:
		return '$'
	default:
		return tok[j-1]
	}
}

// inferRowInto overwrites row with the inference-time embedding of tok
// at position pos (within its sentence). The trigram average is
// guarded against tokens that produce no trigrams — the unguarded
// 1/len(grams) would poison the row with ±Inf.
//
// Lower-case ASCII tokens (the overwhelming majority after social-media
// normalization) take an allocation-free path that feeds token and
// trigram bytes straight into FNV-1a, producing exactly the buckets
// hashToken(charTrigrams(tok)) would; everything else falls back to
// the string-materializing path.
func (e *embedding) inferRowInto(row []float64, tok string, pos int) {
	if isASCII(tok) {
		h := uint32(fnvOffset32)
		for i := 0; i < len(tok); i++ {
			h ^= uint32(lowerASCII(tok[i]))
			h *= fnvPrime32
		}
		copy(row, e.tok.W.Row(int(h%uint32(e.cfg.VocabBuckets))))
		// Trigrams of the padded token: len(tok)+2 padded bytes give
		// len(tok) windows (one degenerate "^$" gram for the empty
		// token), mirroring charTrigrams exactly.
		grams := len(tok)
		padLen := len(tok) + 2
		if grams == 0 {
			grams = 1
			padLen = 2 // hash the whole "^$" as the single gram
		}
		inv := 1 / float64(grams)
		for i := 0; i+2 < padLen || (i == 0 && padLen == 2); i++ {
			g := uint32(fnvOffset32)
			for j := i; j < i+3 && j < padLen; j++ {
				g ^= uint32(lowerASCII(paddedByte(tok, j)))
				g *= fnvPrime32
			}
			nn.AddScaled(row, e.char.W.Row(int(g%uint32(e.cfg.CharBuckets))), inv)
		}
	} else {
		copy(row, e.tok.W.Row(hashToken(tok, e.cfg.VocabBuckets)))
		grams := charTrigrams(tok)
		if len(grams) > 0 {
			inv := 1 / float64(len(grams))
			for _, gram := range grams {
				nn.AddScaled(row, e.char.W.Row(hashToken(gram, e.cfg.CharBuckets)), inv)
			}
		}
	}
	// Orthographic features, inlined in orthoFeatures' append order so
	// the floating-point additions happen in the identical sequence
	// without building a feature slice.
	if tokenizer.IsAllCaps(tok) {
		nn.AddScaled(row, e.ortho.W.Row(featAllCaps), 1)
	} else if tokenizer.IsCapitalized(tok) {
		nn.AddScaled(row, e.ortho.W.Row(featCap), 1)
	}
	if tokenizer.HasDigit(tok) {
		nn.AddScaled(row, e.ortho.W.Row(featDigit), 1)
	}
	switch {
	case tokenizer.IsHashtag(tok):
		nn.AddScaled(row, e.ortho.W.Row(featHashtag), 1)
	case tokenizer.IsUserMention(tok):
		nn.AddScaled(row, e.ortho.W.Row(featUser), 1)
	case tokenizer.IsURLToken(tok):
		nn.AddScaled(row, e.ortho.W.Row(featURL), 1)
	}
	nn.AddScaled(row, e.pos.Row(pos), 1)
}
