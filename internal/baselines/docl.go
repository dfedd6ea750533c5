package baselines

import (
	"strings"

	"nerglobalizer/internal/localner"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/types"
)

// DocL is the DocL-NER baseline (Gui et al., IJCAI 2020): a base
// tagger produces first-pass labels, then a label-refinement pass
// enforces document-level label consistency — each token's final label
// mixes its local prediction with the distribution of labels the same
// token string received across the whole document.
type DocL struct {
	tagger *localner.Tagger
	// Alpha is the weight of the local prediction in the refinement
	// mix; (1−Alpha) weights the document-level label distribution.
	Alpha float64
}

// NewDocL builds the baseline over a fine-tuned tagger.
func NewDocL(tagger *localner.Tagger) *DocL {
	return &DocL{tagger: tagger, Alpha: 0.55}
}

// Name implements System.
func (d *DocL) Name() string { return "DocL-NER" }

// Train is a no-op: DocL refines an already fine-tuned base tagger;
// the refinement itself has no trainable parameters in this
// reproduction.
func (d *DocL) Train(train []*types.Sentence) {}

// Predict runs the two-pass refinement over the stream-as-document.
func (d *DocL) Predict(sents []*types.Sentence) map[types.SentenceKey][]types.Entity {
	// Pass 1: base predictions and document-level label counts per
	// token string.
	type firstPass struct {
		tokens []string
		labels []types.BIOLabel
	}
	passes := make([]firstPass, len(sents))
	counts := make(map[string]*[types.NumBIOLabels]int)
	for i, s := range sents {
		res := d.tagger.Run(s.Tokens, nn.F64)
		passes[i] = firstPass{tokens: res.Tokens, labels: res.Labels}
		for t, tok := range res.Tokens {
			k := strings.ToLower(tok)
			c, ok := counts[k]
			if !ok {
				c = &[types.NumBIOLabels]int{}
				counts[k] = c
			}
			c[res.Labels[t]]++
		}
	}
	// Pass 2: refine each token label towards document consistency.
	out := make(map[types.SentenceKey][]types.Entity, len(sents))
	for i, s := range sents {
		p := passes[i]
		refined := make([]types.BIOLabel, len(p.labels))
		for t, tok := range p.tokens {
			refined[t] = d.refine(p.labels[t], counts[strings.ToLower(tok)])
		}
		out[s.Key()] = labelsToEntities(refined)
	}
	return out
}

// refine mixes the local one-hot prediction with the document label
// distribution and returns the argmax.
func (d *DocL) refine(local types.BIOLabel, counts *[types.NumBIOLabels]int) types.BIOLabel {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return local
	}
	best, bestScore := local, -1.0
	for l := 0; l < types.NumBIOLabels; l++ {
		score := (1 - d.Alpha) * float64(counts[l]) / float64(total)
		if types.BIOLabel(l) == local {
			score += d.Alpha
		}
		if score > bestScore {
			best, bestScore = types.BIOLabel(l), score
		}
	}
	return best
}
