package core

import (
	"sort"

	"nerglobalizer/internal/classifier"
	"nerglobalizer/internal/ctrie"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/phrase"
	"nerglobalizer/internal/transformer"
	"nerglobalizer/internal/types"
)

// PretrainEncoder runs masked-LM pre-training over the unlabeled
// corpus for Config.PretrainEpochs epochs, returning per-epoch losses.
// This is the "BERTweet pre-training" stage of the reproduction. It is
// a no-op for non-Transformer encoders (the BiLSTM-era local models
// trained without masked-LM pre-training).
func (g *Globalizer) PretrainEncoder(corpus [][]string) []float64 {
	enc, ok := g.Tagger.Encoder().(*transformer.Encoder)
	if !ok {
		return nil
	}
	trainer := transformer.NewMLMTrainer(enc, g.cfg.PretrainLR)
	losses := make([]float64, 0, g.cfg.PretrainEpochs)
	for i := 0; i < g.cfg.PretrainEpochs; i++ {
		losses = append(losses, trainer.TrainEpoch(corpus))
	}
	return losses
}

// FineTuneLocal fine-tunes the Local NER tagger end-to-end on the
// annotated training sentences (the WNUT17 training split in the
// paper), returning per-epoch losses.
func (g *Globalizer) FineTuneLocal(train []*types.Sentence) []float64 {
	return g.Tagger.Train(train, g.cfg.FineTuneEpochs)
}

// GlobalTrainResult summarizes training of the Global NER components —
// the quantities reported in Table II.
type GlobalTrainResult struct {
	Objective   Objective
	Phrase      phrase.TrainResult
	Classifier  classifier.TrainResult
	NumTriplets int
	NumRecords  int
	// NumCandidates is the number of ground-truth candidate clusters
	// (entities + seed non-entities) used to train the classifier.
	NumCandidates int
}

// TrainGlobal trains the Phrase Embedder and Entity Classifier from an
// annotated training stream (D5 in the paper). Entities come from the
// gold annotations; seed non-entities are curated the way the paper
// does — by running the (already fine-tuned) local system over D5 and
// collecting confident false-positive spans, plus occurrences of
// entity surface forms in non-entity positions (the "us"-as-pronoun
// signal).
func (g *Globalizer) TrainGlobal(d5 []*types.Sentence) GlobalTrainResult {
	rng := nn.NewRNG(g.cfg.Seed + 3)
	sets := g.buildMentionSets(d5)

	var phraseRes phrase.TrainResult
	var numTriplets, numRecords int
	switch g.cfg.Objective {
	case ObjectiveSoftNN:
		records := phrase.MineSoftNNRecords(sets, rng)
		numRecords = len(records)
		phraseRes = g.Embedder.TrainSoftNN(records, g.cfg.PhraseTrain)
	default:
		triplets := phrase.MineTriplets(sets, g.cfg.MaxTriplets, rng)
		numTriplets = len(triplets)
		phraseRes = g.Embedder.TrainTriplets(triplets, g.cfg.PhraseTrain)
	}

	// Ground-truth clusters → classifier records, embedded with the
	// freshly trained Phrase Embedder. Each cluster is additionally
	// augmented with random sub-clusters: at inference time candidate
	// clusters are often much smaller than the ground-truth ones
	// (early in a stream, or for long-tail entities), so the pooled
	// classifier must be accurate on partial evidence too.
	var records []classifier.Record
	for _, s := range sets {
		if len(s.Pooled) == 0 {
			continue
		}
		embs := g.Embedder.EmbedBatch(s.Pooled)
		records = append(records, classifier.Record{Embs: embs, Label: s.Type})
		if len(embs) >= 2 {
			for k := 0; k < 2; k++ {
				sub := 1 + rng.Intn(len(embs))
				perm := rng.Perm(len(embs))[:sub]
				subset := make([][]float64, sub)
				for i, p := range perm {
					subset[i] = embs[p]
				}
				records = append(records, classifier.Record{Embs: subset, Label: s.Type})
			}
		}
	}
	// Synthetic junk clusters: large pools mixing mentions of many
	// different non-entity surfaces, labeled None. At stream scale a
	// stray local false positive on a frequent token can mine a huge,
	// incoherent mention pool; the classifier must learn that such
	// pools are non-entities rather than letting the attention pooling
	// hallucinate a type.
	var nonePool [][]float64
	for _, s := range sets {
		if s.Type == types.None {
			nonePool = append(nonePool, g.Embedder.EmbedBatch(s.Pooled)...)
		}
	}
	if len(nonePool) >= 8 && g.cfg.JunkClusters > 0 {
		for k := 0; k < g.cfg.JunkClusters; k++ {
			size := 8 + rng.Intn(23)
			embs := make([][]float64, size)
			for i := range embs {
				embs[i] = nonePool[rng.Intn(len(nonePool))]
			}
			records = append(records, classifier.Record{Embs: embs, Label: types.None})
		}
	}

	// Train every ensemble member on the same records with distinct
	// shuffling/initialization seeds; report the first member's
	// metrics (Table II convention).
	var clsRes classifier.TrainResult
	for i, c := range g.Ensemble {
		tc := g.cfg.ClassifierTrain
		tc.Seed += int64(i) * 977
		res := c.Train(records, tc)
		if i == 0 {
			clsRes = res
		}
	}

	return GlobalTrainResult{
		Objective:     g.cfg.Objective,
		Phrase:        phraseRes,
		Classifier:    clsRes,
		NumTriplets:   numTriplets,
		NumRecords:    numRecords,
		NumCandidates: len(records),
	}
}

// buildMentionSets converts the annotated training stream into
// per-candidate mention sets with pooled local embeddings: one set per
// (surface form, type) for gold entities, plus non-entity sets mined
// from the local system's behaviour on the same stream.
func (g *Globalizer) buildMentionSets(d5 []*types.Sentence) []phrase.MentionSet {
	type key struct {
		surface string
		typ     types.EntityType
	}
	pooledByCand := make(map[key][][]float64)
	order := make([]key, 0)
	add := func(k key, emb []float64) {
		if _, ok := pooledByCand[k]; !ok {
			order = append(order, k)
		}
		pooledByCand[k] = append(pooledByCand[k], emb)
	}

	// One encoder pass over the whole stream yields both the tags and
	// the token embeddings. An empty sentence has no embeddings; give it
	// a 0-row matrix so the span guards below skip it.
	tagged := g.TagBatch(d5)
	embCache := make([]*nn.Matrix, len(d5))
	for i, res := range tagged {
		embCache[i] = res.Embeddings
		if embCache[i] == nil {
			embCache[i] = nn.NewMatrix(0, g.Tagger.Dim())
		}
	}

	goldTrie := ctrie.New()
	for i, s := range d5 {
		emb := embCache[i]
		for _, e := range s.Gold {
			if e.End > emb.Rows || e.Type == types.None {
				continue
			}
			surface := s.SurfaceAt(e.Span)
			add(key{surface, e.Type}, phrase.Pool(emb, e.Span))
			goldTrie.Insert(s.Tokens[e.Start:e.End])
		}
	}

	// Seed non-entities, two sources mirroring the paper's EMD-based
	// curation:
	// (a) occurrences of gold entity surface forms outside any gold
	//     span (ambiguous surfaces used as ordinary words), and
	// (b) spans the local tagger extracts that match no gold entity
	//     (its confident false positives).
	for i, s := range d5 {
		emb := embCache[i]
		goldAt := make([]bool, len(s.Tokens))
		for _, e := range s.Gold {
			for j := e.Start; j < e.End && j < len(goldAt); j++ {
				goldAt[j] = true
			}
		}
		overlapsGold := func(sp types.Span) bool {
			for j := sp.Start; j < sp.End && j < len(goldAt); j++ {
				if goldAt[j] {
					return true
				}
			}
			return false
		}
		for _, m := range goldTrie.Scan(s.Tokens) {
			sp := types.Span{Start: m.Start, End: m.End}
			if overlapsGold(sp) || sp.End > emb.Rows {
				continue
			}
			add(key{m.Surface, types.None}, phrase.Pool(emb, sp))
		}
		res := tagged[i]
		for _, e := range res.Entities {
			if overlapsGold(e.Span) || e.End > emb.Rows {
				continue
			}
			add(key{s.SurfaceAt(e.Span), types.None}, phrase.Pool(emb, e.Span))
		}
	}

	// (c) frequent ordinary tokens: the most common tokens never seen
	// inside a gold span ("the", "is", topical hashtags) become
	// explicit non-entity sets, so the classifier learns to reject
	// the big junk clusters a stray local false positive can mine.
	tokenCount := make(map[string]int)
	inGold := make(map[string]bool)
	for _, s := range d5 {
		goldAt := make([]bool, len(s.Tokens))
		for _, e := range s.Gold {
			for j := e.Start; j < e.End && j < len(goldAt); j++ {
				goldAt[j] = true
			}
		}
		for j, tok := range s.Tokens {
			low := types.CanonicalSurface([]string{tok})
			if goldAt[j] {
				inGold[low] = true
			} else {
				tokenCount[low]++
			}
		}
	}
	type freqTok struct {
		tok string
		n   int
	}
	var frequent []freqTok
	for tok, n := range tokenCount {
		if n >= 25 && !inGold[tok] {
			frequent = append(frequent, freqTok{tok, n})
		}
	}
	if g.cfg.NoneMiningTokens <= 0 {
		frequent = nil
	}
	sort.Slice(frequent, func(i, j int) bool {
		if frequent[i].n != frequent[j].n {
			return frequent[i].n > frequent[j].n
		}
		return frequent[i].tok < frequent[j].tok
	})
	if g.cfg.NoneMiningTokens > 0 && len(frequent) > g.cfg.NoneMiningTokens {
		frequent = frequent[:g.cfg.NoneMiningTokens]
	}
	for _, ft := range frequent {
		k := key{ft.tok, types.None}
		if _, exists := pooledByCand[k]; exists {
			continue
		}
		// Sample up to 25 occurrences of the token across the stream.
		for i, s := range d5 {
			if len(pooledByCand[k]) >= 12 {
				break
			}
			emb := embCache[i]
			for j, tok := range s.Tokens {
				if j >= emb.Rows || types.CanonicalSurface([]string{tok}) != ft.tok {
					continue
				}
				add(k, phrase.Pool(emb, types.Span{Start: j, End: j + 1}))
				break // at most one sample per sentence
			}
		}
	}

	sets := make([]phrase.MentionSet, 0, len(order))
	for _, k := range order {
		sets = append(sets, phrase.MentionSet{
			Surface: k.surface,
			Type:    k.typ,
			Pooled:  pooledByCand[k],
		})
	}
	return sets
}
