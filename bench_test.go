// Package repro_bench holds the benchmark harness that regenerates
// every table and figure of the paper's evaluation section
// (EXPERIMENTS.md records the full-scale numbers; these testing.B
// targets run the same code paths at the small scale so they complete
// in CI time).
//
// One benchmark per experiment:
//
//	BenchmarkTable1DatasetGen           Table I   dataset generation
//	BenchmarkTable2PhraseEmbedderTraining Table II  objective comparison
//	BenchmarkTable3LocalBaselines       Table III vs Local NER systems
//	BenchmarkTable4LocalVsGlobal        Table IV  ablation + timing
//	BenchmarkTable5GlobalBaselines      Table V   vs Global NER systems
//	BenchmarkFigure3ComponentAblation   Figure 3  component curves
//	BenchmarkFigure4FrequencyImpact     Figure 4  frequency-binned recall
//
// plus the design-choice ablations called out in DESIGN.md and
// microbenchmarks of the pipeline's hot components.
package repro

import (
	"sync"
	"testing"

	"nerglobalizer/internal/cluster"
	"nerglobalizer/internal/core"
	"nerglobalizer/internal/corpus"
	"nerglobalizer/internal/ctrie"
	"nerglobalizer/internal/experiments"
	"nerglobalizer/internal/metrics"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/parallel"
	"nerglobalizer/internal/phrase"
	"nerglobalizer/internal/types"
)

var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
)

// suite returns a shared trained small-scale suite; training happens
// once, outside every benchmark's timer (and is shared with the
// integration test).
func suite(tb testing.TB) *experiments.Suite {
	tb.Helper()
	benchOnce.Do(func() {
		benchSuite = experiments.NewSuite(experiments.SmallScale())
		benchSuite.TrainAll()
	})
	return benchSuite
}

func BenchmarkTable1DatasetGen(b *testing.B) {
	s := suite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := s.Table1()
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2PhraseEmbedderTraining(b *testing.B) {
	s := suite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := s.Table2()
		if len(tab.Rows) != 2 {
			b.Fatal("unexpected table shape")
		}
	}
}

func BenchmarkTable3LocalBaselines(b *testing.B) {
	s := suite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := s.Table3()
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable4LocalVsGlobal(b *testing.B) {
	s := suite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := s.Table4()
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable5GlobalBaselines(b *testing.B) {
	s := suite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := s.Table5()
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFigure3ComponentAblation(b *testing.B) {
	s := suite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := s.Figure3()
		if len(tab.Rows) != 4 {
			b.Fatal("unexpected table shape")
		}
	}
}

func BenchmarkFigure4FrequencyImpact(b *testing.B) {
	s := suite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := s.Figure4()
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkErrorAnalysis(b *testing.B) {
	s := suite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := s.ErrorAnalysis()
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- End-to-end pipeline benchmarks (the Table IV timing columns) ---

// BenchmarkPipelineLocalPhase measures the Local NER pass alone over
// the D1 stream (the "Local NER Execution Time" column of Table IV).
func BenchmarkPipelineLocalPhase(b *testing.B) {
	s := suite(b)
	d := s.Datasets()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.G.Run(d.Sentences, core.ModeLocalOnly)
		if len(res.Local) == 0 {
			b.Fatal("no output")
		}
	}
}

// BenchmarkPipelineFull measures the complete pipeline over D1 (Local
// plus the "Time Overhead" of Global NER).
func BenchmarkPipelineFull(b *testing.B) {
	s := suite(b)
	d := s.Datasets()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.G.Run(d.Sentences, core.ModeFull)
		if len(res.Final) == 0 {
			b.Fatal("no output")
		}
	}
}

// BenchmarkAblationLocalEncoder compares the two Local NER language-
// model families (Transformer stand-in vs BiGRU) end to end: each
// sub-benchmark trains its own pipeline and reports macro-F1 on D1.
func BenchmarkAblationLocalEncoder(b *testing.B) {
	s := suite(b)
	d := s.Datasets()[0]
	train := s.Scale.TrainSet().Sentences
	d5 := s.Scale.D5().Sentences
	for _, kind := range []core.EncoderKind{core.EncoderTransformer, core.EncoderBiGRU} {
		b.Run(kind.String(), func(b *testing.B) {
			var f1 float64
			for i := 0; i < b.N; i++ {
				cfg := s.Scale.Core
				cfg.Kind = kind
				g := core.New(cfg)
				g.PretrainEncoder(corpus.PretrainTweets(s.Scale.PretrainN, 21))
				g.FineTuneLocal(train)
				g.TrainGlobal(d5)
				res := g.Run(d.Sentences, core.ModeFull)
				f1 = metrics.Evaluate(d.GoldByKey(), res.Final).MacroF1()
			}
			b.ReportMetric(f1, "macroF1")
		})
	}
}

// BenchmarkAblationLinkage sweeps the agglomerative linkage criterion
// on a fixed mention-embedding workload.
func BenchmarkAblationLinkage(b *testing.B) {
	rng := nn.NewRNG(14)
	embs := make([][]float64, 90)
	for i := range embs {
		v := make([]float64, 24)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		embs[i] = nn.Normalize(v)
	}
	for _, lk := range []cluster.Linkage{cluster.AverageLinkage, cluster.SingleLinkage, cluster.CompleteLinkage} {
		b.Run(lk.String(), func(b *testing.B) {
			var count int
			for i := 0; i < b.N; i++ {
				count = cluster.AgglomerativeWithLinkage(embs, 0.75, lk).Count
			}
			b.ReportMetric(float64(count), "clusters")
		})
	}
}

// --- Design-choice ablations (DESIGN.md) ---

// BenchmarkAblationLossFunctions re-trains the Phrase Embedder with
// each contrastive objective and reports the downstream classifier's
// validation macro-F1 as a benchmark metric.
func BenchmarkAblationLossFunctions(b *testing.B) {
	s := suite(b)
	d5 := s.Scale.D5().Sentences
	for _, obj := range []core.Objective{core.ObjectiveTriplet, core.ObjectiveSoftNN} {
		b.Run(obj.String(), func(b *testing.B) {
			b.ReportAllocs()
			var f1 float64
			for i := 0; i < b.N; i++ {
				v := s.G.WithObjective(obj)
				res := v.TrainGlobal(d5)
				f1 = res.Classifier.ValMacroF1
			}
			b.ReportMetric(f1, "valMacroF1")
		})
	}
}

// BenchmarkAblationL2Norm compares mention pooling with and without
// the l2-normalization step of eq. (2) under the cosine separation
// metric the clustering uses. The two variants measure identically —
// cosine geometry is scale-invariant — which is itself the finding:
// the normalization step cannot change the clustering geometry and
// exists to condition the input scale of the trainable dense layer
// (eq. 3), stabilizing contrastive training.
func BenchmarkAblationL2Norm(b *testing.B) {
	s := suite(b)
	d := s.Scale.D5()
	poolRaw := func(emb *nn.Matrix, sp types.Span) []float64 {
		start, end := sp.Start, sp.End
		if end > emb.Rows {
			end = emb.Rows
		}
		if start >= end {
			return make([]float64, emb.Cols)
		}
		sum := make([]float64, emb.Cols)
		for i := start; i < end; i++ {
			nn.AddScaled(sum, emb.Row(i), 1)
		}
		nn.Scale(sum, 1/float64(end-start))
		return sum
	}
	for _, variant := range []struct {
		name string
		pool func(*nn.Matrix, types.Span) []float64
	}{
		{"l2norm", phrase.Pool},
		{"raw", poolRaw},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var sep float64
			for i := 0; i < b.N; i++ {
				sep = typeSeparation(s, d, variant.pool)
			}
			b.ReportMetric(sep, "separation")
		})
	}
}

// typeSeparation computes mean inter-type minus mean intra-type cosine
// distance over pooled gold-mention embeddings.
func typeSeparation(s *experiments.Suite, d *corpus.Dataset, pool func(*nn.Matrix, types.Span) []float64) float64 {
	byType := map[types.EntityType][][]float64{}
	count := 0
	for _, sent := range d.Sentences {
		if count > 300 {
			break
		}
		var emb *nn.Matrix
		for _, g := range sent.Gold {
			if g.End > len(sent.Tokens) {
				continue
			}
			if emb == nil {
				emb = s.G.Tagger.Embed(sent.Tokens, nn.F64)
			}
			if g.End > emb.Rows {
				continue
			}
			byType[g.Type] = append(byType[g.Type], pool(emb, g.Span))
			count++
		}
	}
	intra, intraN := 0.0, 0
	inter, interN := 0.0, 0
	typesList := types.EntityTypes
	for ti, ta := range typesList {
		as := byType[ta]
		for i := 0; i < len(as) && i < 30; i++ {
			for j := i + 1; j < len(as) && j < 30; j++ {
				intra += nn.CosineDistance(as[i], as[j])
				intraN++
			}
		}
		for _, tb := range typesList[ti+1:] {
			bs := byType[tb]
			for i := 0; i < len(as) && i < 15; i++ {
				for j := 0; j < len(bs) && j < 15; j++ {
					inter += nn.CosineDistance(as[i], bs[j])
					interN++
				}
			}
		}
	}
	if intraN == 0 || interN == 0 {
		return 0
	}
	return inter/float64(interN) - intra/float64(intraN)
}

// BenchmarkAblationPooling compares the learned attention pooling of
// eqs. (6)–(8) against plain mean pooling for the global candidate
// embedding, reporting end-to-end macro-F1 on D1.
func BenchmarkAblationPooling(b *testing.B) {
	s := suite(b)
	d := s.Datasets()[0]
	b.Run("attention", func(b *testing.B) {
		var f1 float64
		for i := 0; i < b.N; i++ {
			res := s.G.Run(d.Sentences, core.ModeFull)
			f1 = metrics.Evaluate(d.GoldByKey(), res.Final).MacroF1()
		}
		b.ReportMetric(f1, "macroF1")
	})
	// Mean pooling is approximated by classifying each cluster from
	// the plain average of its member embeddings (a 1-mention pseudo
	// cluster), bypassing the attention weights.
	b.Run("mean", func(b *testing.B) {
		var f1 float64
		for i := 0; i < b.N; i++ {
			res := s.G.Run(d.Sentences, core.ModeFull)
			// Re-classify every candidate from its mean embedding.
			pred := map[types.SentenceKey][]types.Entity{}
			for _, c := range s.G.CandidateBase().All() {
				mean := nn.Mean(c.Embs)
				et, _ := s.G.Classifier.Classify([][]float64{mean})
				if et == types.None {
					continue
				}
				for _, m := range c.Mentions {
					pred[m.Key] = append(pred[m.Key], types.Entity{Span: m.Span, Type: et})
				}
			}
			_ = res
			f1 = metrics.Evaluate(d.GoldByKey(), pred).MacroF1()
		}
		b.ReportMetric(f1, "macroF1")
	})
}

// BenchmarkAblationClusterThreshold sweeps the agglomerative
// clustering threshold and reports end-to-end macro-F1 on D1.
func BenchmarkAblationClusterThreshold(b *testing.B) {
	s := suite(b)
	d := s.Datasets()[0]
	for _, th := range []float64{0.25, 0.5, 0.75, 0.95} {
		b.Run(thName(th), func(b *testing.B) {
			cfg := s.Scale.Core
			cfg.ClusterThreshold = th
			// Rebuild a pipeline view sharing trained components.
			g := s.G.WithClusterThreshold(th)
			var f1 float64
			for i := 0; i < b.N; i++ {
				res := g.Run(d.Sentences, core.ModeFull)
				f1 = metrics.Evaluate(d.GoldByKey(), res.Final).MacroF1()
			}
			b.ReportMetric(f1, "macroF1")
			_ = cfg
		})
	}
}

func thName(th float64) string {
	switch th {
	case 0.25:
		return "th0.25"
	case 0.5:
		return "th0.50"
	case 0.75:
		return "th0.75"
	default:
		return "th0.95"
	}
}

// BenchmarkAblationMentionScan compares CTrie lookup against a naive
// substring scan for mention extraction over the D1 stream.
func BenchmarkAblationMentionScan(b *testing.B) {
	s := suite(b)
	d := s.Datasets()[0]
	// Build the trie from gold surfaces.
	trie := ctrie.New()
	var surfaces [][]string
	for _, sent := range d.Sentences {
		for _, g := range sent.Gold {
			if g.End <= len(sent.Tokens) {
				toks := sent.Tokens[g.Start:g.End]
				if trie.Insert(toks) {
					surfaces = append(surfaces, toks)
				}
			}
		}
	}
	b.Run("ctrie", func(b *testing.B) {
		b.ReportAllocs()
		total := 0
		for i := 0; i < b.N; i++ {
			total = 0
			for _, sent := range d.Sentences {
				total += len(trie.Scan(sent.Tokens))
			}
		}
		b.ReportMetric(float64(total), "matches")
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		total := 0
		for i := 0; i < b.N; i++ {
			total = 0
			for _, sent := range d.Sentences {
				total += naiveScan(sent.Tokens, surfaces)
			}
		}
		b.ReportMetric(float64(total), "matches")
	})
}

// naiveScan counts longest-match occurrences by comparing every
// surface at every position.
func naiveScan(tokens []string, surfaces [][]string) int {
	matches := 0
	for i := 0; i < len(tokens); {
		best := 0
		for _, s := range surfaces {
			if len(s) > best && i+len(s) <= len(tokens) && equalFoldTokens(tokens[i:i+len(s)], s) {
				best = len(s)
			}
		}
		if best > 0 {
			matches++
			i += best
		} else {
			i++
		}
	}
	return matches
}

func equalFoldTokens(a, b []string) bool {
	for i := range a {
		if !equalFold(a[i], b[i]) {
			return false
		}
	}
	return true
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// --- Component microbenchmarks ---

func BenchmarkEncoderForward(b *testing.B) {
	s := suite(b)
	tokens := []string{"cases", "rise", "in", "Italy", "again", "#covid"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.G.Tagger.Embed(tokens, nn.F64)
	}
}

func BenchmarkTaggerRun(b *testing.B) {
	s := suite(b)
	tokens := []string{"governor", "Beshear", "gives", "an", "update", "on", "covid"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.G.Tagger.Run(tokens, nn.F64)
	}
}

// BenchmarkEncoderForwardParallel shards a batch of tagger forwards
// across the worker pool, one sentence per worker, against the serial
// baseline. On a single-core host the two measure alike; the point of
// the serial/parallel pair is the scaling comparison on multi-core
// hosts (and the allocs/op column, which must not grow with workers).
func BenchmarkEncoderForwardParallel(b *testing.B) {
	s := suite(b)
	d := s.Datasets()[0]
	batch := make([][]string, 0, 64)
	for _, sent := range d.Sentences[:64] {
		batch = append(batch, sent.Tokens)
	}
	for _, bc := range []struct {
		name string
		pool *parallel.Pool
	}{
		{"serial", nil},
		{"parallel", parallel.New(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := s.G.Tagger.RunBatch(batch, bc.pool, nn.F64)
				if len(res) != len(batch) {
					b.Fatal("missing results")
				}
			}
		})
	}
}

// BenchmarkPairwiseDistances measures the O(n²) cosine-distance matrix
// that dominates agglomerative clustering of frequent surface forms,
// serial versus row-sharded across the pool.
func BenchmarkPairwiseDistances(b *testing.B) {
	rng := nn.NewRNG(8)
	embs := make([][]float64, 256)
	for i := range embs {
		v := make([]float64, 24)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		embs[i] = nn.Normalize(v)
	}
	for _, bc := range []struct {
		name string
		pool *parallel.Pool
	}{
		{"serial", nil},
		{"parallel", parallel.New(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dist := cluster.PairwiseCosineDistances(embs, bc.pool)
				if len(dist) != len(embs) {
					b.Fatal("bad matrix")
				}
			}
		})
	}
}

// BenchmarkDistMatrixGrowCluster is the long-stream shape of Global NER
// step 3 in isolation: one surface's pool (three senses, as a hot
// surface ends in a handful of clusters) grows a mention at a time to
// n = 512 and is re-clustered after every arrival. Loose senses (noise
// 0.4) put a new mention's first merge early in the recorded sequence,
// so most steps are rolled back; tight ones (noise 0.1) put it late, so
// most are kept.
func BenchmarkDistMatrixGrowCluster(b *testing.B) {
	for _, bc := range []struct {
		name  string
		noise float64
	}{
		{"loose-senses", 0.4},
		{"tight-senses", 0.1},
	} {
		rng := nn.NewRNG(8)
		centers := make([][]float64, 3)
		for c := range centers {
			centers[c] = make([]float64, 24)
			for j := range centers[c] {
				centers[c][j] = rng.NormFloat64()
			}
		}
		embs := make([][]float64, 512)
		for i := range embs {
			v := make([]float64, 24)
			for j := range v {
				v[j] = centers[i%3][j] + bc.noise*rng.NormFloat64()
			}
			embs[i] = nn.Normalize(v)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := cluster.NewDistMatrix(cluster.DefaultThreshold, cluster.AverageLinkage)
				var res cluster.Result
				for n := 1; n <= len(embs); n++ {
					m.Grow(embs[:n], nil)
					res = m.Cluster()
				}
				if len(res.Assignments) != len(embs) {
					b.Fatal("bad clustering")
				}
			}
		})
	}
}

func BenchmarkCTrieScan(b *testing.B) {
	trie := ctrie.New()
	rng := nn.NewRNG(9)
	vocab := []string{"alpha", "beta", "gamma", "delta", "covid", "italy", "beshear"}
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(3)
		toks := make([]string, n)
		for j := range toks {
			toks[j] = vocab[rng.Intn(len(vocab))] + string(rune('a'+rng.Intn(26)))
		}
		trie.Insert(toks)
	}
	sentence := []string{"alphaa", "betab", "the", "covidc", "italyd", "again", "beshear"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trie.Scan(sentence)
	}
}

func BenchmarkAgglomerativeClustering(b *testing.B) {
	rng := nn.NewRNG(4)
	embs := make([][]float64, 120)
	for i := range embs {
		v := make([]float64, 24)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		embs[i] = nn.Normalize(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.Agglomerative(embs, 0.75)
	}
}

func BenchmarkPhraseEmbed(b *testing.B) {
	s := suite(b)
	emb := s.G.Tagger.Embed([]string{"governor", "Beshear", "gives", "an", "update"}, nn.F64)
	span := types.Span{Start: 1, End: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.G.Embedder.Embed(emb, span)
	}
}

func BenchmarkClassifierClassify(b *testing.B) {
	s := suite(b)
	rng := nn.NewRNG(6)
	embs := make([][]float64, 10)
	for i := range embs {
		v := make([]float64, s.Scale.Core.Encoder.Dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		embs[i] = v
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.G.Classifier.Classify(embs)
	}
}
