package core

import (
	"slices"
	"testing"

	"nerglobalizer/internal/corpus"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/stream"
)

// longStreamCorpus is the benchmark's long-stream generator corpus
// (bench/streams.go genCorpus: 11,800 tweets of the recurrent two-topic
// stream, generator seed 71) in the generator's order.
func longStreamCorpus() *corpus.Dataset {
	return corpus.Generate(corpus.StreamConfig{
		Name: "benchstream", NumTweets: 11800, NumTopics: 2,
		PerTopicEntities:  [4]int{12, 10, 8, 8},
		ZipfExponent:      1.1,
		TypoRate:          0.08,
		CapNoiseRate:      0.12,
		LowercaseRate:     0.35,
		NonEntityRate:     0.3,
		AmbiguousRate:     0.15,
		UninformativeRate: 0.25,
		AltFull:           true,
		Ambiguity:         true, Streaming: true, Seed: 71,
	})
}

// perMentionClusters is the clustering as it was before repeated
// embeddings shared a row: the naive from-singletons average-linkage
// loop over every mention, copies included, each pair's distance from
// nn.CosineDistance, the first smallest pair below the threshold merged
// per step, and cluster ids numbered by first member.
func perMentionClusters(embs [][]float64, threshold float64) []int {
	n := len(embs)
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := 0; j < i; j++ {
			d := nn.CosineDistance(embs[j], embs[i])
			dist[i][j], dist[j][i] = d, d
		}
	}
	size, parent := make([]float64, n), make([]int, n)
	for i := range parent {
		size[i], parent[i] = 1, i
	}
	for {
		bi, bj, best := -1, -1, threshold
		for i := 0; i < n; i++ {
			if parent[i] != i {
				continue
			}
			for j := i + 1; j < n; j++ {
				if parent[j] == j && dist[i][j] < best {
					bi, bj, best = i, j, dist[i][j]
				}
			}
		}
		if bi < 0 {
			break
		}
		si, sj := size[bi], size[bj]
		for k := 0; k < n; k++ {
			if parent[k] == k && k != bi && k != bj {
				d := (si*dist[bi][k] + sj*dist[bj][k]) / (si + sj)
				dist[bi][k], dist[k][bi] = d, d
			}
		}
		size[bi] += sj
		parent[bj] = bi
	}
	ids, count := make([]int, n), 0
	for i := range parent {
		root := i
		for parent[root] != root {
			root = parent[root]
		}
		if root == i {
			ids[i] = count
			count++
		} else {
			ids[i] = ids[root]
		}
	}
	return ids
}

// TestDistinctRowsMatchPerMentionClustering runs the first 2,048 tweets
// of the long-stream corpus in cycles of 32 and, after every cycle,
// requires each surface the cycle re-clustered to hold the partition the
// per-mention loop gives over its pool. The distance matrix clusters
// each distinct embedding once, weighted by its multiplicity, which is
// the same average linkage in exact arithmetic; this pins that the
// floating-point merges land on the same partition on the stream the
// benchmark serves, where a quarter of the tweets repeat.
func TestDistinctRowsMatchPerMentionClustering(t *testing.T) {
	if testing.Short() {
		t.Skip("re-clusters 64 cycles of a 2,048-tweet stream against an O(n³) reference")
	}
	g := trainedGlobalizer(t)
	g.Reset()
	defer g.Reset()
	th := g.Config().ClusterThreshold
	sents := longStreamCorpus().Sentences[:2048]
	// A re-clustered surface holds a new assignment slice.
	checked := map[*surfaceAmort]*int{}
	compared := 0
	for ci, b := range stream.Batches(sents, 32) {
		g.ProcessTagged(b, nil, ModeFull)
		for _, s := range sortedSurfaces(g.amort.surfaces) {
			sa := g.amort.surfaces[s]
			if sa.outcome.skip || len(sa.outcome.assign) == 0 || checked[sa] == &sa.outcome.assign[0] {
				continue
			}
			checked[sa] = &sa.outcome.assign[0]
			if want := perMentionClusters(sa.embs, th); !slices.Equal(sa.outcome.assign, want) {
				t.Fatalf("cycle %d, surface %q (%d mentions, %d distinct): partition %v, per-mention loop %v",
					ci, s, sa.dist.Len(), sa.dist.Rows(), sa.outcome.assign, want)
			}
			compared++
		}
	}
	copies := 0
	for _, sa := range g.amort.surfaces {
		if !sa.outcome.skip {
			copies += sa.dist.Len() - sa.dist.Rows()
		}
	}
	if compared == 0 || copies == 0 {
		t.Fatalf("compared %d re-clusterings over pools holding %d copies: the stream must repeat embeddings", compared, copies)
	}
	t.Logf("%d re-clusterings equal; the final pools hold %d copies", compared, copies)
}
