package core

import (
	"reflect"
	"testing"

	"nerglobalizer/internal/stream"
	"nerglobalizer/internal/types"
)

// These tests pin the fleet decomposition's core claim at the engine
// level, with no HTTP in sight: restricting the Global NER phase to a
// hash-ownership partition of the surface forms and unioning K such
// runs reproduces the unsharded run byte for byte, cycle by cycle —
// because the per-surface steps (embedding, clustering, classifying)
// are pure functions of each surface's own mention pool.

// shardCycles drives ProcessBatch over the stream under a given
// ownership, snapshotting each cycle's final map and candidates.
func shardCycles(g *Globalizer, sents []*types.Sentence, batchSize, index, count int, t *testing.T) []cycleSnapshot {
	if err := g.SetShardOwnership(index, count); err != nil {
		t.Fatal(err)
	}
	var out []cycleSnapshot
	for _, b := range stream.Batches(sents, batchSize) {
		final := g.ProcessBatch(b, ModeFull)
		out = append(out, cycleSnapshot{final: final, cands: g.CandidateBase().All()})
	}
	return out
}

// TestShardedUnionMatchesUnsharded runs the engine under every
// ownership of K ∈ {2, 3} shards and checks that (a) each shard's
// output contains exactly the unsharded entities whose surfaces it
// owns, and (b) the per-sentence union across shards equals the
// unsharded run, every cycle.
func TestShardedUnionMatchesUnsharded(t *testing.T) {
	g := trainedGlobalizer(t)
	defer func() {
		g.SetShardOwnership(0, 1)
		g.setCaching(true)
	}()
	test := smallStream("shardpart", 90, 71)
	g.setCaching(true)
	g.SetWorkers(0)

	ref := shardCycles(g, test.Sentences, 30, 0, 1, t)

	for _, count := range []int{2, 3} {
		parts := make([][]cycleSnapshot, count)
		for idx := 0; idx < count; idx++ {
			parts[idx] = shardCycles(g, test.Sentences, 30, idx, count, t)
		}
		for ci := range ref {
			// Candidates: merge per-shard candidate lists by ascending
			// surface — each list is sorted already, and one surface lives
			// on exactly one shard.
			var merged []*stream.Candidate
			idxs := make([]int, count)
			for {
				best := -1
				for s := 0; s < count; s++ {
					if idxs[s] >= len(parts[s][ci].cands) {
						continue
					}
					if best == -1 || parts[s][ci].cands[idxs[s]].Surface < parts[best][ci].cands[idxs[best]].Surface {
						best = s
					}
				}
				if best == -1 {
					break
				}
				surf := parts[best][ci].cands[idxs[best]].Surface
				for idxs[best] < len(parts[best][ci].cands) && parts[best][ci].cands[idxs[best]].Surface == surf {
					merged = append(merged, parts[best][ci].cands[idxs[best]])
					idxs[best]++
				}
			}
			if !reflect.DeepEqual(merged, ref[ci].cands) {
				t.Fatalf("K=%d cycle %d: merged candidates differ from unsharded", count, ci)
			}

			// Entities: per sentence, the shards partition the unsharded
			// entity list by surface ownership; re-merging by surface key
			// must reproduce it exactly.
			for key, want := range ref[ci].final {
				var got []types.Entity
				bySurf := make(map[string][]types.Entity)
				var order []string
				for idx := 0; idx < count; idx++ {
					for _, e := range parts[idx][ci].final[key] {
						s := surfaceOf(test.Sentences, key, e)
						if _, ok := bySurf[s]; !ok {
							order = append(order, s)
						}
						bySurf[s] = append(bySurf[s], e)
					}
				}
				sortStrings(order)
				for _, s := range order {
					got = append(got, bySurf[s]...)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("K=%d cycle %d: sentence %v entities differ after merge", count, ci, key)
				}
			}
		}
	}
}

func surfaceOf(sents []*types.Sentence, key types.SentenceKey, e types.Entity) string {
	for _, s := range sents {
		if s.Key() == key {
			return s.SurfaceAt(e.Span)
		}
	}
	return ""
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestPoolsMirrorGroups pins the incremental bookkeeping invariant the
// amortized phase rests on: after every cycle, the spliced per-surface
// pools equal mention.GroupBySurface over a fresh full extraction.
func TestPoolsMirrorGroups(t *testing.T) {
	g := trainedGlobalizer(t)
	defer g.setCaching(true)
	test := smallStream("poolmirror", 60, 73)
	g.setCaching(true)
	g.SetWorkers(1)
	g.Reset()
	for ci, b := range stream.Batches(test.Sentences, 15) {
		g.ProcessBatch(b, ModeFull)
		// Ground truth: every sentence's scan in stream order, grouped.
		want := make(map[string][]types.Mention)
		for _, row := range g.amort.rows {
			for _, m := range row.scan {
				want[m.Surface] = append(want[m.Surface], m)
			}
		}
		if len(g.amort.surfaces) != len(want) {
			t.Fatalf("cycle %d: %d pooled surfaces, want %d", ci, len(g.amort.surfaces), len(want))
		}
		for s, ms := range want {
			if sa := g.amort.surfaces[s]; sa == nil || !mentionsEqual(sa.pool, ms) {
				t.Fatalf("cycle %d: pool for %q diverged from grouped extraction", ci, s)
			}
		}
	}
}

// TestProcessTaggedScopedToBatch pins the scoped serving API: the
// per-batch entities ProcessTagged returns must be the exact per-key
// values of ProcessBatch's full entity map, on both cached and uncached
// paths.
func TestProcessTaggedScopedToBatch(t *testing.T) {
	g := trainedGlobalizer(t)
	defer g.setCaching(true)
	test := smallStream("scoped", 60, 79)
	for _, cached := range []bool{true, false} {
		g.setCaching(cached)
		g.SetWorkers(0)
		g.Reset()
		full := make([]map[types.SentenceKey][]types.Entity, 0)
		for _, b := range stream.Batches(test.Sentences, 20) {
			full = append(full, g.ProcessBatch(b, ModeFull))
		}
		g.Reset()
		for ci, b := range stream.Batches(test.Sentences, 20) {
			got := g.ProcessTagged(b, nil, ModeFull)
			for _, s := range b {
				want := full[ci][s.Key()]
				if !reflect.DeepEqual(got[s.Key()], want) {
					t.Fatalf("cached=%v cycle %d: scoped entities differ for %v", cached, ci, s.Key())
				}
			}
		}
	}
}

// TestProcessTaggedMatchesLocal pins the fleet tag-shipping contract:
// a cycle fed externally computed tag results (TagBatch on an engine
// clone) is byte-identical to tagging locally.
func TestProcessTaggedMatchesLocal(t *testing.T) {
	g := trainedGlobalizer(t)
	defer g.setCaching(true)
	test := smallStream("tagged", 50, 83)
	batches := stream.Batches(test.Sentences, 25)

	g.setCaching(true)
	g.SetWorkers(0)
	g.Reset()
	var want []map[types.SentenceKey][]types.Entity
	for _, b := range batches {
		want = append(want, g.ProcessTagged(b, nil, ModeFull))
	}

	g.Reset()
	for ci, b := range batches {
		// Tag in two asymmetric slices to exercise batch-composition
		// invariance on the shipped path, then stitch.
		cut := len(b) / 3
		results := append(g.TagBatch(b[:cut]), g.TagBatch(b[cut:])...)
		got := g.ProcessTagged(b, results, ModeFull)
		if !reflect.DeepEqual(got, want[ci]) {
			t.Fatalf("cycle %d: tagged-injection output differs from local tagging", ci)
		}
	}
}
