package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"nerglobalizer/internal/cluster"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/stream"
	"nerglobalizer/internal/types"
)

// These tests pin how a surface outcome is read: appendTyped renders a
// sentence's typed mentions through the outcome's assignments,
// markTyped diffs two outcomes sentence by sentence without building
// per-sentence maps, a cluster the new mentions left alone keeps its
// candidate, and a restore refuses clusters that do not partition the
// pool. The references are the constructions the engine used before
// it read outcomes through their assignments.

// typedOf is the reference construction of a surface's typed mentions:
// candidates in index order, each one's mentions in pool order, every
// mention of a typed candidate carrying its type.
func typedOf(oc *surfaceOutcome, pool []types.Mention) []types.Mention {
	if oc.skip {
		return nil
	}
	var typed []types.Mention
	for c, cand := range oc.cands {
		if cand.Type == types.None {
			continue
		}
		for i, m := range pool {
			if oc.assign[i] == c {
				m.Type = cand.Type
				typed = append(typed, m)
			}
		}
	}
	return typed
}

// typedBySentence splits a surface outcome's typed mentions by
// sentence, preserving the outcome's order within each.
func typedBySentence(typed []types.Mention) map[types.SentenceKey][]types.Mention {
	if len(typed) == 0 {
		return nil
	}
	out := make(map[types.SentenceKey][]types.Mention, 8)
	for _, m := range typed {
		out[m.Key] = append(out[m.Key], m)
	}
	return out
}

// markTypedDiff marks every sentence whose typed mentions differ
// between two outcomes of one surface.
func markTypedDiff(dst map[types.SentenceKey]bool, old, cur map[types.SentenceKey][]types.Mention) {
	for key, oms := range old {
		if !slices.Equal(oms, cur[key]) {
			dst[key] = true
		}
	}
	for key := range cur {
		if _, seen := old[key]; !seen {
			dst[key] = true
		}
	}
}

// outcomeOf builds an outcome over a pool from per-mention cluster
// labels (renumbered by first member, as a clustering numbers them)
// and a type per label.
func outcomeOf(surface string, labels []int, typeOf func(label int) types.EntityType) surfaceOutcome {
	ids := map[int]int{}
	assign := make([]int, len(labels))
	var byID []int
	for i, l := range labels {
		id, ok := ids[l]
		if !ok {
			id = len(ids)
			ids[l] = id
			byID = append(byID, l)
		}
		assign[i] = id
	}
	oc := surfaceOutcome{surface: surface, assign: assign, members: cluster.Result{Assignments: assign, Count: len(ids)}.Members()}
	for c, l := range byID {
		oc.cands = append(oc.cands, &stream.Candidate{Surface: surface, ClusterID: c, Type: typeOf(l)})
	}
	return oc
}

// TestAppendTypedMatchesTypedOrder pins the render order: for every
// sentence run of a pool, appendTyped yields what the reference typed
// list holds for that sentence, appended after what dst held.
func TestAppendTypedMatchesTypedOrder(t *testing.T) {
	key := func(tweet int) types.SentenceKey { return types.SentenceKey{TweetID: tweet} }
	m := func(tweet, start int) types.Mention {
		return types.Mention{Key: key(tweet), Span: types.Span{Start: start, End: start + 1}, Surface: "rome", Type: types.Person}
	}
	typesOf := func(ts ...types.EntityType) func(int) types.EntityType {
		return func(l int) types.EntityType { return ts[l] }
	}
	cases := []struct {
		name   string
		pool   []types.Mention
		labels []int
		typeOf func(int) types.EntityType
		// want pins the rendering of the last sentence's run.
		want []types.Span
	}{
		{
			name:   "one typed cluster",
			pool:   []types.Mention{m(1, 0), m(2, 3)},
			labels: []int{0, 0},
			typeOf: typesOf(types.Location),
			want:   []types.Span{{Start: 3, End: 4}},
		},
		{
			name:   "untyped clusters render nothing",
			pool:   []types.Mention{m(1, 0), m(2, 1), m(2, 4), m(3, 2)},
			labels: []int{0, 1, 0, 1},
			typeOf: typesOf(types.Organization, types.None),
			want:   nil,
		},
		{
			name: "two mentions of one sentence numbered opposite to pool order",
			// Sentence 2 holds pool indices 1 and 2: index 1 is in cluster
			// 1, index 2 in cluster 0, so index 2 renders first.
			pool:   []types.Mention{m(1, 0), m(2, 1), m(2, 5)},
			labels: []int{0, 1, 0},
			typeOf: typesOf(types.Location, types.Person),
			want:   []types.Span{{Start: 5, End: 6}, {Start: 1, End: 2}},
		},
		{
			name:   "mixed run, one cluster untyped",
			pool:   []types.Mention{m(1, 0), m(1, 2), m(4, 0), m(4, 2), m(4, 4), m(4, 6)},
			labels: []int{0, 1, 2, 1, 0, 2},
			typeOf: typesOf(types.Miscellaneous, types.Location, types.None),
			want:   []types.Span{{Start: 4, End: 5}, {Start: 2, End: 3}},
		},
		{
			name:   "every mention its own cluster",
			pool:   []types.Mention{m(1, 0), m(1, 2), m(1, 4)},
			labels: []int{0, 1, 2},
			typeOf: typesOf(types.Person, types.None, types.Location),
			want:   []types.Span{{Start: 0, End: 1}, {Start: 4, End: 5}},
		},
	}
	prefix := []types.Mention{{Surface: "paris", Type: types.Location}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oc := outcomeOf("rome", tc.labels, tc.typeOf)
			ref := typedBySentence(typedOf(&oc, tc.pool))
			var last []types.Mention
			for lo := 0; lo < len(tc.pool); {
				hi := runEnd(tc.pool, lo)
				got := appendTyped(nil, &oc, tc.pool, lo, hi)
				if want := ref[tc.pool[lo].Key]; !reflect.DeepEqual(got, want) {
					t.Fatalf("sentence %v: rendered %v, reference %v", tc.pool[lo].Key, got, want)
				}
				after := appendTyped(slices.Clone(prefix), &oc, tc.pool, lo, hi)
				if !reflect.DeepEqual(after, append(slices.Clone(prefix), got...)) {
					t.Fatalf("sentence %v: appending to a non-empty list gave %v", tc.pool[lo].Key, after)
				}
				last = got
				lo = hi
			}
			var spans []types.Span
			for _, m := range last {
				spans = append(spans, m.Span)
			}
			if !reflect.DeepEqual(spans, tc.want) {
				t.Fatalf("last sentence rendered spans %v, want %v", spans, tc.want)
			}
		})
	}
	skipped := surfaceOutcome{surface: "rome", skip: true}
	if got := appendTyped(nil, &skipped, cases[0].pool, 0, 1); got != nil {
		t.Fatalf("a skipped outcome rendered %v", got)
	}
}

// diffFixture is a stream of n sentences whose keys are not in stream
// order, so a walk that compared keys instead of positions would
// mis-order runs.
type diffFixture struct {
	tb   *stream.TweetBase
	keys []types.SentenceKey
}

func newDiffFixture(rng *rand.Rand, n int) *diffFixture {
	f := &diffFixture{tb: stream.NewTweetBase()}
	for _, id := range rng.Perm(n) {
		s := &types.Sentence{TweetID: id + 1, Tokens: []string{"x"}}
		f.tb.Add(&stream.Record{Sentence: s})
		f.keys = append(f.keys, s.Key())
	}
	return f
}

// run returns a random contribution of the sentence at pos to a pool:
// zero to three mentions in span order, from span start `from` on.
func (f *diffFixture) run(rng *rand.Rand, pos, from int) []types.Mention {
	var out []types.Mention
	for s, n := 0, rng.Intn(4); s < n; s++ {
		out = append(out, types.Mention{
			Key:          f.keys[pos],
			Span:         types.Span{Start: from + 2*s, End: from + 2*s + 1},
			Surface:      "rome",
			Type:         types.EntityType(rng.Intn(types.NumClasses)),
			FromLocalNER: rng.Intn(2) == 0,
		})
	}
	return out
}

func (f *diffFixture) pool(rng *rand.Rand, from, to int) []types.Mention {
	var out []types.Mention
	for p := from; p < to; p++ {
		out = append(out, f.run(rng, p, 0)...)
	}
	return out
}

// randomOutcome draws an outcome over a pool: now and then a skipped
// one, otherwise random clusters with random types.
func randomOutcome(rng *rand.Rand, pool []types.Mention) surfaceOutcome {
	if rng.Intn(8) == 0 {
		return surfaceOutcome{surface: "rome", skip: true}
	}
	k := 1 + rng.Intn(4)
	labels := make([]int, len(pool))
	for i := range labels {
		labels[i] = rng.Intn(k)
	}
	ts := make([]types.EntityType, k)
	for i := range ts {
		ts[i] = types.EntityType(rng.Intn(types.NumClasses))
	}
	return outcomeOf("rome", labels, func(l int) types.EntityType { return ts[l] })
}

// grownOutcome draws the outcome of a grown pool from the previous
// one's: the prefix keeps its clusters but for a few reassigned
// mentions, the tail joins random clusters, and most clusters keep
// their type.
func grownOutcome(rng *rand.Rand, old *surfaceOutcome, kept, n int) surfaceOutcome {
	if old.skip || rng.Intn(4) == 0 {
		return randomOutcome(rng, make([]types.Mention, n))
	}
	k := len(old.cands) + 2
	labels := make([]int, n)
	for i := range labels {
		if i < kept && rng.Intn(6) != 0 {
			labels[i] = old.assign[i]
		} else {
			labels[i] = rng.Intn(k)
		}
	}
	ts := make([]types.EntityType, k)
	for i := range ts {
		if i < len(old.cands) && rng.Intn(4) != 0 {
			ts[i] = old.cands[i].Type
		} else {
			ts[i] = types.EntityType(rng.Intn(types.NumClasses))
		}
	}
	return outcomeOf("rome", labels, func(l int) types.EntityType { return ts[l] })
}

// TestMarkTypedMatchesMapDiff pins the sentence diff: over random
// pools, assignments and types, markTyped marks exactly the sentences
// the per-sentence map diff marks, when a pool (a) keeps a prefix,
// grows a tail and reassigns clusters, (b) is re-shaped, and (c)
// empties.
func TestMarkTypedMatchesMapDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	cases := []struct {
		name string
		// next draws the old pool and outcome, and the new ones.
		next func(f *diffFixture, n int) (oldPool []types.Mention, old surfaceOutcome, curPool []types.Mention, cur surfaceOutcome)
	}{
		{"kept prefix, appended tail", func(f *diffFixture, n int) ([]types.Mention, surfaceOutcome, []types.Mention, surfaceOutcome) {
			cut := rng.Intn(n + 1)
			oldPool := f.pool(rng, 0, cut)
			cur := slices.Clone(oldPool)
			if len(oldPool) > 0 && rng.Intn(2) == 0 {
				// The last old sentence gains a mention: its run straddles
				// the kept prefix.
				cur = append(cur, f.run(rng, slices.Index(f.keys, oldPool[len(oldPool)-1].Key), 10)...)
			}
			cur = append(cur, f.pool(rng, cut, n)...)
			old := randomOutcome(rng, oldPool)
			return oldPool, old, cur, grownOutcome(rng, &old, len(oldPool), len(cur))
		}},
		{"re-shaped pool", func(f *diffFixture, n int) ([]types.Mention, surfaceOutcome, []types.Mention, surfaceOutcome) {
			var oldPool, cur []types.Mention
			for p := 0; p < n; p++ {
				r := f.run(rng, p, 0)
				oldPool = append(oldPool, r...)
				if rng.Intn(4) == 0 {
					// Redrawn: on the same spans with other local types, or
					// on other spans.
					r = f.run(rng, p, rng.Intn(2))
				}
				cur = append(cur, r...)
			}
			return oldPool, randomOutcome(rng, oldPool), cur, randomOutcome(rng, cur)
		}},
		{"deleted surface", func(f *diffFixture, n int) ([]types.Mention, surfaceOutcome, []types.Mention, surfaceOutcome) {
			oldPool := f.pool(rng, 0, n)
			return oldPool, randomOutcome(rng, oldPool), nil, surfaceOutcome{}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			marked := 0
			for trial := 0; trial < 400; trial++ {
				n := 1 + rng.Intn(12)
				f := newDiffFixture(rng, n)
				oldPool, old, curPool, cur := tc.next(f, n)

				want := map[types.SentenceKey]bool{}
				markTypedDiff(want, typedBySentence(typedOf(&old, oldPool)), typedBySentence(typedOf(&cur, curPool)))
				a := newAmortizer()
				a.markTyped(f.tb, &old, oldPool, &cur, curPool)
				if !reflect.DeepEqual(a.finalDirty, want) {
					t.Fatalf("trial %d: marked %v, map diff marks %v\nold pool %v\nnew pool %v", trial, a.finalDirty, want, oldPool, curPool)
				}
				marked += len(want)
			}
			if marked == 0 {
				t.Fatal("no trial marked a sentence: the case exercises nothing")
			}
		})
	}
}

// TestCarryOverKeepsUntouchedClusters builds a cycle in which a hot
// surface gains one mention and checks that every cluster the mention
// left alone keeps its candidate — the same pointer under an unchanged
// id — without being pooled or classified again, that only the changed
// clusters are decided, and that the result is the scratch
// recomputation's.
func TestCarryOverKeepsUntouchedClusters(t *testing.T) {
	base := trainedGlobalizer(t)
	th := base.Config().ClusterThreshold
	g := base.WithClusterThreshold(th)
	reg := obs.NewRegistry()
	g.SetObserver(reg)
	defer g.SetObserver(nil)

	batches := stream.Batches(smallStream("carry", 120, 97).Sentences, 10)
	for _, b := range batches {
		g.ProcessTagged(b, nil, ModeFull)
	}

	// The hot surface: the unskipped one with the most clusters.
	var hot *surfaceAmort
	for _, s := range sortedSurfaces(g.amort.surfaces) {
		sa := g.amort.surfaces[s]
		if !sa.outcome.skip && (hot == nil || len(sa.outcome.cands) > len(hot.outcome.cands)) {
			hot = sa
		}
	}
	if hot == nil || len(hot.outcome.cands) < 2 {
		t.Fatal("no surface with two clusters: the case needs a hot surface")
	}
	prev, kept, pool := hot.outcome, len(hot.mentions), slices.Clone(hot.pool)

	// One sentence that is the surface alone, with Local NER's entities
	// cleared so that nothing new registers: the cycle dirties the hot
	// surface only.
	sent := &types.Sentence{TweetID: 900001, Tokens: strings.Fields(hot.surface)}
	batch := []*types.Sentence{sent}
	tagged := g.TagBatch(batch)
	forceEntities(tagged[0])
	before := reg.Snapshot().Counters
	g.ProcessTagged(batch, tagged, ModeFull)
	after := reg.Snapshot().Counters

	if st := g.amort.stats; st.Surfaces-st.Reused != 1 {
		t.Fatalf("the cycle recomputed %d surfaces, want the hot one alone", st.Surfaces-st.Reused)
	}
	if len(hot.mentions) != kept+1 || !slices.Equal(hot.mentions[:kept], pool) {
		t.Fatalf("the hot pool went from %d to %d mentions, want one appended", kept, len(hot.mentions))
	}
	oc := hot.outcome
	if oc.skip {
		t.Fatal("the hot surface lost its local support")
	}
	untouched, samePtr := 0, 0
	for cid, ms := range oc.members {
		k := slices.IndexFunc(prev.members, func(pm []int) bool { return slices.Equal(pm, ms) })
		if k < 0 {
			continue
		}
		untouched++
		switch cand, old := oc.cands[cid], prev.cands[k]; {
		case cid == k && cand != old:
			t.Fatalf("untouched cluster %d was rebuilt, not carried", cid)
		case cid == k:
			samePtr++
		case cand == old || cand.ClusterID != cid:
			t.Fatalf("cluster %d renumbered to %d shares or keeps its old candidate", k, cid)
		default:
			moved := *old
			moved.ClusterID = cid
			if !reflect.DeepEqual(*cand, moved) {
				t.Fatalf("renumbered cluster %d is not its old candidate under id %d", k, cid)
			}
		}
	}
	changed := len(oc.cands) - untouched
	if samePtr == 0 || changed == 0 {
		t.Fatalf("%d clusters carried under their id, %d changed: the case needs both", samePtr, changed)
	}
	if got := after["ner_cluster_verdict_cache_hits_total"] - before["ner_cluster_verdict_cache_hits_total"]; got != int64(untouched) {
		t.Fatalf("verdict cache hits rose by %d, %d clusters were untouched", got, untouched)
	}
	if got := after["ner_clusters_classified_total"] - before["ner_clusters_classified_total"]; got != int64(changed) {
		t.Fatalf("clusters classified rose by %d, %d clusters changed", got, changed)
	}

	// The carried candidates are what the scratch path computes.
	ref := base.WithClusterThreshold(th)
	ref.setCaching(false)
	for _, b := range batches {
		ref.ProcessTagged(b, nil, ModeFull)
	}
	ref.ProcessTagged(batch, tagged, ModeFull)
	if !reflect.DeepEqual(g.CandidateBase().All(), ref.CandidateBase().All()) {
		t.Fatal("candidate base differs from the scratch recomputation")
	}
	if !reflect.DeepEqual(g.TweetBase().FinalEntityMap(), ref.TweetBase().FinalEntityMap()) {
		t.Fatal("final entities differ from the scratch recomputation")
	}
}

func sortedSurfaces(m map[string]*surfaceAmort) []string {
	out := make([]string, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestRestoreRefusesNonPartition checks that a warm state whose
// clusters do not partition a surface's pool — an index listed twice,
// an index in no cluster, an empty cluster, a ClusterID other than the
// cluster's position — is refused with an error naming the surface.
func TestRestoreRefusesNonPartition(t *testing.T) {
	base := trainedGlobalizer(t)
	g := base.WithClusterThreshold(base.Config().ClusterThreshold)
	for _, b := range stream.Batches(smallStream("persist-partition", 120, 97).Sentences, 10) {
		g.ProcessTagged(b, nil, ModeFull)
	}
	ws := g.CaptureWarmState()
	if ws.Amort == nil {
		t.Fatal("clean capture lost the amortizer state")
	}
	// The surface: two clusters or more, one of them with two members.
	si := slices.IndexFunc(ws.Amort.Surfaces, func(st SurfaceState) bool {
		return len(st.Cands) >= 2 && slices.ContainsFunc(st.Cands, func(cs CandState) bool { return len(cs.Members) >= 2 })
	})
	if si < 0 {
		t.Fatal("no surface with two clusters, one of two members: the case needs one")
	}
	surface := ws.Amort.Surfaces[si].Surface
	multi := slices.IndexFunc(ws.Amort.Surfaces[si].Cands, func(cs CandState) bool { return len(cs.Members) >= 2 })
	other := 0
	if multi == 0 {
		other = 1
	}

	// corrupt returns a copy of ws whose surface's candidates went
	// through edit; ws itself, which aliases the engine, is untouched.
	corrupt := func(edit func(cands []CandState) []CandState) *WarmState {
		bad := *ws
		amort := *ws.Amort
		amort.Surfaces = slices.Clone(amort.Surfaces)
		cands := slices.Clone(amort.Surfaces[si].Cands)
		for i := range cands {
			cands[i].Members = slices.Clone(cands[i].Members)
		}
		amort.Surfaces[si].Cands = edit(cands)
		bad.Amort = &amort
		return &bad
	}
	for _, tc := range []struct {
		name string
		edit func(cands []CandState) []CandState
	}{
		{"index listed twice", func(cands []CandState) []CandState {
			cands[other].Members = append(cands[other].Members, cands[multi].Members[0])
			return cands
		}},
		{"index omitted", func(cands []CandState) []CandState {
			cands[multi].Members = cands[multi].Members[1:]
			return cands
		}},
		{"empty cluster", func(cands []CandState) []CandState {
			return append(cands, CandState{ClusterID: len(cands)})
		}},
		{"cluster id off its position", func(cands []CandState) []CandState {
			cands[0].ClusterID, cands[1].ClusterID = cands[1].ClusterID, cands[0].ClusterID
			return cands
		}},
	} {
		err := g.RestoreWarmState(corrupt(tc.edit))
		if err == nil {
			t.Fatalf("%s: restore accepted clusters that do not partition the pool of %q", tc.name, surface)
		}
		if !strings.Contains(err.Error(), surface) {
			t.Fatalf("%s: error %q does not name the surface %q", tc.name, err, surface)
		}
	}
	if err := g.RestoreWarmState(ws); err != nil {
		t.Fatalf("the untouched state no longer restores: %v", err)
	}
}
