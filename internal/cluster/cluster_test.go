package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/parallel"
)

func TestAgglomerativeEmpty(t *testing.T) {
	res := Agglomerative(nil, 0.5)
	if res.Count != 0 || len(res.Assignments) != 0 {
		t.Fatalf("empty result = %+v", res)
	}
}

func TestAgglomerativeSingleton(t *testing.T) {
	res := Agglomerative([][]float64{{1, 0}}, 0.5)
	if res.Count != 1 || res.Assignments[0] != 0 {
		t.Fatalf("singleton result = %+v", res)
	}
}

func TestAgglomerativeTwoWellSeparatedGroups(t *testing.T) {
	embs := [][]float64{
		{1, 0.01}, {1, -0.01}, {0.99, 0.02}, // group A along x
		{0.01, 1}, {-0.01, 1}, {0.02, 0.99}, // group B along y
	}
	res := Agglomerative(embs, 0.5)
	if res.Count != 2 {
		t.Fatalf("expected 2 clusters, got %d (%v)", res.Count, res.Assignments)
	}
	if res.Assignments[0] != res.Assignments[1] || res.Assignments[0] != res.Assignments[2] {
		t.Fatalf("group A split: %v", res.Assignments)
	}
	if res.Assignments[3] != res.Assignments[4] || res.Assignments[3] != res.Assignments[5] {
		t.Fatalf("group B split: %v", res.Assignments)
	}
	if res.Assignments[0] == res.Assignments[3] {
		t.Fatalf("groups merged: %v", res.Assignments)
	}
}

func TestAgglomerativeThresholdControlsMerging(t *testing.T) {
	// Two orthogonal points: distance 1.
	embs := [][]float64{{1, 0}, {0, 1}}
	if res := Agglomerative(embs, 0.99); res.Count != 2 {
		t.Fatalf("threshold below distance should keep separate: %d", res.Count)
	}
	if res := Agglomerative(embs, 1.01); res.Count != 1 {
		t.Fatalf("threshold above distance should merge: %d", res.Count)
	}
}

func TestAgglomerativeIdenticalPointsOneCluster(t *testing.T) {
	embs := [][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}
	res := Agglomerative(embs, 0.1)
	if res.Count != 1 {
		t.Fatalf("identical points must form one cluster, got %d", res.Count)
	}
}

func TestMembersPartition(t *testing.T) {
	embs := [][]float64{{1, 0}, {0, 1}, {1, 0.01}}
	res := Agglomerative(embs, 0.5)
	members := res.Members()
	seen := map[int]bool{}
	total := 0
	for _, m := range members {
		for _, idx := range m {
			if seen[idx] {
				t.Fatal("index appears in two clusters")
			}
			seen[idx] = true
			total++
		}
	}
	if total != len(embs) {
		t.Fatalf("partition covers %d of %d", total, len(embs))
	}
}

// Members slices every cluster out of one allocation: each cluster's
// indices are ascending, and an append to one cluster's slice must not
// write into the next cluster's.
func TestMembersCappedPerCluster(t *testing.T) {
	members := Result{Assignments: []int{1, 0, 1, 0, 2}, Count: 3}.Members()
	want := [][]int{{1, 3}, {0, 2}, {4}}
	if !reflect.DeepEqual(members, want) {
		t.Fatalf("Members() = %v; want %v", members, want)
	}
	_ = append(members[0], 99)
	_ = append(members[1], 99)
	if !reflect.DeepEqual(members, want) {
		t.Fatalf("append to a cluster changed another: %v; want %v", members, want)
	}
}

// Property: assignments are a valid partition with dense cluster ids,
// for random unit vectors and random thresholds.
func TestAgglomerativePartitionProperty(t *testing.T) {
	f := func(seed int64, nRaw, thRaw uint8) bool {
		rng := nn.NewRNG(seed)
		n := 1 + int(nRaw)%12
		th := 0.1 + float64(thRaw%10)/10
		embs := make([][]float64, n)
		for i := range embs {
			v := make([]float64, 4)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			embs[i] = nn.Normalize(v)
		}
		res := Agglomerative(embs, th)
		if len(res.Assignments) != n || res.Count < 1 || res.Count > n {
			return false
		}
		used := make([]bool, res.Count)
		for _, c := range res.Assignments {
			if c < 0 || c >= res.Count {
				return false
			}
			used[c] = true
		}
		for _, u := range used {
			if !u {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkageStrings(t *testing.T) {
	if AverageLinkage.String() != "average" || SingleLinkage.String() != "single" || CompleteLinkage.String() != "complete" {
		t.Fatal("linkage names wrong")
	}
}

func TestLinkageBehaviourOnChain(t *testing.T) {
	// A chain of points, each close to its neighbour but the endpoints
	// far apart: single linkage merges the whole chain; complete
	// linkage keeps the endpoints separate at the same threshold.
	chain := [][]float64{
		{1, 0},
		{0.92, 0.39}, // ~23° from first
		{0.71, 0.71}, // ~45°
		{0.39, 0.92}, // ~67°
		{0, 1},       // 90° from first
	}
	th := 0.12 // neighbour cosine distance ≈ 0.08, endpoint ≈ 1.0
	single := AgglomerativeWithLinkage(chain, th, SingleLinkage)
	if single.Count != 1 {
		t.Fatalf("single linkage should chain-merge: %d clusters", single.Count)
	}
	complete := AgglomerativeWithLinkage(chain, th, CompleteLinkage)
	if complete.Count < 2 {
		t.Fatalf("complete linkage should keep endpoints apart: %d clusters", complete.Count)
	}
	avg := AgglomerativeWithLinkage(chain, th, AverageLinkage)
	if avg.Count < complete.Count && avg.Count > single.Count {
		// average sits between the two extremes (non-strict).
		t.Logf("average linkage clusters: %d", avg.Count)
	}
}

func TestAgglomerativeDefaultIsAverage(t *testing.T) {
	embs := [][]float64{{1, 0}, {0.9, 0.44}, {0, 1}}
	a := Agglomerative(embs, 0.5)
	b := AgglomerativeWithLinkage(embs, 0.5, AverageLinkage)
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("Agglomerative must default to average linkage")
		}
	}
}

// TestDistMatrixGrowMatchesScratch is the incremental-matrix contract:
// growing the matrix in arbitrary increments, with Grow sharded over
// the pool, and clustering after each must give the partition and the
// merge sequence of the naive reference on a freshly built matrix, at
// every prefix and at any worker count.
func TestDistMatrixGrowMatchesScratch(t *testing.T) {
	rng := nn.NewRNG(17)
	embs := make([][]float64, 40)
	for i := range embs {
		v := make([]float64, 8)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		embs[i] = nn.Normalize(v)
	}
	for _, workers := range []int{1, 4} {
		for _, lk := range allLinkages {
			checkGrowReplay(t, embs, []int{1, 5, 6, 20, 21, 40}, 0.75, lk, parallel.New(workers))
		}
	}
}

// TestDistMatrixClusterIsFixedPoint checks that the state a Cluster call
// ends in is the one the next call starts from: clustering again
// without growing keeps the whole recording, returns the same result
// and leaves the state and the recording as they were.
func TestDistMatrixClusterIsFixedPoint(t *testing.T) {
	embs := [][]float64{{1, 0}, {0.9, 0.44}, {0, 1}, {0.5, 0.87}}
	for _, lk := range allLinkages {
		m := NewDistMatrix(0.75, lk)
		m.Grow(embs, nil)
		first := m.Cluster()
		rec, state := slices.Clone(m.rec), slices.Clone(m.d)
		if len(rec) == 0 {
			t.Fatalf("%s: nothing merged; the test needs a recording", lk)
		}
		if got := m.Cluster(); !reflect.DeepEqual(got, first) {
			t.Fatalf("%s: repeat Cluster = %+v, first call %+v", lk, got, first)
		}
		if !slices.Equal(m.rec, rec) || m.Replayed() != len(rec) {
			t.Fatalf("%s: repeat Cluster kept %d of %v and holds %v", lk, m.Replayed(), rec, m.rec)
		}
		if !slices.Equal(m.d, state) {
			t.Fatalf("%s: repeat Cluster changed the state", lk)
		}
		if want := AgglomerativeWithLinkage(embs, 0.75, lk); !reflect.DeepEqual(first, want) {
			t.Fatalf("%s: Cluster = %+v, scratch clustering %+v", lk, first, want)
		}
	}
}

// TestDistMatrixGrowNoop pins that shrinking or same-size inputs leave
// the matrix untouched.
func TestDistMatrixGrowNoop(t *testing.T) {
	embs := [][]float64{{1, 0}, {0, 1}}
	m := NewDistMatrix(0.75, AverageLinkage)
	m.Grow(embs, nil)
	m.Grow(embs, nil)
	m.Grow(embs[:1], nil)
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	if m.Cluster().Count != 2 {
		t.Fatal("orthogonal pair must stay separate")
	}
	if NewDistMatrix(0.75, AverageLinkage).Cluster().Count != 0 {
		t.Fatal("empty matrix must yield empty result")
	}
}

// PairwiseCosineDistances builds the symmetric n×n cosine-distance
// matrix the naive reference consumes, each pair from its own
// nn.CosineDistance call, so the oracle shares neither DistMatrix's
// packed layout nor its norm cache. It row-shards the upper triangle
// over the pool: the worker owning row i writes dist[i][j] and
// dist[j][i] for j > i only. A nil pool runs serially.
func PairwiseCosineDistances(embs [][]float64, pool *parallel.Pool) [][]float64 {
	n := len(embs)
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	pool.ForEach(n, func(i int) {
		for j := i + 1; j < n; j++ {
			d := nn.CosineDistance(embs[i], embs[j])
			dist[i][j], dist[j][i] = d, d
		}
	})
	return dist
}

// naiveMerges is the reference merge loop: a full O(n²) pair scan per
// merge over a distance matrix it consumes, exactly the implementation
// the nearest-neighbour cache of DistMatrix's merge loop replaced. Kept
// here to pin the cache to the reference merge order bit for bit; it
// returns its merge sequence too, so a test can compare merge order and
// heights, not only the partition (which often survives a wrong order
// among tied pairs). Point i starts as a cluster of size sizes[i]; with
// every size 1 it is the plain from-singletons loop.
func naiveMerges(dist [][]float64, sizes []int, threshold float64, linkage Linkage) (Result, []mergeStep) {
	n := len(dist)
	if n == 0 {
		return Result{}, nil
	}
	var steps []mergeStep
	active := make([]bool, n)
	size := slices.Clone(sizes)
	parent := make([]int, n)
	for i := range active {
		active[i] = true
		parent[i] = i
	}
	for {
		bi, bj, best := -1, -1, threshold
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if dist[i][j] < best {
					bi, bj, best = i, j, dist[i][j]
				}
			}
		}
		if bi < 0 {
			break
		}
		steps = append(steps, mergeStep{bi, bj, best})
		si, sj := float64(size[bi]), float64(size[bj])
		for k := 0; k < n; k++ {
			if !active[k] || k == bi || k == bj {
				continue
			}
			var d float64
			switch linkage {
			case SingleLinkage:
				d = min(dist[bi][k], dist[bj][k])
			case CompleteLinkage:
				d = max(dist[bi][k], dist[bj][k])
			default:
				d = (si*dist[bi][k] + sj*dist[bj][k]) / (si + sj)
			}
			dist[bi][k], dist[k][bi] = d, d
		}
		size[bi] += size[bj]
		active[bj] = false
		parent[bj] = bi
	}
	find := func(i int) int {
		for parent[i] != i {
			i = parent[i]
		}
		return i
	}
	idOf := make(map[int]int)
	res := Result{Assignments: make([]int, n)}
	for i := 0; i < n; i++ {
		root := find(i)
		id, ok := idOf[root]
		if !ok {
			id = res.Count
			idOf[root] = id
			res.Count++
		}
		res.Assignments[i] = id
	}
	return res, steps
}

// distinctRows splits embs into its distinct embeddings by bits, in
// order of first occurrence, each one's multiplicity, and each
// mention's row, keyed independently of DistMatrix's hash index.
func distinctRows(embs [][]float64) (rows [][]float64, weight, rowOf []int) {
	at := map[string]int{}
	for _, e := range embs {
		key := fmt.Sprint(len(e))
		for _, x := range e {
			key += fmt.Sprintf(",%x", math.Float64bits(x))
		}
		r, ok := at[key]
		if !ok {
			r = len(rows)
			at[key] = r
			rows = append(rows, e)
			weight = append(weight, 0)
		}
		weight[r]++
		rowOf = append(rowOf, r)
	}
	return rows, weight, rowOf
}

// naiveWeighted is the reference for clustering embs: the naive loop
// over embs' distinct embeddings, each starting at its multiplicity,
// with the partition expanded back to the mentions.
func naiveWeighted(embs [][]float64, threshold float64, linkage Linkage) (Result, []mergeStep) {
	rows, weight, rowOf := distinctRows(embs)
	res, steps := naiveMerges(PairwiseCosineDistances(rows, nil), weight, threshold, linkage)
	if len(embs) > 0 {
		ids := res.Assignments
		res.Assignments = make([]int, len(embs))
		for i, r := range rowOf {
			res.Assignments[i] = ids[r]
		}
	}
	return res, steps
}

// TestAgglomerateMatchesNaiveReference pins the public clustering
// function — a fresh DistMatrix and its nearest-neighbour-cached merge
// loop — to the naive full-scan reference across linkages, thresholds
// and sizes, including distance matrices with exact ties, where only
// identical tie-breaking keeps the merge order identical.
func TestAgglomerateMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{1, 2, 3, 7, 20, 45} {
		for _, quantized := range []bool{false, true} {
			// Quantized distances produce frequent exact ties.
			embs := make([][]float64, n)
			for i := range embs {
				v := make([]float64, 8)
				for k := range v {
					v[k] = rng.Float64()
					if quantized {
						v[k] = float64(int(v[k]*2)) / 2
					}
				}
				embs[i] = v
			}
			for _, linkage := range allLinkages {
				for _, th := range []float64{0.05, 0.3, 0.75, 1.5} {
					got := AgglomerativeWithLinkage(embs, th, linkage)
					want, _ := naiveWeighted(embs, th, linkage)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d quantized=%v linkage=%s th=%.2f: cached merge loop diverged from naive reference\ngot  %+v\nwant %+v",
							n, quantized, linkage, th, got, want)
					}
				}
			}
		}
	}
}
