// Package cluster implements the candidate-cluster generation step of
// Global NER (Section V-C): agglomerative clustering of a surface
// form's local mention embeddings under cosine distance with average
// linkage. The number of clusters is not known in advance — it emerges
// from the distance threshold, which the paper tunes below 1 (the
// orthogonality margin used in triplet training).
//
// Each resulting cluster is an entity candidate: mentions of "us" the
// country and "us" the pronoun share a surface form but land in
// separate clusters, so they receive separate global embeddings and
// separate classifications.
package cluster

import (
	"math"
	"sort"

	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/parallel"
)

// DefaultThreshold is the clustering distance threshold used in the
// production configuration, tuned below the triplet margin of 1.
const DefaultThreshold = 0.75

// Result assigns each input embedding to a cluster.
type Result struct {
	// Assignments maps input index → cluster id in [0, Count).
	Assignments []int
	// Count is the number of clusters found.
	Count int
}

// Members returns, for each cluster, the input indices it contains.
func (r Result) Members() [][]int {
	out := make([][]int, r.Count)
	for i, c := range r.Assignments {
		out[c] = append(out[c], i)
	}
	return out
}

// Linkage selects how inter-cluster distance is derived from member
// distances during agglomerative merging.
type Linkage int

// Linkage criteria. The paper uses average linkage; single and
// complete linkage are provided for the design-choice ablation.
const (
	// AverageLinkage merges on the mean pairwise distance (the
	// paper's choice).
	AverageLinkage Linkage = iota
	// SingleLinkage merges on the minimum pairwise distance
	// (chain-friendly, merges aggressively).
	SingleLinkage
	// CompleteLinkage merges on the maximum pairwise distance
	// (conservative, compact clusters).
	CompleteLinkage
)

// String names the linkage.
func (l Linkage) String() string {
	switch l {
	case SingleLinkage:
		return "single"
	case CompleteLinkage:
		return "complete"
	default:
		return "average"
	}
}

// PairwiseCosineDistances builds the symmetric n×n cosine-distance
// matrix of the embeddings, row-sharding the O(n²) upper triangle over
// the pool. The worker owning row i writes dist[i][j] and dist[j][i]
// for j > i only, so writes are disjoint and each element is computed
// exactly once — the matrix is identical at any worker count. A nil
// pool runs serially.
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

// Agglomerative clusters the embeddings bottom-up with average linkage
// and cosine distance, merging until no pair of clusters is closer
// than threshold. It runs in O(n³) time, which is ample for the
// per-surface-form mention sets the pipeline feeds it.
func Agglomerative(embs [][]float64, threshold float64) Result {
	return AgglomerativeWithLinkage(embs, threshold, AverageLinkage)
}

// AgglomerativeWithLinkage is Agglomerative with an explicit linkage
// criterion.
func AgglomerativeWithLinkage(embs [][]float64, threshold float64, linkage Linkage) Result {
	return AgglomerativePool(embs, threshold, linkage, nil)
}

// AgglomerativePool is AgglomerativeWithLinkage with the O(n²)
// distance-matrix construction sharded over pool: one Cluster call on a
// fresh DistMatrix, so there is one merge loop. It stays serial, so
// merge order — and therefore the clustering — is unchanged at any
// worker count.
func AgglomerativePool(embs [][]float64, threshold float64, linkage Linkage, pool *parallel.Pool) Result {
	m := NewDistMatrix(threshold, linkage)
	m.Grow(embs, pool)
	return m.Cluster()
}

// lanceWilliams is the distance from a third cluster to the merge of
// clusters i and j, given its distances dik and djk to each and their
// sizes. It is the only copy of this arithmetic: both halves of
// DistMatrix.Cluster call it, so they cannot compile to different
// floating-point code (arm64 may fuse x*y+z).
func lanceWilliams(linkage Linkage, dik, djk, si, sj float64) float64 {
	switch linkage {
	case SingleLinkage:
		return min(dik, djk)
	case CompleteLinkage:
		return max(dik, djk)
	default:
		return (si*dik + sj*djk) / (si + sj)
	}
}

// denseIDs turns a merge forest (parent[i] == i at roots) into dense
// cluster ids numbered by first member.
func denseIDs(parent []int) Result {
	find := func(i int) int {
		for parent[i] != i {
			i = parent[i]
		}
		return i
	}
	idOf := make(map[int]int)
	res := Result{Assignments: make([]int, len(parent))}
	for i := range parent {
		root := find(i)
		id, ok := idOf[root]
		if !ok {
			id = res.Count
			idOf[root] = id
			res.Count++
		}
		res.Assignments[i] = id
	}
	return res
}

// mergeStep is one recorded merge: cluster bj joined cluster bi
// (bi < bj) at distance height.
type mergeStep struct {
	bi, bj int
	height float64
}

// DistMatrix is a growable pristine pairwise cosine-distance matrix
// with a fixed threshold and linkage. It amortizes re-clustering of a
// mention pool that only ever gains members across execution cycles,
// twice over. Grow appends rows for the new embeddings — computing only
// new-vs-old and new-vs-new pairs — while the old n×n block is reused
// verbatim. Cluster remembers the merge sequence it ran and, on the
// grown pool, replays that sequence up to the first step an appended
// mention would have taken part in, instead of selecting every merge
// again from singletons. The result is bit-identical to agglomerating
// a freshly built matrix: each pair's distance is the same
// nn.CosineDistance call, and every Lance–Williams update runs on the
// same operands in the same order.
type DistMatrix struct {
	threshold float64
	linkage   Linkage
	n         int
	d         [][]float64
	// rec is the complete merge sequence of the last Cluster call,
	// which covered the first recN embeddings. It is O(n), lives only
	// in memory, and is empty on a new (or restored) matrix, whose
	// first Cluster call therefore selects every merge itself.
	rec  []mergeStep
	recN int
	// replayed is how many of the last Cluster call's merges came from
	// rec.
	replayed int
	// scratch holds Cluster's consumable state, reused across calls so
	// a hot surface re-clustering every cycle stops allocating (and
	// GC-scanning) a fresh n×n matrix each time. live lists the indices
	// of the clusters not yet merged away, ascending; every pass of the
	// merge loop walks it instead of 0..n.
	scratch struct {
		d      []float64 // n×n, row-major
		rowmin []float64
		nnIdx  []int
		live   []int
		size   []int
		parent []int
	}
}

// NewDistMatrix returns an empty growable distance matrix that clusters
// at the given threshold and linkage. Fixing both for the matrix's life
// is what lets a recorded merge sequence be replayed without a key.
func NewDistMatrix(threshold float64, linkage Linkage) *DistMatrix {
	return &DistMatrix{threshold: threshold, linkage: linkage}
}

// Len returns the number of embeddings covered so far.
func (m *DistMatrix) Len() int { return m.n }

// Grow extends the matrix to cover all of embs, whose first Len()
// entries must be the same embeddings previous Grow calls saw. New
// rows shard over pool: the worker owning new index i writes row i and
// column i only, so writes are disjoint and the matrix is identical at
// any worker count. A nil pool runs serially.
func (m *DistMatrix) Grow(embs [][]float64, pool *parallel.Pool) {
	oldN, newN := m.n, len(embs)
	if newN <= oldN {
		return
	}
	for i := 0; i < oldN; i++ {
		m.d[i] = append(m.d[i], make([]float64, newN-oldN)...)
	}
	for i := oldN; i < newN; i++ {
		m.d = append(m.d, make([]float64, newN))
	}
	pool.ForEach(newN-oldN, func(k int) {
		i := oldN + k
		for j := 0; j < i; j++ {
			dd := nn.CosineDistance(embs[i], embs[j])
			m.d[i][j], m.d[j][i] = dd, dd
		}
	})
	m.n = newN
}

// row returns row i of the scratch matrix.
func (m *DistMatrix) row(i int) []float64 { return m.scratch.d[i*m.n : (i+1)*m.n] }

// Replayed returns how many merge steps of the last Cluster call were
// taken from the previous call's recording rather than selected.
func (m *DistMatrix) Replayed() int { return m.replayed }

// Cluster agglomerates a scratch copy of the pristine matrix. The
// merge sequence of a grown pool starts with the previous pool's for as
// long as no pair involving an appended mention is the one to merge, so
// Cluster replays that prefix from the recording — Lance–Williams
// updates only, no selection and no neighbour cache — and runs the
// ordinary loop from where the sequences part, recording as it goes.
func (m *DistMatrix) Cluster() Result {
	n := m.n
	if n == 0 {
		return Result{}
	}
	s := &m.scratch
	if cap(s.d) < n*n {
		// The matrix is overwritten by every call, so regrowing it
		// copies nothing; a quarter of headroom per side keeps a pool
		// growing one mention at a time from reallocating each call
		// while holding the scratch under 1.6 n² floats.
		side := n + n/4
		s.d = make([]float64, 0, side*side)
	}
	if cap(s.live) < n {
		s.rowmin = make([]float64, 0, 2*n)
		s.nnIdx = make([]int, 0, 2*n)
		s.live = make([]int, 0, 2*n)
		s.size = make([]int, 0, 2*n)
		s.parent = make([]int, 0, 2*n)
	}
	s.d = s.d[:n*n]
	s.rowmin = s.rowmin[:n]
	s.nnIdx = s.nnIdx[:n]
	s.live = s.live[:n]
	s.size = s.size[:n]
	s.parent = s.parent[:n]
	for i := 0; i < n; i++ {
		copy(m.row(i), m.d[i])
		s.live[i] = i
		s.size[i] = 1
		s.parent[i] = i
	}
	m.replayed = m.replay()
	m.rec, m.recN = m.rec[:m.replayed], n
	m.mergeLoop()
	return denseIDs(s.parent)
}

// replay applies the recorded merges to the scratch state for as long
// as the from-singletons loop would have selected exactly them, and
// returns how many it applied. Merges among the first recN clusters
// read and write only that block, so until an appended column is part
// of the selected pair the old block evolves as it did last time and
// the recorded pair is again the first strict minimum of it. An
// appended column c takes over at the first step where some live row
// i < c has d[i][c] below the recorded height, or equal to it with
// i < bi: selection scans rows ascending and, within a row, columns
// ascending, and c lies right of every recorded bj, so on equal
// distance (i, c) precedes (bi, bj) exactly when i < bi.
func (m *DistMatrix) replay() int {
	s := &m.scratch
	for t, st := range m.rec {
		for c := m.recN; c < m.n; c++ {
			row := m.row(c) // mirrors column c and is contiguous
			for _, i := range s.live {
				if i >= c {
					break
				}
				if d := row[i]; d < st.height || (d == st.height && i < st.bi) {
					return t
				}
			}
		}
		m.merge(st.bi, st.bj)
	}
	return len(m.rec)
}

// merge joins live cluster bj into bi (bi < bj): the Lance–Williams
// update of row and column bi over the live clusters, then bj leaves
// the live list. The pass has every new d[bi][k] in hand in ascending
// k, so it also refreshes bi's entry in the nearest-neighbour cache
// (first strict minimum right of bi, as a rescan would find it). It
// returns the position bj held in the live list, which after the
// removal is the number of live clusters left of bj.
func (m *DistMatrix) merge(bi, bj int) int {
	s := &m.scratch
	ri, rj := m.row(bi), m.row(bj)
	si, sj := float64(s.size[bi]), float64(s.size[bj])
	best, arg := math.Inf(1), -1
	for _, k := range s.live {
		if k == bi || k == bj {
			continue
		}
		d := lanceWilliams(m.linkage, ri[k], rj[k], si, sj)
		ri[k], s.d[k*m.n+bi] = d, d
		if k > bi && d < best {
			best, arg = d, k
		}
	}
	s.rowmin[bi], s.nnIdx[bi] = best, arg
	s.size[bi] += s.size[bj]
	s.parent[bj] = bi
	pj := sort.SearchInts(s.live, bj)
	s.live = append(s.live[:pj], s.live[pj+1:]...)
	return pj
}

// mergeLoop selects, records and applies merges over the live clusters
// of the scratch state until none is closer than the threshold.
//
// Pair selection replays the textbook "scan every pair, take the first
// strict minimum" order through a per-row nearest-neighbour cache:
// rowmin[i]/nnIdx[i] hold the smallest d[i][j] over live j > i (first j
// on ties), so each merge selects in O(n) instead of O(n²) and only rows
// whose cached neighbour was touched by the merge are rescanned.
// Comparisons are strict < with the same scan order as the naive double
// loop, so the merge sequence — and therefore the clustering — is
// bit-identical to it (the test suite checks this against a reference
// implementation). Merged rows are skipped by not being listed rather
// than by a flag, and the stale-neighbour sweep stops at bj, since a
// row's cached neighbour lies to its right and so no row right of bj can
// point at bi or bj.
func (m *DistMatrix) mergeLoop() {
	s := &m.scratch
	// recompute rescans the row at live position p for its nearest
	// live neighbour to the right.
	recompute := func(p int) {
		i := s.live[p]
		row := m.row(i)
		best, arg := math.Inf(1), -1
		for _, j := range s.live[p+1:] {
			if row[j] < best {
				best, arg = row[j], j
			}
		}
		s.rowmin[i], s.nnIdx[i] = best, arg
	}
	for p := range s.live {
		recompute(p)
	}
	for {
		pi, best := -1, m.threshold
		for p, i := range s.live {
			if s.rowmin[i] < best {
				pi, best = p, s.rowmin[i]
			}
		}
		if pi < 0 {
			return
		}
		bi := s.live[pi]
		bj := s.nnIdx[bi]
		m.rec = append(m.rec, mergeStep{bi, bj, best})
		pj := m.merge(bi, bj)
		// Refresh the nearest-neighbour cache (merge did row bi): rows
		// whose cached neighbour was bi or bj are stale, and other rows
		// left of bi only need to check their updated distance to the
		// merged cluster (ties prefer the smaller column, matching the
		// naive scan order).
		rowBi := m.row(bi) // symmetric: rowBi[r] == d[r][bi]
		for p, r := range s.live[:pj] {
			if p == pi {
				continue
			}
			if s.nnIdx[r] == bi || s.nnIdx[r] == bj {
				recompute(p)
			} else if p < pi {
				if d := rowBi[r]; d < s.rowmin[r] || (d == s.rowmin[r] && bi < s.nnIdx[r]) {
					s.rowmin[r], s.nnIdx[r] = d, bi
				}
			}
		}
	}
}
