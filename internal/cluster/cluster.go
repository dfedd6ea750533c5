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
	"slices"
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
// sizes. It is the only copy of this arithmetic: the merge and the fold
// of DistMatrix.Cluster both call it, so they cannot compile to
// different floating-point code (arm64 may fuse x*y+z).
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

// DistMatrix is a growable pairwise cosine-distance matrix with a fixed
// threshold and linkage that holds the state its last Cluster call
// ended in. It amortizes re-clustering of a mention pool that only ever
// gains members across execution cycles, twice over. Grow writes only
// new-vs-old and new-vs-new distances, into the new rows and columns,
// and the old block is never rebuilt or copied. Cluster carries the
// appended columns forward through the merges the last call recorded,
// up to the first step an appended mention would have taken part in,
// rolls the old block back to that step from an undo log, and selects
// merges again only from there. The result is bit-identical to
// agglomerating a freshly built matrix: each pair's distance is the
// same nn.CosineDistance call, every Lance–Williams update runs on the
// same operands in the same order, and every value a rollback puts back
// is the one that was there, never recomputed (Lance–Williams does not
// invert in floating point).
type DistMatrix struct {
	threshold float64
	linkage   Linkage
	// n embeddings are covered; the last Cluster call covered the
	// first recN of them.
	n, recN int
	// d is the distance state, row-major with row stride ≥ n: among
	// the first recN clusters, as the last Cluster call left it (a
	// merged-away cluster's row and column frozen at its merge); in
	// rows and columns recN..n-1, Grow's distances.
	d      []float64
	stride int
	// live lists the clusters not yet merged away, ascending; every
	// pass of the merge loop walks it instead of 0..n. size and parent
	// are per cluster, rowmin/nnIdx the merge loop's
	// nearest-neighbour cache.
	live, size, parent []int
	rowmin             []float64
	nnIdx              []int
	// rec is the merge sequence of the last Cluster call. It is O(n),
	// lives only in memory, and is empty on a new (or restored)
	// matrix, whose first Cluster call therefore selects every merge
	// itself.
	rec []mergeStep
	// The undo log has two parts. undo is written at merge time: step
	// t's run, from undoAt[t] to the next step's offset (or the end),
	// holds row rec[t].bi before the merge over the live clusters other
	// than bi and bj, ascending. It covers the columns that existed
	// when the step was recorded. folded[c] covers a column appended
	// after that: its t-th entry is (rec[t].bi, c) before step t, for
	// each step a later Cluster call folded c through.
	undo   []float64
	undoAt []int
	folded [][]float64
	// replayed is how many of the last Cluster call's merges were kept
	// from the recording.
	replayed int
	// fold is foldAppended's scratch, reused across calls: each
	// cluster's size as of the step being folded (0 once merged away),
	// and per appended column its nearest live cluster to the left and
	// that distance.
	fold struct {
		size []int
		min  []float64
		arg  []int
	}
}

// NewDistMatrix returns an empty growable distance matrix that clusters
// at the given threshold and linkage. Fixing both for the matrix's life
// is what lets a recorded merge sequence be kept without a key.
func NewDistMatrix(threshold float64, linkage Linkage) *DistMatrix {
	return &DistMatrix{threshold: threshold, linkage: linkage}
}

// Len returns the number of embeddings covered so far.
func (m *DistMatrix) Len() int { return m.n }

// Grow extends the matrix to cover all of embs, whose first Len()
// entries must be the same embeddings previous Grow calls saw. New
// rows shard over pool: the worker owning new index i writes row i and
// column i left of the diagonal only, so writes are disjoint and the
// matrix is identical at any worker count. A nil pool runs serially.
func (m *DistMatrix) Grow(embs [][]float64, pool *parallel.Pool) {
	oldN, newN := m.n, len(embs)
	if newN <= oldN {
		return
	}
	if newN > m.stride {
		// A quarter of headroom per side keeps a pool growing one
		// mention at a time from reallocating on every call while
		// holding the state at most 1.5625 n² floats.
		stride := newN + newN/4
		d := make([]float64, stride*stride)
		for i := 0; i < oldN; i++ {
			copy(d[i*stride:i*stride+oldN], m.row(i))
		}
		m.d, m.stride = d, stride
	}
	m.n = newN
	m.folded = append(m.folded, make([][]float64, newN-oldN)...)
	pool.ForEach(newN-oldN, func(k int) {
		i := oldN + k
		row := m.row(i)
		for j := 0; j < i; j++ {
			dd := nn.CosineDistance(embs[i], embs[j])
			row[j], m.d[j*m.stride+i] = dd, dd
		}
	})
}

// row returns row i of the state.
func (m *DistMatrix) row(i int) []float64 { return m.d[i*m.stride : i*m.stride+m.n] }

// Replayed returns how many merge steps of the last Cluster call were
// kept from the previous call's recording rather than selected.
func (m *DistMatrix) Replayed() int { return m.replayed }

// Cluster agglomerates the grown pool. The merge sequence of a grown
// pool starts with the previous pool's for as long as no pair involving
// an appended mention is the one to merge, so Cluster keeps that prefix
// of the recording — it folds the appended columns through it, rolls
// the steps after it back, and adds the appended mentions as singletons
// — and runs the ordinary loop from where the sequences part,
// recording as it goes.
func (m *DistMatrix) Cluster() Result {
	if m.n == 0 {
		return Result{}
	}
	t := m.foldAppended()
	m.rollback(t)
	for c := m.recN; c < m.n; c++ {
		m.live = append(m.live, c)
		m.size = append(m.size, 1)
		m.parent = append(m.parent, c)
		m.rowmin = append(m.rowmin, 0)
		m.nnIdx = append(m.nnIdx, 0)
	}
	m.replayed, m.recN = t, m.n
	m.mergeLoop()
	return denseIDs(m.parent)
}

// foldAppended carries the appended columns recN..n-1 through the
// recorded merges for as long as the from-singletons loop would have
// selected exactly them, and returns how many it carried them through.
// Step t applies the Lance–Williams update to entry (bi, c) of every
// appended column c, as the merge would have, and logs the old value in
// folded[c]. Merges among the first recN clusters read and write only
// that block, so until an appended column is part of the selected pair
// the old block evolves as it did last time and the recorded pair is
// again the first strict minimum of it. An appended column c takes over
// at the first step where some live row i < c has d[i][c] below the
// recorded height, or equal to it with i < bi: selection scans rows
// ascending and, within a row, columns ascending, and c lies right of
// every recorded bj, so on equal distance (i, c) precedes (bi, bj)
// exactly when i < bi. That test needs only the first smallest d[i][c]
// over live i < c, which each column keeps as a running minimum,
// rescanning its row only when the minimum's row merges away or grows.
func (m *DistMatrix) foldAppended() int {
	if m.recN == m.n || len(m.rec) == 0 {
		return len(m.rec)
	}
	f := &m.fold
	f.size = f.size[:0]
	for i := 0; i < m.n; i++ {
		f.size = append(f.size, 1)
	}
	f.min, f.arg = f.min[:0], f.arg[:0]
	for c := m.recN; c < m.n; c++ {
		d, i := m.nearestLeft(c)
		f.min, f.arg = append(f.min, d), append(f.arg, i)
	}
	for t, st := range m.rec {
		for k, d := range f.min {
			if d < st.height || (d == st.height && f.arg[k] < st.bi) {
				return t
			}
		}
		si, sj := float64(f.size[st.bi]), float64(f.size[st.bj])
		f.size[st.bi] += f.size[st.bj]
		f.size[st.bj] = 0
		for k := range f.min {
			c := m.recN + k
			row := m.row(c) // mirrors column c and is contiguous
			old := row[st.bi]
			d := lanceWilliams(m.linkage, old, row[st.bj], si, sj)
			m.folded[c] = append(m.folded[c], old)
			row[st.bi], m.d[st.bi*m.stride+c] = d, d
			switch arg := f.arg[k]; {
			case arg == st.bj || (arg == st.bi && !(d <= f.min[k])):
				f.min[k], f.arg[k] = m.nearestLeft(c)
			case arg == st.bi:
				f.min[k] = d
			case d < f.min[k] || (d == f.min[k] && st.bi < arg):
				f.min[k], f.arg[k] = d, st.bi
			}
		}
	}
	return len(m.rec)
}

// nearestLeft returns the smallest d[i][c] over the clusters i < c
// that are live at the step being folded, and the first i holding it.
func (m *DistMatrix) nearestLeft(c int) (float64, int) {
	row := m.row(c)
	best, arg := math.Inf(1), -1
	for i, size := range m.fold.size[:c] {
		if size > 0 && row[i] < best {
			best, arg = row[i], i
		}
	}
	return best, arg
}

// rollback undoes the recorded merges after the first t, last first,
// returning the first recN clusters to the state they were in before
// step t. Each step puts back row and column bi from the undo log —
// the merge-time run for the columns that existed when the step was
// recorded, then folded[k] for every live k appended after it, which
// lies right of all of those — and returns bj to the live list.
func (m *DistMatrix) rollback(t int) {
	for last := len(m.rec) - 1; last >= t; last-- {
		st, at := m.rec[last], m.undoAt[last]
		logged := m.undo[at:]
		ri := m.row(st.bi)
		for _, k := range m.live {
			if k == st.bi {
				continue
			}
			var d float64
			if len(logged) > 0 {
				d, logged = logged[0], logged[1:]
			} else {
				d, m.folded[k] = m.folded[k][last], m.folded[k][:last]
			}
			ri[k], m.d[k*m.stride+st.bi] = d, d
		}
		m.rec, m.undo, m.undoAt = m.rec[:last], m.undo[:at], m.undoAt[:last]
		m.size[st.bi] -= m.size[st.bj]
		m.parent[st.bj] = st.bj
		m.live = slices.Insert(m.live, sort.SearchInts(m.live, st.bj), st.bj)
	}
}

// merge records and applies the merge of live cluster bj into bi
// (bi < bj): the Lance–Williams update of row and column bi over the
// live clusters, logging the values it overwrites, then bj leaves the
// live list. The pass has every new d[bi][k] in hand in ascending k, so
// it also refreshes bi's entry in the nearest-neighbour cache (first
// strict minimum right of bi, as a rescan would find it). It returns
// the position bj held in the live list, which after the removal is the
// number of live clusters left of bj.
func (m *DistMatrix) merge(bi, bj int, height float64) int {
	m.rec = append(m.rec, mergeStep{bi, bj, height})
	m.undoAt = append(m.undoAt, len(m.undo))
	ri, rj := m.row(bi), m.row(bj)
	si, sj := float64(m.size[bi]), float64(m.size[bj])
	best, arg := math.Inf(1), -1
	for _, k := range m.live {
		if k == bi || k == bj {
			continue
		}
		m.undo = append(m.undo, ri[k])
		d := lanceWilliams(m.linkage, ri[k], rj[k], si, sj)
		ri[k], m.d[k*m.stride+bi] = d, d
		if k > bi && d < best {
			best, arg = d, k
		}
	}
	m.rowmin[bi], m.nnIdx[bi] = best, arg
	m.size[bi] += m.size[bj]
	m.parent[bj] = bi
	pj := sort.SearchInts(m.live, bj)
	m.live = append(m.live[:pj], m.live[pj+1:]...)
	return pj
}

// mergeLoop selects, records and applies merges over the live clusters
// until none is closer than the threshold.
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
	// recompute rescans the row at live position p for its nearest
	// live neighbour to the right.
	recompute := func(p int) {
		i := m.live[p]
		row := m.row(i)
		best, arg := math.Inf(1), -1
		for _, j := range m.live[p+1:] {
			if row[j] < best {
				best, arg = row[j], j
			}
		}
		m.rowmin[i], m.nnIdx[i] = best, arg
	}
	for p := range m.live {
		recompute(p)
	}
	for {
		pi, best := -1, m.threshold
		for p, i := range m.live {
			if m.rowmin[i] < best {
				pi, best = p, m.rowmin[i]
			}
		}
		if pi < 0 {
			return
		}
		bi := m.live[pi]
		bj := m.nnIdx[bi]
		pj := m.merge(bi, bj, best)
		// Refresh the nearest-neighbour cache (merge did row bi): rows
		// whose cached neighbour was bi or bj are stale, and other rows
		// left of bi only need to check their updated distance to the
		// merged cluster (ties prefer the smaller column, matching the
		// naive scan order).
		rowBi := m.row(bi) // symmetric: rowBi[r] == d[r][bi]
		for p, r := range m.live[:pj] {
			if p == pi {
				continue
			}
			if m.nnIdx[r] == bi || m.nnIdx[r] == bj {
				recompute(p)
			} else if p < pi {
				if d := rowBi[r]; d < m.rowmin[r] || (d == m.rowmin[r] && bi < m.nnIdx[r]) {
					m.rowmin[r], m.nnIdx[r] = d, bi
				}
			}
		}
	}
}
