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
// cluster ids numbered by first member. A merge hangs bj under bi < bj,
// so every root is its cluster's first member and is numbered before
// any other member reads its id from the root's entry.
func denseIDs(parent []int) Result {
	res := Result{Assignments: make([]int, len(parent))}
	for i := range parent {
		root := i
		for parent[root] != root {
			root = parent[root]
		}
		if root == i {
			res.Assignments[i] = res.Count
			res.Count++
		} else {
			res.Assignments[i] = res.Assignments[root]
		}
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
// gains members across execution cycles, twice over. Grow appends only
// the new mentions' columns, and the old ones are never rebuilt or
// copied. Cluster carries the appended columns forward through the
// merges the last call recorded, up to the first step an appended
// mention would have taken part in, rolls the old block back to that
// step from an undo log, and selects merges again only from there. The
// result is bit-identical to agglomerating a freshly built matrix: each
// pair's distance is the arithmetic of nn.CosineDistance, every
// Lance–Williams update runs on the same operands in the same order,
// and every value a rollback puts back is the one that was there, never
// recomputed (Lance–Williams does not invert in floating point).
type DistMatrix struct {
	threshold float64
	linkage   Linkage
	// n embeddings are covered; the last Cluster call covered the
	// first recN of them.
	n, recN int
	// d is the distance state, each pair stored once: the strict upper
	// triangle packed by column, d(i, j) for i < j at j(j−1)/2 + i, so
	// column j is one contiguous run (col). Among the first recN
	// clusters it holds what the last Cluster call left (a merged-away
	// cluster's entries frozen at its merge); in columns recN..n-1,
	// Grow's distances.
	d []float64
	// norms holds each embedding's L2 norm, computed once by Grow.
	norms []float64
	// live lists the clusters not yet merged away, ascending; every
	// pass of the merge loop walks it instead of 0..n. size and parent
	// are per cluster. colmin/colArg are the merge loop's
	// nearest-neighbour cache: per column j, the smallest d(i, j) over
	// live i < j and the first i holding it.
	live, size, parent []int
	colmin             []float64
	colArg             []int
	// rec is the merge sequence of the last Cluster call. It is O(n),
	// lives only in memory, and is empty on a new (or restored)
	// matrix, whose first Cluster call therefore selects every merge
	// itself.
	rec []mergeStep
	// The undo log has two parts. undo is written at merge time: step
	// t's run, from undoAt[t] to the next step's offset (or the end),
	// holds d(rec[t].bi, k) before the merge over the live clusters k
	// other than bi and bj, ascending. It covers the columns that
	// existed when the step was recorded. folded[c] covers a column
	// appended after that: its t-th entry is d(rec[t].bi, c) before
	// step t, for each step a later Cluster call folded c through.
	undo   []float64
	undoAt []int
	folded [][]float64
	// replayed is how many of the last Cluster call's merges were kept
	// from the recording.
	replayed int
	// first is rollback's scratch: per surviving cluster, the earliest
	// step being undone that it survived.
	first []int
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
// entries must be the same embeddings previous Grow calls saw. It
// appends one column per new embedding, holding its distance to every
// earlier one. Columns shard over pool: each worker fills the columns
// it owns and nothing else, so the matrix is identical at any worker
// count. A nil pool runs serially.
func (m *DistMatrix) Grow(embs [][]float64, pool *parallel.Pool) {
	oldN, newN := m.n, len(embs)
	if newN <= oldN {
		return
	}
	for _, e := range embs[oldN:] {
		m.norms = append(m.norms, nn.L2Norm(e))
	}
	pairs := newN * (newN - 1) / 2
	m.d = slices.Grow(m.d, pairs-len(m.d))[:pairs]
	m.n = newN
	m.folded = append(m.folded, make([][]float64, newN-oldN)...)
	pool.ForEach(newN-oldN, func(k int) {
		j := oldN + k
		col := m.col(j)
		for i := range col {
			col[i] = 1 - nn.CosineSimilarityNorms(embs[i], embs[j], m.norms[i], m.norms[j])
		}
	})
}

// col returns column j of the state: d(i, j) for every i < j.
func (m *DistMatrix) col(j int) []float64 {
	at := j * (j - 1) / 2
	return m.d[at : at+j]
}

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
		m.colmin = append(m.colmin, 0)
		m.colArg = append(m.colArg, 0)
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
// at the first step where some live i < c has d(i, c) below the
// recorded height, or equal to it with i < bi: selection takes the
// smallest (d, i, j) and c lies right of every recorded bj, so on equal
// distance (i, c) precedes (bi, bj) exactly when i < bi. That test
// needs only the first smallest d(i, c) over live i < c, which each
// column keeps as a running minimum, rescanning only when the minimum's
// cluster merges away or grows.
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
			col := m.col(c)
			old := col[st.bi]
			d := lanceWilliams(m.linkage, old, col[st.bj], si, sj)
			m.folded[c] = append(m.folded[c], old)
			col[st.bi] = d
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

// nearestLeft returns the smallest d(i, c) over the clusters i < c
// that are live at the step being folded, and the first i holding it.
func (m *DistMatrix) nearestLeft(c int) (float64, int) {
	col := m.col(c)
	best, arg := math.Inf(1), -1
	for i, size := range m.fold.size[:c] {
		if size > 0 && col[i] < best {
			best, arg = col[i], i
		}
	}
	return best, arg
}

// rollback undoes the recorded merges after the first t, last first,
// returning the first recN clusters to the state they were in before
// step t. Every step restores size, parent and the live list, but only
// a survivor's earliest undone step puts its entries back: the clusters
// live then are a superset of those live at any later step it survived,
// and the values it logged are the ones from before all of them.
func (m *DistMatrix) rollback(t int) {
	m.first = slices.Grow(m.first[:0], m.recN)[:m.recN]
	for s := len(m.rec) - 1; s >= t; s-- {
		m.first[m.rec[s].bi] = s
	}
	for last := len(m.rec) - 1; last >= t; last-- {
		st, at := m.rec[last], m.undoAt[last]
		if m.first[st.bi] == last {
			m.restore(st.bi, last, m.undo[at:])
		}
		m.rec, m.undo, m.undoAt = m.rec[:last], m.undo[:at], m.undoAt[:last]
		m.size[st.bi] -= m.size[st.bj]
		m.parent[st.bj] = st.bj
		m.live = slices.Insert(m.live, sort.SearchInts(m.live, st.bj), st.bj)
	}
	for k, f := range m.folded {
		if len(f) > t {
			m.folded[k] = f[:t]
		}
	}
}

// restore puts back d(bi, k) as it was before step t for every live k
// other than bi: the merge-time run for the columns that existed when
// the step was recorded, then folded[k][t] for every live k appended
// after it, which lies right of all of those.
func (m *DistMatrix) restore(bi, t int, run []float64) {
	col := m.col(bi)
	for _, k := range m.live {
		if k == bi {
			continue
		}
		var d float64
		if len(run) > 0 {
			d, run = run[0], run[1:]
		} else {
			d = m.folded[k][t]
		}
		if k < bi {
			col[k] = d
		} else {
			m.d[k*(k-1)/2+bi] = d
		}
	}
}

// rescan rebuilds the nearest-neighbour cache entry of the column at
// live position p from one pass over that column.
func (m *DistMatrix) rescan(p int) {
	j := m.live[p]
	col := m.col(j)
	best, arg := math.Inf(1), -1
	for _, i := range m.live[:p] {
		if col[i] < best {
			best, arg = col[i], i
		}
	}
	m.colmin[j], m.colArg[j] = best, arg
}

// merge records and applies the merge of the live cluster at position
// pj into bi < it, in one pass over the clusters k still live after it.
// Each k gets the Lance–Williams update of d(bi, k), with the value it
// overwrites logged, and has its cache entry kept exact on the way.
// Left of bi that is bi's own column, whose entry the pass rebuilds
// (first strict minimum, as a rescan would find it). Right of bi it is
// entry (bi, k) of column k, and column k's entry changes only through
// bi or bj: it is rescanned if it named bj, or named bi and the value
// rose; otherwise bi takes it if it is now smaller, or equal with bi
// first.
func (m *DistMatrix) merge(bi, pj int, height float64) {
	bj := m.live[pj]
	m.rec = append(m.rec, mergeStep{bi, bj, height})
	m.undoAt = append(m.undoAt, len(m.undo))
	si, sj := float64(m.size[bi]), float64(m.size[bj])
	m.size[bi] += m.size[bj]
	m.parent[bj] = bi
	m.live = slices.Delete(m.live, pj, pj+1)
	atI, atJ := bi*(bi-1)/2, bj*(bj-1)/2
	best, arg := math.Inf(1), -1
	for p, k := range m.live {
		var ik, jk int // where d(bi, k) and d(bj, k) are stored
		switch {
		case k < bi:
			ik, jk = atI+k, atJ+k
		case k == bi:
			continue
		case k < bj:
			ik, jk = k*(k-1)/2+bi, atJ+k
		default:
			atK := k * (k - 1) / 2
			ik, jk = atK+bi, atK+bj
		}
		old := m.d[ik]
		m.undo = append(m.undo, old)
		d := lanceWilliams(m.linkage, old, m.d[jk], si, sj)
		m.d[ik] = d
		if k < bi {
			if d < best {
				best, arg = d, k
			}
			continue
		}
		switch a := m.colArg[k]; {
		case a == bj || (a == bi && !(d <= m.colmin[k])):
			m.rescan(p)
		case a == bi:
			m.colmin[k] = d
		case d < m.colmin[k] || (d == m.colmin[k] && bi < a):
			m.colmin[k], m.colArg[k] = d, bi
		}
	}
	m.colmin[bi], m.colArg[bi] = best, arg
}

// mergeLoop selects, records and applies merges over the live clusters
// until none is closer than the threshold.
//
// Pair selection replays the textbook "scan every pair, take the first
// strict minimum" order through a per-column nearest-neighbour cache:
// the naive row-major scan takes the smallest (d, i, j) in
// lexicographic order, so selection takes, over the live columns j in
// ascending order, the entry (colmin[j], colArg[j]) that is smaller or
// equal with a smaller row, strictly below the threshold. Each merge
// then selects in O(n) instead of O(n²), and merge keeps the cache
// exact in the pass that updates the distances, so the merge sequence —
// and therefore the clustering — is bit-identical to the naive loop
// (the test suite checks this against a reference implementation).
func (m *DistMatrix) mergeLoop() {
	for p := range m.live {
		m.rescan(p)
	}
	for {
		pj, bi, best := -1, -1, m.threshold
		for p, j := range m.live {
			if d := m.colmin[j]; d < best || (d == best && m.colArg[j] < bi) {
				pj, bi, best = p, m.colArg[j], d
			}
		}
		if pj < 0 {
			return
		}
		m.merge(bi, pj, best)
	}
}
