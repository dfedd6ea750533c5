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
	"sync"

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

// Members returns, for each cluster, the input indices it contains,
// ascending. Every cluster's indices are sliced out of one allocation,
// each capped at its own length so an append to one cluster's slice
// copies rather than overwriting the next cluster's.
func (r Result) Members() [][]int {
	out := make([][]int, r.Count)
	flat := make([]int, len(r.Assignments))
	end := make([]int, r.Count+1)
	for _, c := range r.Assignments {
		end[c+1]++
	}
	for c := range out {
		end[c+1] += end[c]
		out[c] = flat[end[c]:end[c]:end[c+1]]
	}
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
// than threshold. A per-column nearest-neighbour cache makes each merge
// O(n) plus one pass over every column whose cached neighbour it
// removed or moved away: O(n²) on the pools the pipeline feeds it,
// O(n³) only if every merge invalidated most columns.
func Agglomerative(embs [][]float64, threshold float64) Result {
	return AgglomerativeWithLinkage(embs, threshold, AverageLinkage)
}

// AgglomerativeWithLinkage is Agglomerative with an explicit linkage
// criterion: one Cluster call on a fresh DistMatrix, so there is one
// merge loop.
func AgglomerativeWithLinkage(embs [][]float64, threshold float64, linkage Linkage) Result {
	m := NewDistMatrix(threshold, linkage)
	m.Grow(embs, nil)
	return m.Cluster()
}

// lanceWilliams is the distance from a third cluster to the merge of
// clusters i and j, given its distances dik and djk to each and their
// sizes. It is the only copy of this arithmetic: the fold, the kept
// steps and the merges of DistMatrix.Cluster all call it, so they
// cannot compile to different floating-point code (arm64 may fuse
// x*y+z).
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

// denseIDs turns a merge forest over rows (parent[i] == i at roots)
// into dense cluster ids numbered by first member, and gives each
// mention its row's id. A merge hangs bj under bi < bj, so every root is
// its cluster's first member and is numbered before any other member
// reads its id from the root's entry. Rows are numbered by their first
// mention, so the ids are the ones numbering by first mention gives.
// Row r's id is written at its first mention, which every other
// mention of the row follows.
func denseIDs(parent []int, rows []rowInfo, rowOf []int) Result {
	res := Result{Assignments: make([]int, len(rowOf))}
	a := res.Assignments
	for r := range parent {
		root := r
		for parent[root] != root {
			root = parent[root]
		}
		if root == r {
			a[rows[r].first] = res.Count
			res.Count++
		} else {
			a[rows[r].first] = a[rows[root].first]
		}
	}
	for i, r := range rowOf {
		a[i] = a[rows[r].first]
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
// gains members across execution cycles. It has one row per distinct
// embedding, weighted by how many mentions share it: average linkage
// over a multiset is average linkage over its distinct points, each
// starting at its multiplicity, so a repeated mention adds no column
// and no merge. Grow appends only the new embeddings' columns; the old
// ones are never rebuilt or copied. Cluster keeps every recorded merge
// the new mentions leave alone and selects
// only the ones they change: a cluster stays clean while its merge
// history is the recording's, and the distance between two clean
// clusters is then the recorded one bit for bit, so the state already
// holds it or the log does. The result is bit-identical to
// agglomerating a freshly built matrix: each pair's distance is the
// arithmetic of nn.CosineDistance, every Lance–Williams update runs on
// the same operands in the same order, and every value read back from
// the log is the one that was there, never recomputed (Lance–Williams
// does not invert in floating point).
type DistMatrix struct {
	threshold float64
	linkage   Linkage
	// n rows are covered; the last Cluster call covered the first recN
	// of them.
	n, recN int
	// rowOf maps each mention covered to its row, and rows describes
	// each row. index finds a row by its embedding's hash: an
	// open-addressed table at most half full, probed linearly from the
	// hash's low bits, whose slots hold a row + 1, or 0 when empty.
	rowOf, index []int
	rows         []rowInfo
	// bumped lists the rows below recN whose weight Grow raised since
	// the last Cluster call, a row once per raise.
	bumped []int
	// d is the distance state, each pair stored once: the strict upper
	// triangle packed by column, d(i, j) for i < j at j(j−1)/2 + i, so
	// column j is one contiguous run (col). Among the first recN
	// clusters it holds what the last Cluster call left (a merged-away
	// cluster's entries frozen at its merge); in columns recN..n-1,
	// Grow's distances.
	d []float64
	// norms holds each row's L2 norm, computed once by Grow.
	norms []float64
	// live lists the clusters not yet merged away, ascending; size and
	// parent are per cluster.
	live, size, parent []int
	// rec is the merge sequence of the last Cluster call. It is O(n),
	// lives only in memory, and is empty on a new (or restored)
	// matrix, whose first Cluster call therefore selects every merge
	// itself.
	rec []mergeStep
	// The log has two parts. undo is written with the step: step t's
	// run, from undoAt[t] to the next step's offset (or the end), holds
	// d(rec[t].bi, k) before the merge over the live clusters k other
	// than bi and bj, ascending. It covers the columns that existed
	// when the step was recorded. folded[c] covers a column appended
	// after that: its t-th entry is d(rec[t].bi, c) before step t, for
	// each step a later Cluster call folded c through.
	undo   []float64
	undoAt []int
	folded [][]float64
	// replayed is how many leading merges of the last Cluster call were
	// the recording's, kept how many of all its merges were.
	replayed, kept int
}

// rowInfo describes a row: the mention whose embedding it holds (its
// first occurrence), how many mentions share that embedding, and the
// hash of its bits.
type rowInfo struct {
	first, weight int
	hash          uint64
}

// NewDistMatrix returns an empty growable distance matrix that clusters
// at the given threshold and linkage. Fixing both for the matrix's life
// is what lets a recorded merge sequence be kept without a key.
func NewDistMatrix(threshold float64, linkage Linkage) *DistMatrix {
	return &DistMatrix{threshold: threshold, linkage: linkage}
}

// Len returns the number of embeddings covered so far.
func (m *DistMatrix) Len() int { return len(m.rowOf) }

// Rows returns the number of distinct embeddings covered so far: the
// rows Cluster merges.
func (m *DistMatrix) Rows() int { return m.n }

// Grow extends the matrix to cover all of embs, whose first Len()
// entries must be the same embeddings previous Grow calls saw. A new
// embedding bit-equal to a covered one raises that row's weight; any
// other appends a row, whose column holds its distance to every earlier
// row. Columns shard over pool: each worker fills the columns it owns
// and nothing else, so the matrix is identical at any worker count. A
// nil pool runs serially.
func (m *DistMatrix) Grow(embs [][]float64, pool *parallel.Pool) {
	k := len(embs) - len(m.rowOf)
	if k <= 0 {
		return
	}
	m.rowOf = slices.Grow(m.rowOf, k)
	m.rows, m.norms = slices.Grow(m.rows, k), slices.Grow(m.norms, k)
	oldN := m.n
	for i := len(m.rowOf); i < len(embs); i++ {
		r := m.rowFor(embs, i)
		if r < m.recN {
			m.bumped = append(m.bumped, r)
		}
		m.rows[r].weight++
		m.rowOf = append(m.rowOf, r)
	}
	newN := m.n
	if newN == oldN {
		return
	}
	m.d = extend(m.d, newN*(newN-1)/2)
	m.folded = append(m.folded, make([][]float64, newN-oldN)...)
	pool.ForEach(newN-oldN, func(k int) {
		j := oldN + k
		col := m.col(j)
		ej := embs[m.rows[j].first]
		for i := range col {
			col[i] = 1 - nn.CosineSimilarityNorms(embs[m.rows[i].first], ej, m.norms[i], m.norms[j])
		}
	})
}

// rowFor returns the row of mention i's embedding, appending a row of
// weight 0 when no covered row holds those bits. Rows whose embeddings
// share a hash are told apart by comparing the bits.
func (m *DistMatrix) rowFor(embs [][]float64, i int) int {
	e := embs[i]
	h := uint64(len(e))
	for _, x := range e {
		h = (h ^ math.Float64bits(x)) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	if 2*(m.n+1) > len(m.index) {
		m.index = make([]int, max(8, 2*len(m.index)))
		for r := range m.rows {
			m.index[m.free(m.rows[r].hash)] = r + 1
		}
	}
	mask := len(m.index) - 1
	p := int(h & uint64(mask))
	for ; m.index[p] != 0; p = (p + 1) & mask {
		if ri := m.rows[m.index[p]-1]; ri.hash == h && bitsEqual(embs[ri.first], e) {
			return m.index[p] - 1
		}
	}
	r := m.n
	m.n++
	m.index[p] = r + 1
	m.rows = append(m.rows, rowInfo{first: i, hash: h})
	m.norms = append(m.norms, nn.L2Norm(e))
	return r
}

// free returns the first empty slot on hash h's probe sequence.
func (m *DistMatrix) free(h uint64) int {
	mask := len(m.index) - 1
	p := int(h & uint64(mask))
	for m.index[p] != 0 {
		p = (p + 1) & mask
	}
	return p
}

// bitsEqual reports whether a and b hold the same float64 bits.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, x := range a {
		if math.Float64bits(x) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// col returns column j of the state: d(i, j) for every i < j.
func (m *DistMatrix) col(j int) []float64 {
	at := j * (j - 1) / 2
	return m.d[at : at+j]
}

// pair returns where d(a, b), a ≠ b, is stored.
func pair(a, b int) int {
	if a > b {
		a, b = b, a
	}
	return b*(b-1)/2 + a
}

// Replayed returns how many leading merge steps of the last Cluster
// call were kept from the previous call's recording: the steps before
// the first one an appended mention took part in.
func (m *DistMatrix) Replayed() int { return m.replayed }

// Kept returns how many merge steps of the last Cluster call were kept
// from the previous call's recording rather than selected: the
// Replayed prefix plus every later recorded merge of two clusters the
// appended mentions left clean.
func (m *DistMatrix) Kept() int { return m.kept }

// scratch is one Cluster call's working state. None of it outlives the
// call, so matrices share it through scratches: calls running at the
// same time take different ones.
type scratch struct {
	// oldN clusters are covered by the recording, which has steps
	// steps; this call's merge sequence parts from it at step t, and r
	// is the first recorded step the loop has not yet kept or skipped.
	oldN, t, steps, r int
	// bump marks the recorded rows whose weight rose since the
	// recording: the Lance–Williams updates of a bumped row's first
	// recorded merge and of every later merge of its cluster used the
	// old weight.
	bump []bool
	// dirty marks the clusters whose merge history has left the
	// recording; dlist lists the live ones ascending, and gone the
	// recorded clusters a dirty merge took away, ascending.
	dirty       []bool
	dlist, gone []int
	// The selection cache of the dirty pairs, each pair cached once:
	// per dirty column j, cmin[j] is the smallest d(i, j) over live
	// i < j and carg[j] the first i holding it; per dirty row i, rmin[i]
	// is the smallest d(i, k) over clean live k > i and rarg[i] the
	// first such k.
	cmin, rmin []float64
	carg, rarg []int
	// absorbed[c] is the recorded step that merged c away, or steps.
	absorbed []int
	// stamp[k] == epoch marks k as settled in the row being rebuilt.
	stamp []int
	epoch int
	// rec is the recording from step t on, and step s's run lies at
	// at[s−t]..at[s−t+1] of the old log, copied out of the matrix since
	// the new merge sequence is written over them.
	rec []mergeStep
	at  []int
	// The new log is written over the old one from at[0] on, w being
	// where the next run goes. Before a write reaches a recorded run the
	// loop may still read, the run moves to q, which holds the old log
	// from offset qa on, up to that of step e: runs of steps before e are
	// read from q, later ones where they are. A write that follows the
	// read position closely moves little.
	w, e, qa int
	q        []float64
}

// scratches keeps the scratch states of finished Cluster calls for the
// next ones, at most one per call ever running at once. It is a free
// list, not a sync.Pool: a pool drops what it holds across garbage
// collections and keeps one per P, and growing the dropped queue and
// arrays again cost 6 % more CPU than the parent on a pool grown 32
// mentions per call (BenchmarkDistMatrixGrowCluster), where the list
// is at parity.
var scratches struct {
	sync.Mutex
	free []*scratch
}

func takeScratch() *scratch {
	scratches.Lock()
	defer scratches.Unlock()
	if k := len(scratches.free); k > 0 {
		s := scratches.free[k-1]
		scratches.free = scratches.free[:k-1]
		return s
	}
	return new(scratch)
}

func releaseScratch(s *scratch) {
	scratches.Lock()
	defer scratches.Unlock()
	scratches.free = append(scratches.free, s)
}

// resize returns s with length n, reusing its backing array when it
// is large enough; the contents are unspecified.
func resize[E any](s []E, n int) []E {
	return slices.Grow(s[:0], n)[:n]
}

// extend returns s lengthened to n, its contents kept. When it must
// reallocate it at least doubles the capacity: slices.Grow's 1.25×
// steps on a large slice would copy the whole triangle or log again
// every few calls of a pool grown a mention at a time.
func extend(s []float64, n int) []float64 {
	if n <= cap(s) {
		return s[:n]
	}
	t := make([]float64, n, max(n, 2*cap(s)))
	copy(t, s)
	return t
}

// Cluster agglomerates the grown pool. It folds the appended columns
// through the leading recorded merges for as long as those are what the
// from-singletons loop selects, then runs one loop from where the
// sequences part. A cluster an appended mention reaches turns dirty;
// every other one stays clean, and each step takes the smaller of the
// next recorded merge of two clean clusters, which it keeps, and the
// best pair with a dirty cluster, which it merges as the loop always
// has. A row whose weight Grow raised keeps its recorded history up to
// and including the selection of its first recorded merge, whose update
// used the old weight: there the fold stops, and both clusters turn
// dirty. On a new matrix every row is dirty and it is the plain loop.
func (m *DistMatrix) Cluster() Result {
	if m.n == 0 {
		return Result{}
	}
	if m.recN == m.n && len(m.bumped) == 0 {
		m.replayed, m.kept = len(m.rec), len(m.rec)
		return denseIDs(m.parent, m.rows, m.rowOf)
	}
	s := takeScratch()
	defer releaseScratch(s)
	m.size, m.parent = resize(m.size, m.n), resize(m.parent, m.n)
	for c := range m.parent {
		m.size[c], m.parent[c] = m.rows[c].weight, c
	}
	s.bump = resize(s.bump, m.recN)
	clear(s.bump)
	for _, r := range m.bumped {
		s.bump[r] = true
	}
	m.bumped = m.bumped[:0]
	s.dirty = resize(s.dirty, m.n)
	clear(s.dirty)
	s.cmin, s.carg = resize(s.cmin, m.n), resize(s.carg, m.n)
	s.rmin, s.rarg = resize(s.rmin, m.n), resize(s.rarg, m.n)
	for c := range s.rarg {
		s.rmin[c], s.rarg[c] = math.Inf(1), -1
	}
	if len(s.stamp) < m.n {
		s.stamp = append(s.stamp, make([]int, m.n-len(s.stamp))...)
	}
	t := m.foldAppended(s)
	kept := m.resume(s, t)
	m.replayed, m.kept, m.recN = t, t+kept, m.n
	return denseIDs(m.parent, m.rows, m.rowOf)
}

// foldAppended carries the appended columns recN..n-1 through the
// recorded merges for as long as the from-singletons loop would have
// selected exactly them with unchanged sizes, and returns how many it
// carried them through: it stops at the first recorded merge of a row
// whose weight rose.
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
// needs only the first smallest d(i, c) over live i < c, the column's
// cache entry, which it keeps as a running minimum, rescanning only
// when the minimum's cluster merges away or grows. Size and parent
// follow the folded steps, so they hold the state after them.
func (m *DistMatrix) foldAppended(s *scratch) int {
	for c := m.recN; c < m.n; c++ {
		s.cmin[c], s.carg[c] = m.nearestLeft(c)
	}
	for t, st := range m.rec {
		if s.bump[st.bi] || s.bump[st.bj] {
			return t
		}
		for c := m.recN; c < m.n; c++ {
			if d := s.cmin[c]; d < st.height || (d == st.height && s.carg[c] < st.bi) {
				return t
			}
		}
		si, sj := float64(m.size[st.bi]), float64(m.size[st.bj])
		m.size[st.bi] += m.size[st.bj]
		m.parent[st.bj] = st.bi
		for c := m.recN; c < m.n; c++ {
			col := m.col(c)
			old := col[st.bi]
			d := lanceWilliams(m.linkage, old, col[st.bj], si, sj)
			m.folded[c] = append(m.folded[c], old)
			col[st.bi] = d
			switch arg := s.carg[c]; {
			case arg == st.bj || (arg == st.bi && !(d <= s.cmin[c])):
				s.cmin[c], s.carg[c] = m.nearestLeft(c)
			case arg == st.bi:
				s.cmin[c] = d
			case d < s.cmin[c] || (d == s.cmin[c] && st.bi < arg):
				s.cmin[c], s.carg[c] = d, st.bi
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
	for i, p := range m.parent[:c] {
		if p == i && col[i] < best {
			best, arg = col[i], i
		}
	}
	return best, arg
}

// resume runs the merge loop from recorded step t on, where the fold
// stopped, writing the new merge sequence and its log over the old
// ones from step t, and returns how many recorded merges it kept.
//
// The naive loop takes the smallest (d, i, j) over the live pairs. Among
// pairs of two clean clusters that is the next recorded step both of
// whose clusters are clean: those clusters are live in the recorded run
// at that step, hold the same distances, and the recorded pair was the
// smallest of them all. Among pairs with a dirty cluster it is the best
// entry of the dirty cache. A recorded step with a dirty cluster can
// never be taken; its clean one turns dirty before it is passed.
func (m *DistMatrix) resume(s *scratch, t int) (kept int) {
	s.oldN, s.t, s.steps = m.recN, t, len(m.rec)
	s.absorbed = resize(s.absorbed, m.recN)
	for c := range s.absorbed {
		s.absorbed[c] = len(m.rec)
	}
	for i, st := range m.rec {
		s.absorbed[st.bj] = i
	}
	s.rec = append(s.rec[:0], m.rec[t:]...)
	s.at = append(append(s.at[:0], m.undoAt[t:]...), len(m.undo))
	m.rec, m.undoAt = m.rec[:t], m.undoAt[:t]
	s.w, s.e, s.q, s.qa = s.at[0], t, s.q[:0], s.at[0]

	m.live = m.live[:0]
	for c, p := range m.parent {
		if p == c {
			m.live = append(m.live, c)
		}
	}
	s.dlist, s.gone = s.dlist[:0], s.gone[:0]
	for c := m.recN; c < m.n; c++ {
		s.dirty[c] = true
		s.dlist = append(s.dlist, c)
	}
	for s.r = t; ; {
		for ; s.r < s.steps; s.r++ {
			st := s.rec[s.r-t]
			if !s.dirty[st.bi] && !s.dirty[st.bj] {
				if !s.bump[st.bi] && !s.bump[st.bj] {
					break
				}
				// A bumped row's first recorded merge is still the
				// selection, but its update used the old weight.
				m.makeDirty(s, st.bi)
				m.makeDirty(s, st.bj)
				continue
			}
			if !s.dirty[st.bi] {
				m.makeDirty(s, st.bi)
			} else if !s.dirty[st.bj] {
				m.makeDirty(s, st.bj)
			}
		}
		bi, bj, best := -1, -1, m.threshold
		for _, x := range s.dlist {
			if d, i := s.cmin[x], s.carg[x]; d < best || (d == best && (i < bi || (i == bi && x < bj))) {
				bi, bj, best = i, x, d
			}
			if d, k := s.rmin[x], s.rarg[x]; d < best || (d == best && (x < bi || (x == bi && k < bj))) {
				bi, bj, best = x, k, d
			}
		}
		if s.r < s.steps {
			st := s.rec[s.r-t]
			if bi < 0 || st.height < best || (st.height == best && (st.bi < bi || (st.bi == bi && st.bj < bj))) {
				m.keep(s, st)
				s.r++
				kept++
				continue
			}
		}
		if bi < 0 {
			break
		}
		if !s.dirty[bi] {
			m.makeDirty(s, bi)
		}
		if !s.dirty[bj] {
			m.makeDirty(s, bj)
		}
		m.merge(s, bi, bj, best)
	}
	m.undo = m.undo[:s.w]
	for c, f := range m.folded {
		if len(f) > t {
			m.folded[c] = f[:t]
		}
	}
	return kept
}

// run returns the run recorded step r ≥ s.r logged.
func (m *DistMatrix) run(s *scratch, r int) []float64 {
	lo, hi := s.at[r-s.t], s.at[r-s.t+1]
	if r < s.e {
		return s.q[lo-s.qa : hi-s.qa]
	}
	return m.undo[lo:hi]
}

// reserve returns the next k entries of the new log to write. Each
// recorded run the write would reach moves to q first, unless the loop
// is past its step; q drops what it is past once that is half of it.
func (m *DistMatrix) reserve(s *scratch, k int) []float64 {
	end := s.w + k
	for ; s.e < s.steps && s.at[s.e-s.t] < end; s.e++ {
		lo, hi := s.at[s.e-s.t], s.at[s.e-s.t+1]
		if s.e < s.r {
			s.q, s.qa = s.q[:0], hi
			continue
		}
		if done := s.at[s.r-s.t] - s.qa; done > len(s.q)/2 {
			s.q = s.q[:copy(s.q, s.q[done:])]
			s.qa += done
		}
		s.q = append(s.q, m.undo[lo:hi]...)
	}
	if end > len(m.undo) {
		m.undo = extend(m.undo, end)
	}
	out := m.undo[s.w:end]
	s.w = end
	return out
}

// inRun reports whether recorded cluster c has an entry in the run of
// recorded step r: it was still live then, and its column existed when
// the step was recorded (else its entry is folded[c][r]).
func (m *DistMatrix) inRun(s *scratch, c, r int) bool {
	return c < s.oldN && s.absorbed[c] > r && r >= len(m.folded[c])
}

// makeDirty moves the clean live cluster x into the dirty set before
// recorded step r = s.r. Its entries with dirty clusters are current
// already. Each entry d(x, k) with a clean live k is what the recording
// held before step r: the value the first step from r on that writes
// the pair logged — one with bi = x while k is still live, or bi = k
// while x is — or else what the state holds, which nothing wrote after
// r. The pass that reads x's own run also rebuilds x's cache entries.
// A dirty row whose entry names x keeps it: the pair is live, holds its
// current value and is no larger than any clean entry of that row,
// until a merge changes it.
func (m *DistMatrix) makeDirty(s *scratch, x int) {
	r, own := s.r, -1
	s.epoch++
	// below counts the recorded clusters left of x merged away before
	// step u, from the first step that needs it on.
	below := -1
	for u := r; u < s.steps; u++ {
		st := s.rec[u-s.t]
		if st.bj == x {
			break
		}
		if st.bi == x {
			own = u
			break
		}
		if k := st.bi; !s.dirty[k] && s.stamp[k] != s.epoch {
			s.stamp[k] = s.epoch
			var d float64
			if f := m.folded[x]; u < len(f) {
				d = f[u]
			} else {
				if below < 0 {
					below = 0
					for _, a := range s.absorbed[:x] {
						if a < u {
							below++
						}
					}
				}
				// x's rank among the clusters step u's run covers.
				pos := x - below
				if k < x {
					pos--
				}
				if st.bj < x {
					pos--
				}
				d = m.run(s, u)[pos]
			}
			m.d[pair(x, k)] = d
		}
		s.stamp[st.bj] = s.epoch
		if st.bj < x && below >= 0 {
			below++
		}
	}
	// One pass over the live clusters settles the rest from x's own
	// run and rebuilds x's cache entries. The run covers, ascending, the
	// recorded clusters live at step own other than x and its bj, whose
	// columns existed when it was recorded: live clusters here, or gone
	// ones, whose slots the pass counts on the way.
	var run []float64
	if own >= 0 {
		run = m.run(s, own)
	}
	col := m.col(x)
	pos, gi := 0, 0
	cbest, carg := math.Inf(1), -1
	rbest, rarg := math.Inf(1), -1
	for _, c := range m.live {
		if c >= s.oldN {
			break // appended here: dirty, right of x, in no recorded run
		}
		if c == x {
			continue
		}
		var d float64
		settled := false
		if own >= 0 {
			for ; gi < len(s.gone) && s.gone[gi] < c; gi++ {
				if g := s.gone[gi]; s.absorbed[g] > own && own >= len(m.folded[g]) {
					pos++
				}
			}
			if s.absorbed[c] > own {
				if f := m.folded[c]; own < len(f) {
					d = f[own]
				} else {
					d, pos = run[pos], pos+1
				}
				if settled = !s.dirty[c] && s.stamp[c] != s.epoch; settled {
					m.d[pair(x, c)] = d
				}
			}
		}
		switch {
		case c < x:
			if !settled {
				d = col[c]
			}
			if d < cbest {
				cbest, carg = d, c
			}
		case !s.dirty[c]:
			if !settled {
				d = m.d[c*(c-1)/2+x]
			}
			if d < rbest {
				rbest, rarg = d, c
			}
		}
	}
	s.cmin[x], s.carg[x], s.rmin[x], s.rarg[x] = cbest, carg, rbest, rarg
	s.dirty[x] = true
	p, _ := slices.BinarySearch(s.dlist, x)
	s.dlist = slices.Insert(s.dlist, p, x)
}

// rescanCol rebuilds the cache entry of dirty column j, at live
// position p, from one pass over the column.
func (m *DistMatrix) rescanCol(s *scratch, j, p int) {
	col := m.col(j)
	best, arg := math.Inf(1), -1
	for _, i := range m.live[:p] {
		if col[i] < best {
			best, arg = col[i], i
		}
	}
	s.cmin[j], s.carg[j] = best, arg
}

// rescanRow rebuilds the cache entry of dirty row i, at live position
// p, from its entries with the clean live clusters right of it.
func (m *DistMatrix) rescanRow(s *scratch, i, p int) {
	best, arg := math.Inf(1), -1
	for _, k := range m.live[p+1:] {
		if !s.dirty[k] {
			if d := m.d[k*(k-1)/2+i]; d < best {
				best, arg = d, k
			}
		}
	}
	s.rmin[i], s.rarg[i] = best, arg
}

// join records the merge of bj into bi (bi < bj) at height, its run
// to start at the log's write position, applies it to size, parent and
// the live list, and returns the two sizes before it.
func (m *DistMatrix) join(s *scratch, bi, bj int, height float64) (si, sj float64) {
	m.rec = append(m.rec, mergeStep{bi, bj, height})
	m.undoAt = append(m.undoAt, s.w)
	si, sj = float64(m.size[bi]), float64(m.size[bj])
	m.size[bi] += m.size[bj]
	m.parent[bj] = bi
	p, _ := slices.BinarySearch(m.live, bj)
	m.live = slices.Delete(m.live, p, p+1)
	return si, sj
}

// keep takes recorded step r = s.r, both of whose clusters are clean,
// and logs its run: d(bi, k) before the step over the live k other
// than bi, ascending. The clean clusters are the same in this run and
// the recorded one, so the stretches between consecutive dirty
// clusters copy over in blocks, and a gone cluster the recorded run
// still covers has its slot there skipped. The entries with clean
// clusters are the recording's, so only a dirty cluster's entry gets
// the Lance–Williams update, after its old value is logged, and its
// cache entries are kept exact on the way: a column's through bi and
// bj left of it, a row's through bi and bj right of it.
func (m *DistMatrix) keep(s *scratch, st mergeStep) {
	bi, bj, r := st.bi, st.bj, s.r
	si, sj := m.join(s, bi, bj, st.height)
	out := m.reserve(s, len(m.live)-1)[:0]
	run := m.run(s, r)
	sp, lp, gi := 0, 0, 0
	for di := 0; ; di++ {
		x := m.n
		if di < len(s.dlist) {
			x = s.dlist[di]
		}
		for ; gi < len(s.gone) && s.gone[gi] < x; gi++ {
			g := s.gone[gi]
			q := searchFrom(m.live, lp, g)
			out, sp = m.copyClean(out, m.live[lp:q], bi, run, sp, r)
			if m.inRun(s, g, r) {
				sp++
			}
			lp = q
		}
		if x == m.n {
			m.copyClean(out, m.live[lp:], bi, run, sp, r)
			break
		}
		p := searchFrom(m.live, lp, x)
		out, sp = m.copyClean(out, m.live[lp:p], bi, run, sp, r)
		if m.inRun(s, x, r) {
			sp++
		}
		lp = p + 1
		ik := pair(bi, x)
		old := m.d[ik]
		out = append(out, old)
		d := lanceWilliams(m.linkage, old, m.d[pair(bj, x)], si, sj)
		m.d[ik] = d
		if x > bi {
			switch a := s.carg[x]; {
			case a == bj || (a == bi && !(d <= s.cmin[x])):
				m.rescanCol(s, x, p)
			case a == bi:
				s.cmin[x] = d
			case d < s.cmin[x] || (d == s.cmin[x] && bi < a):
				s.cmin[x], s.carg[x] = d, bi
			}
			if x < bj && s.rarg[x] == bj {
				m.rescanRow(s, x, p)
			}
			continue
		}
		switch a := s.rarg[x]; {
		case a == bj || (a == bi && !(d <= s.rmin[x])):
			m.rescanRow(s, x, p)
		case a == bi:
			s.rmin[x] = d
		case d < s.rmin[x] || (d == s.rmin[x] && bi < a):
			s.rmin[x], s.rarg[x] = d, bi
		}
	}
	// A gone cluster merged away by step r in the recording is in no
	// later recorded run.
	s.gone = slices.DeleteFunc(s.gone, func(c int) bool { return s.absorbed[c] <= r })
}

// searchFrom returns the position of the first element of the
// ascending a at or after lo that is not below y. It looks at the next
// few elements before it bisects, since dirty clusters are often
// neighbours in the live list.
func searchFrom(a []int, lo, y int) int {
	for end := min(lo+8, len(a)); lo < end; lo++ {
		if a[lo] >= y {
			return lo
		}
	}
	at, _ := slices.BinarySearch(a[lo:], y)
	return lo + at
}

// copyClean appends to out the entries of the clean live clusters ids,
// minus bi, from the recorded run at sp on, and returns where it
// stopped there. Past the run's end the clusters' columns were appended
// after step r was recorded, and their fold logs hold the entries.
func (m *DistMatrix) copyClean(out []float64, ids []int, bi int, run []float64, sp, r int) ([]float64, int) {
	c := len(ids)
	if c == 0 {
		return out, sp
	}
	if ids[0] <= bi && bi <= ids[c-1] {
		c--
	}
	k := min(c, len(run)-sp)
	out = append(out, run[sp:sp+k]...)
	if k < c {
		skip := k
		for _, id := range ids {
			if id == bi {
				continue
			}
			if skip > 0 {
				skip--
				continue
			}
			out = append(out, m.folded[id][r])
		}
	}
	return out, sp + k
}

// merge records and applies the merge of bj into bi < bj, both dirty,
// in one pass over the clusters k still live after it. Each k gets the
// Lance–Williams update of d(bi, k), with the value it overwrites
// logged. Left of bi that is bi's own column, whose cache entry the
// pass rebuilds (first strict minimum, as a rescan would find it); so
// it does bi's row entry over the clean k right of it. A dirty k right
// of bi has its column's entry kept exact: it is rescanned if it named
// bj, or named bi and the value rose; otherwise bi takes it if it is
// now smaller, or equal with bi first. A dirty row whose entry named bi
// or bj, left there when that cluster turned dirty, is rescanned: the
// pair changed or went.
func (m *DistMatrix) merge(s *scratch, bi, bj int, height float64) {
	si, sj := m.join(s, bi, bj, height)
	p, _ := slices.BinarySearch(s.dlist, bj)
	s.dlist = slices.Delete(s.dlist, p, p+1)
	if bj < s.oldN {
		p, _ := slices.BinarySearch(s.gone, bj)
		s.gone = slices.Insert(s.gone, p, bj)
	}
	out := m.reserve(s, len(m.live)-1)[:0]
	atI, atJ := bi*(bi-1)/2, bj*(bj-1)/2
	cbest, carg := math.Inf(1), -1
	rbest, rarg := math.Inf(1), -1
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
		out = append(out, old)
		d := lanceWilliams(m.linkage, old, m.d[jk], si, sj)
		m.d[ik] = d
		if a := s.rarg[k]; a == bi || a == bj {
			m.rescanRow(s, k, p)
		}
		switch {
		case k < bi:
			if d < cbest {
				cbest, carg = d, k
			}
			continue
		case !s.dirty[k]:
			if d < rbest {
				rbest, rarg = d, k
			}
			continue
		}
		switch a := s.carg[k]; {
		case a == bj || (a == bi && !(d <= s.cmin[k])):
			m.rescanCol(s, k, p)
		case a == bi:
			s.cmin[k] = d
		case d < s.cmin[k] || (d == s.cmin[k] && bi < a):
			s.cmin[k], s.carg[k] = d, bi
		}
	}
	s.cmin[bi], s.carg[bi] = cbest, carg
	s.rmin[bi], s.rarg[bi] = rbest, rarg
}
