package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/parallel"
)

// checkGrowReplay grows one matrix over embs to each prefix length in
// cuts, sharding Grow over pool, and after every Grow requires Cluster
// — its partition and the merge sequence it ends up holding, pair by
// pair and height by height — to equal the naive from-singletons
// reference run on a freshly built matrix. It returns how many merges
// each Cluster call kept from the previous call's recording.
func checkGrowReplay(t testing.TB, embs [][]float64, cuts []int, th float64, lk Linkage, pool *parallel.Pool) []int {
	t.Helper()
	m := NewDistMatrix(th, lk)
	replayed := make([]int, len(cuts))
	for ci, n := range cuts {
		m.Grow(embs[:n], pool)
		if m.Len() != n {
			t.Fatalf("Len = %d, want %d", m.Len(), n)
		}
		got := m.Cluster()
		want, steps := naiveWeighted(embs[:n], th, lk)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("linkage=%s th=%v cuts=%v: Cluster at n=%d diverged from the naive reference (replayed %d)\ngot  %+v\nwant %+v",
				lk, th, cuts, n, m.Replayed(), got, want)
		}
		if !slices.Equal(m.rec, steps) {
			t.Fatalf("linkage=%s th=%v cuts=%v: merge sequence at n=%d differs from the naive reference (replayed %d)\ngot  %v\nwant %v",
				lk, th, cuts, n, m.Replayed(), m.rec, steps)
		}
		if m.Replayed() > len(steps) {
			t.Fatalf("n=%d: replayed %d of %d merges", n, m.Replayed(), len(steps))
		}
		replayed[ci] = m.Replayed()
	}
	return replayed
}

// unit returns the unit vector at the given angle in the x–y plane.
func unit(deg float64) []float64 {
	r := deg * math.Pi / 180
	return []float64{math.Cos(r), math.Sin(r), 0}
}

// scaled returns k·v. For k a power of two its cosine distance to v is
// what v's distance to itself is, but its bits differ, so it takes a row
// of its own where a copy of v would raise v's weight.
func scaled(k float64, v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = k * x
	}
	return out
}

var allLinkages = []Linkage{AverageLinkage, SingleLinkage, CompleteLinkage}

// TestDistMatrixReplayBuiltCases pins how far the recording is replayed
// in the situations the divergence rule distinguishes, so the property
// test below cannot pass by always falling back to singletons.
func TestDistMatrixReplayBuiltCases(t *testing.T) {
	x, y, z := []float64{1, 0, 0}, []float64{0, 1, 0}, []float64{0, 0, 1}
	// A tight group (1° apart, merge heights ≈ 1.5e-4 … 6e-4) and a
	// loose one (10° and 15° apart, heights ≥ 1.5e-2), farther from
	// each other (≥ 0.47) than the 0.3 threshold.
	groups := [][]float64{unit(0), unit(1), unit(2), unit(60), unit(70), unit(85)}
	with := func(base [][]float64, more ...[]float64) [][]float64 {
		return append(append([][]float64{}, base...), more...)
	}
	cases := []struct {
		name string
		embs [][]float64
		cuts []int
		th   float64
		// want is the replayed count of the last Cluster call.
		want int
	}{
		// Orthogonal to everything: never below the threshold, so all
		// four recorded merges replay and the loop finds nothing more.
		{"never merges", with(groups, z), []int{6, 7}, 0.3, 4},
		// Closer to mention 0 than any recorded pair: the sequences
		// part at step 0.
		{"merges at step 0", with(groups, unit(0.01)), []int{6, 7}, 0.3, 0},
		// 5° from the loose group: the tight group's two merges replay,
		// then the new mention joins before the loose group merges.
		{"joins midway", with(groups, unit(65)), []int{6, 7}, 0.3, 2},
		// Two appended at once, one inert and one joining midway.
		{"two appended", with(groups, z, unit(65)), []int{6, 8}, 0.3, 2},
		// Exact zero distances, between multiples of x and of y, which
		// are rows of their own (exact copies would share one). The
		// recording is (0,1) then (2,3), both at height 0. A third
		// multiple of x ties with step 0 through rows 0 and 1, neither
		// left of bi = 0, so step 0 replays; at step 1 row 0 still ties
		// and is left of bi = 2, so (0,4) wins there.
		{"duplicate ties, earlier row wins", [][]float64{x, scaled(2, x), y, scaled(2, y), scaled(4, x)}, []int{4, 5}, 0.5, 1},
		// A third multiple of y ties only through rows 2 and 3, never
		// left of a recorded bi: both steps replay and (2,4) merges
		// afterwards.
		{"duplicate ties, recorded pair wins", [][]float64{x, scaled(2, x), y, scaled(2, y), scaled(4, y)}, []int{4, 5}, 0.5, 2},
		// Clustering again without growing replays everything.
		{"no growth", groups, []int{6, 6}, 0.3, 4},
		// Nothing ever merged: an empty recording, nothing to replay.
		{"empty recording", [][]float64{x, y, z}, []int{2, 3}, 0.5, 0},
		// One mention at a time from the start.
		{"one at a time", groups, []int{1, 2, 3, 4, 5, 6}, 0.3, 3},
		// The new mention reaches a step an earlier call kept. The first
		// call records (0,1) at ≈ 1.5e-4. The second appends mentions at
		// -4° and 5°, ≥ 2.4e-3 from everything, so it keeps step 0 —
		// folding both columns through it, which logs their entries from
		// before the step in their fold logs — and merges them in after
		// it. The third appends one at 0.3°, closer to mention 0 than
		// step 0's height: the fold stops before step 0, so nothing is
		// replayed, and the loop's first merge takes mention 0 into the
		// new mention. Mention 0 turns dirty before step 0 while the two
		// folded columns are still clean, so its distances to them must
		// be the ones from before step 0, which only their fold logs
		// hold.
		{"rolls back a step an earlier call kept", [][]float64{unit(0), unit(1), unit(-4), unit(5), unit(0.3)}, []int{2, 4, 5}, 0.3, 0},
	}
	for _, tc := range cases {
		for _, lk := range allLinkages {
			t.Run(fmt.Sprintf("%s/%s", tc.name, lk), func(t *testing.T) {
				replayed := checkGrowReplay(t, tc.embs, tc.cuts, tc.th, lk, nil)
				if replayed[0] != 0 {
					t.Fatalf("first call on a new matrix replayed %d merges", replayed[0])
				}
				if got := replayed[len(replayed)-1]; got != tc.want {
					t.Fatalf("last call replayed %d merges, want %d (all calls: %v)", got, tc.want, replayed)
				}
			})
		}
	}
}

// TestDistMatrixCleanSuffixBuiltCases pins the paths past the point
// where the merge sequence parts from the recording, each in a case the
// naive reference tells apart: recorded merges kept after it, a
// recorded step skipped, and the three places a clean cluster's
// distances are read back from the log. Each asserts how many merges
// the last call replayed and kept, so none can pass by turning every
// cluster dirty.
func TestDistMatrixCleanSuffixBuiltCases(t *testing.T) {
	// The tight and loose groups of TestDistMatrixReplayBuiltCases.
	groups := [][]float64{unit(0), unit(1), unit(2), unit(60), unit(70), unit(85)}
	with := func(base [][]float64, more ...[]float64) [][]float64 {
		return append(append([][]float64{}, base...), more...)
	}
	cases := []struct {
		name string
		embs [][]float64
		cuts []int
		th   float64
		lk   Linkage
		// replayed and kept are the last Cluster call's counts.
		replayed, kept int
	}{
		// The appended mention joins mention 0 before the first recorded
		// step; the loose group never meets a dirty cluster, so both its
		// recorded merges are kept after the sequences part.
		{"keeps clean merges after the divergence", with(groups, unit(0.01)), []int{6, 7}, 0.3, AverageLinkage, 0, 2},
		// 2.1° joins mention 2 first. The recorded (0,1) is kept, then
		// the recorded (0,2) is skipped because 2 is dirty, and 0 turns
		// dirty before it: its entries with the loose group must be the
		// ones from before (0,2), which decide where the groups meet
		// under the 0.75 threshold.
		{"skips a recorded step whose partner turned dirty", with(groups, unit(2.1)), []int{6, 7}, 0.75, AverageLinkage, 0, 3},
		// The same first merge absorbs clean mention 2 into a dirty
		// cluster. d(0, 2) before step 0 is not in a run of 2's (2 never
		// survives a recorded merge) but in the run of step 0, where 0
		// survives: it is read at 2's rank there.
		{"absorbs a clean cluster logged in the other survivor's run", with(groups, unit(2.1)), []int{6, 7}, 0.3, AverageLinkage, 0, 3},
		// The first call records (0,1); the second appends 80°, folds it
		// through (0,1) and merges it in. The third appends twice 80°,
		// which takes clean mention 2 before step 0: d(2, 0) before step 0
		// is in 2's fold log, since column 2 did not exist when step 0
		// was recorded.
		{"reads a clean column's entry back from its fold log", [][]float64{unit(0), unit(20), unit(80), scaled(2, unit(80))}, []int{2, 3, 4}, 0.75, AverageLinkage, 0, 1},
		// A kept step's run is rebuilt from the recorded one, and the
		// entries of clean columns appended after that step was
		// recorded come from their fold logs.
		{"copies a kept step's fold-logged entries", [][]float64{unit(0), unit(10), unit(40), unit(20), scaled(2, unit(20)), scaled(2, unit(10))}, []int{2, 3, 5, 6}, 1.5, AverageLinkage, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkGrowReplay(t, tc.embs, tc.cuts, tc.th, tc.lk, nil)
			m := NewDistMatrix(tc.th, tc.lk)
			for _, n := range tc.cuts {
				m.Grow(tc.embs[:n], nil)
				m.Cluster()
			}
			if m.Replayed() != tc.replayed || m.Kept() != tc.kept {
				t.Fatalf("last call replayed %d and kept %d merges, want %d and %d", m.Replayed(), m.Kept(), tc.replayed, tc.kept)
			}
		})
	}
}

// TestDistMatrixWeightBumpBuiltCases pins the weighted rows: a mention
// whose embedding is bit-equal to a covered one raises that row's
// weight instead of adding a row. The bumped row's recorded history
// holds up to and including the selection of its first recorded merge,
// whose update used the old weight, so the fold stops there and both
// clusters turn dirty before it. Each case asserts how many merges the
// last call replayed and kept under average linkage, where weights
// change heights; every linkage must match the naive reference.
func TestDistMatrixWeightBumpBuiltCases(t *testing.T) {
	// The tight and loose groups of TestDistMatrixReplayBuiltCases. At
	// the 0.75 threshold the recording is (0,1), (0,2), (3,4), (3,5)
	// and, last, the two groups as (0,3).
	groups := [][]float64{unit(0), unit(1), unit(2), unit(60), unit(70), unit(85)}
	with := func(base [][]float64, more ...[]float64) [][]float64 {
		return append(append([][]float64{}, base...), more...)
	}
	cases := []struct {
		name string
		embs [][]float64
		cuts []int
		th   float64
		// rows is the matrix's row count at the end; replayed and kept
		// are the last Cluster call's counts under average linkage.
		rows, replayed, kept int
	}{
		// A copy of 60° (row 3, first merged at step 2 as the survivor):
		// the fold carries the tight group's two steps and stops before
		// (3,4), which merges again with row 3 at weight 2; every later
		// step involves its cluster.
		{"bumps a row before its first recorded merge", with(groups, unit(60)), []int{6, 7}, 0.75, 6, 2, 2},
		// A copy of 1° (row 1, merged away at step 0) beside a new row
		// orthogonal to everything: nothing replays, (0,1) and (0,2)
		// merge again with row 1 at weight 2, the loose group's merges
		// are kept, and the groups meet at a new height.
		{"bumps a row already merged", with(groups, unit(1), []float64{0, 0, 1}), []int{6, 8}, 0.75, 7, 0, 2},
		// 65° twice in one Grow: one new row of weight 2, which joins
		// the loose group after the tight group's steps replay.
		{"two copies arriving in one Grow", with(groups, unit(65), unit(65)), []int{6, 8}, 0.75, 7, 2, 2},
		// Only a copy of 85° (row 5, merged away at step 3): no row is
		// added, yet the groups' final merge height changes, so Cluster
		// must not return the recorded result.
		{"bumps a row with no new row", with(groups, unit(85)), []int{6, 7}, 0.75, 6, 3, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, lk := range allLinkages {
				checkGrowReplay(t, tc.embs, tc.cuts, tc.th, lk, nil)
			}
			m := NewDistMatrix(tc.th, AverageLinkage)
			for _, n := range tc.cuts {
				m.Grow(tc.embs[:n], nil)
				m.Cluster()
			}
			if m.Rows() != tc.rows || m.Len() != len(tc.embs) {
				t.Fatalf("%d rows over %d mentions, want %d over %d", m.Rows(), m.Len(), tc.rows, len(tc.embs))
			}
			if m.Replayed() != tc.replayed || m.Kept() != tc.kept {
				t.Fatalf("last call replayed %d and kept %d merges, want %d and %d", m.Replayed(), m.Kept(), tc.replayed, tc.kept)
			}
		})
	}
}

// randomGrowth draws a pool with the features replay has to survive —
// exact duplicates (zero distances), coarse coordinates (exact ties
// between distinct pairs) and free points — and prefix lengths that
// grow it by 1..4 at a time.
func randomGrowth(rng *rand.Rand, n int) (embs [][]float64, cuts []int) {
	for i := 0; i < n; i++ {
		v := make([]float64, 4)
		switch r := rng.Intn(10); {
		case r < 3 && i > 0:
			copy(v, embs[rng.Intn(i)])
		case r < 6:
			for k := range v {
				v[k] = float64(rng.Intn(3))
			}
			v[rng.Intn(4)]++ // never the zero vector
		default:
			for k := range v {
				v[k] = rng.NormFloat64()
			}
		}
		embs = append(embs, v)
	}
	for at := 0; at < n; {
		at = min(n, at+1+rng.Intn(4))
		cuts = append(cuts, at)
	}
	return embs, cuts
}

// TestDistMatrixReplayMatchesNaive is the replay contract as a property:
// however a pool grows, every Cluster call equals the naive reference on
// a fresh matrix, for all linkages and across thresholds.
func TestDistMatrixReplayMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2023))
	replayed, calls := 0, 0
	for trial := 0; trial < 300; trial++ {
		embs, cuts := randomGrowth(rng, 2+rng.Intn(40))
		th := []float64{0.05, 0.3, 0.75, 1.5}[rng.Intn(4)]
		for _, lk := range allLinkages {
			for _, r := range checkGrowReplay(t, embs, cuts, th, lk, nil) {
				replayed += r
				calls++
			}
		}
	}
	if replayed == 0 {
		t.Fatalf("no merge was replayed in %d calls: the property ran on the fallback alone", calls)
	}
	t.Logf("%d merges replayed over %d calls", replayed, calls)
}

// TestDistMatrixConcurrentMatrices clusters growing pools on separate
// matrices at once, as the per-surface workers do, so the race detector
// sees calls share the scratch states; each must still match the
// naive reference.
func TestDistMatrixConcurrentMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type pool struct {
		embs [][]float64
		cuts []int
	}
	pools := make([]pool, 8)
	for i := range pools {
		pools[i].embs, pools[i].cuts = randomGrowth(rng, 20+rng.Intn(20))
	}
	var wg sync.WaitGroup
	for _, p := range pools {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := NewDistMatrix(0.75, AverageLinkage)
			for _, n := range p.cuts {
				m.Grow(p.embs[:n], nil)
				got := m.Cluster()
				want, steps := naiveWeighted(p.embs[:n], 0.75, AverageLinkage)
				if !reflect.DeepEqual(got, want) || !slices.Equal(m.rec, steps) {
					t.Errorf("n=%d: Cluster diverged from the naive reference", n)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDistMatrixServedShapeMatchesFresh is the replay contract on the
// shape of a served hot pool, at a size the naive reference is too slow
// for: 600 mentions of 24 dimensions around three senses, about 40 % of
// them exact copies of an earlier one, grown 1–3 at a time. After every
// Grow, Cluster's partition and merge sequence must equal those of a
// fresh matrix on the same prefix (whose merge loop
// TestAgglomerateMatchesNaiveReference pins to the reference), and most
// of the merges must be kept from the recording.
func TestDistMatrixServedShapeMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	centers := make([][]float64, 3)
	for c := range centers {
		centers[c] = make([]float64, 24)
		for k := range centers[c] {
			centers[c][k] = rng.NormFloat64()
		}
	}
	embs := make([][]float64, 600)
	for i := range embs {
		if i > 0 && rng.Float64() < 0.4 {
			embs[i] = embs[rng.Intn(i)]
			continue
		}
		v := make([]float64, 24)
		for k := range v {
			v[k] = centers[rng.Intn(3)][k] + 0.4*rng.NormFloat64()
		}
		embs[i] = nn.Normalize(v)
	}
	var cuts []int
	for at := 0; at < len(embs); {
		at = min(len(embs), at+1+rng.Intn(3))
		cuts = append(cuts, at)
	}
	for _, lk := range allLinkages {
		m := NewDistMatrix(DefaultThreshold, lk)
		kept, merges := 0, 0
		for _, n := range cuts {
			m.Grow(embs[:n], nil)
			got := m.Cluster()
			fresh := NewDistMatrix(DefaultThreshold, lk)
			fresh.Grow(embs[:n], nil)
			if want := fresh.Cluster(); !reflect.DeepEqual(got, want) || !slices.Equal(m.rec, fresh.rec) {
				t.Fatalf("%s: Cluster at n=%d (replayed %d, kept %d) diverged from a fresh matrix", lk, n, m.Replayed(), m.Kept())
			}
			kept += m.Kept()
			merges += len(m.rec)
		}
		if kept*2 < merges {
			t.Fatalf("%s: kept %d of %d merges; the served shape keeps most", lk, kept, merges)
		}
		t.Logf("%s: kept %d of %d merges over %d calls", lk, kept, merges, len(cuts))
	}
}

// FuzzDistMatrixReplay lets the fuzzer choose the pool and how it
// grows: each byte pair is one mention (four 2-bit coordinates, so
// duplicates and exact ties are the common case) and whether to cluster
// right after appending it.
func FuzzDistMatrixReplay(f *testing.F) {
	f.Add([]byte{0x01, 0, 0x01, 0, 0x04, 0, 0x04, 0, 0x01, 0}, uint8(0), uint8(5))
	f.Add([]byte{0x1b, 1, 0x1b, 0, 0xe4, 1, 0x6c, 0, 0x1b, 0, 0x40, 0}, uint8(1), uint8(7))
	f.Add([]byte{0x40, 1, 0x10, 1, 0x04, 1, 0x01, 0, 0x55, 0}, uint8(2), uint8(15))
	// Each parts from the recording before a step an earlier call
	// kept, so a column that call folded through it is read back from
	// its fold log. The second fails if the fold log is not read: the
	// stale entry (a complete-linkage max) decides a merge height there.
	f.Add([]byte("2000B00000"), uint8('Y'), uint8(5))
	f.Add([]byte("00208070"), uint8(20), uint8(6))
	// One per path past the divergence, as in
	// TestDistMatrixCleanSuffixBuiltCases: a clean merge kept after it;
	// a recorded step skipped; an absorbed clean cluster's entry read
	// from the other survivor's run; a clean column's entry read from
	// its fold log, on a rebuild and on a rebuilt row; a kept step's run
	// copied with fold-logged entries.
	f.Add([]byte{0xbf, 1, 0xc0, 1, 0xc7, 0, 0xc0, 1}, uint8(2), uint8(6))
	f.Add([]byte{0xaf, 1, 0xcb, 1, 0xdd, 0, 0xcb, 0}, uint8(0), uint8(16))
	f.Add([]byte{0x2c, 1, 0x6e, 1, 0x62, 0, 0xa3, 1}, uint8(0), uint8(11))
	f.Add([]byte{0x26, 1, 0xad, 0, 0xa1, 0, 0xa6, 0}, uint8(0), uint8(7))
	f.Add([]byte{0x87, 1, 0x86, 0, 0x5f, 0, 0x87, 0}, uint8(0), uint8(18))
	f.Add([]byte{0x05, 1, 0x4b, 1, 0xb3, 0, 0xe4, 0, 0xb3, 0, 0x09, 0}, uint8(0), uint8(14))
	// One per case of TestDistMatrixWeightBumpBuiltCases, each a pool
	// clustered once and then grown by copies (a repeated byte is a
	// bit-equal embedding): a bumped row that survives its first
	// recorded merge, past the first step; a bumped row merged away,
	// beside a new row; a new embedding arriving twice in one Grow; and
	// a bump with no new row that changes the merge sequence.
	f.Add([]byte{0x04, 1, 0x84, 1, 0x39, 1, 0x79, 1, 0x65, 0, 0x04, 0}, uint8(0), uint8(7))
	f.Add([]byte{0x00, 1, 0x51, 1, 0x12, 1, 0x35, 1, 0x02, 1, 0x26, 1, 0xbf, 0, 0x26, 1, 0xa8, 0}, uint8(0), uint8(7))
	f.Add([]byte{0x09, 1, 0xb4, 1, 0x3e, 1, 0x6c, 1, 0x0a, 1, 0x8b, 0, 0x43, 1, 0x43, 0}, uint8(0), uint8(7))
	f.Add([]byte{0x15, 1, 0x02, 1, 0xb9, 1, 0x9d, 1, 0x87, 0, 0x15, 0}, uint8(0), uint8(7))
	// Since a repeated embedding shares its row, several seeds above
	// that reached a path through exact copies no longer do. These reach
	// them again: the fold's running-minimum updates, the log queue's
	// compaction, a kept step's cache updates of dirty columns and rows,
	// and a kept step's run copied with fold-logged entries.
	f.Add([]byte{0xde, 1, 0x88, 0, 0xe8, 0}, uint8(1), uint8(5))
	f.Add([]byte{0x08, 1, 0x21, 0, 0x09, 0, 0xfe, 0}, uint8(1), uint8(3))
	f.Add([]byte{0xfc, 0, 0x3f, 1, 0x12, 1, 0xc9, 0, 0x23, 0}, uint8(2), uint8(13))
	f.Add([]byte{0x67, 1, 0xbc, 1, 0x86, 0, 0xfc, 1}, uint8(1), uint8(3))
	f.Add([]byte{0x09, 1, 0x94, 1, 0xdb, 0, 0xa9, 0, 0x9f, 1}, uint8(0), uint8(13))
	f.Add([]byte{0xd8, 1, 0x02, 1, 0x37, 0, 0x85, 1}, uint8(1), uint8(7))
	f.Add([]byte{0x52, 0, 0x84, 0, 0x3d, 0, 0xdc, 0, 0xf7, 0}, uint8(1), uint8(8))
	f.Add([]byte{0xed, 0, 0xa7, 0, 0x0b, 0, 0x3c, 1, 0x29, 0}, uint8(1), uint8(14))
	f.Fuzz(func(t *testing.T, data []byte, lkRaw, thRaw uint8) {
		if len(data) > 128 {
			data = data[:128]
		}
		var embs [][]float64
		var cuts []int
		for i := 0; i+1 < len(data); i += 2 {
			b := data[i]
			v := []float64{float64(b & 3), float64(b >> 2 & 3), float64(b >> 4 & 3), float64(b >> 6)}
			if b == 0 {
				v[0] = 1
			}
			embs = append(embs, v)
			if data[i+1]&1 == 0 {
				cuts = append(cuts, len(embs))
			}
		}
		if len(embs) == 0 {
			return
		}
		if len(cuts) == 0 || cuts[len(cuts)-1] != len(embs) {
			cuts = append(cuts, len(embs))
		}
		th := 0.05 + float64(thRaw%20)/10
		checkGrowReplay(t, embs, cuts, th, allLinkages[int(lkRaw)%len(allLinkages)], nil)
	})
}

// TestDistMatrixStoresEachPairOnce pins the packed layout: after every
// Grow, before any Cluster call, the state holds exactly n(n−1)/2
// floats for the n distinct embeddings, and d(i, j) sits at j(j−1)/2 + i,
// bit-equal to nn.CosineDistance between the i-th and j-th distinct
// embeddings in order of first occurrence — on random vectors,
// duplicates, the zero vector and a vector whose norm (1e-13) is below
// the zero-vector cut-off, at any worker count.
func TestDistMatrixStoresEachPairOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	embs := [][]float64{make([]float64, 6), {1e-13, 0, 0, 0, 0, 0}}
	for len(embs) < 33 {
		v := make([]float64, 6)
		for k := range v {
			v[k] = rng.NormFloat64()
		}
		embs = append(embs, v)
		if rng.Intn(4) == 0 {
			embs = append(embs, slices.Clone(embs[rng.Intn(len(embs))]))
		}
	}
	for _, workers := range []int{1, 4} {
		m := NewDistMatrix(0.75, AverageLinkage)
		for _, n := range []int{1, 2, 7, 8, 19, len(embs)} {
			m.Grow(embs[:n], parallel.New(workers))
			rows, _, _ := distinctRows(embs[:n])
			if r := len(rows); len(m.d) != r*(r-1)/2 || m.Rows() != r || m.Len() != n {
				t.Fatalf("workers=%d n=%d: %d rows over %d mentions, state holds %d floats; want %d, %d, %d",
					workers, n, m.Rows(), m.Len(), len(m.d), r, n, r*(r-1)/2)
			}
			for j := range rows {
				for i := 0; i < j; i++ {
					got, want := m.d[j*(j-1)/2+i], nn.CosineDistance(rows[i], rows[j])
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("workers=%d n=%d: d(%d, %d) = %v, nn.CosineDistance %v", workers, n, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestDistMatrixRollbackRestoresSurvivorOnce builds a re-clustering in
// which the new mention turns dirty a cluster that survived two recorded
// steps, so its distances to the clean clusters must come from the
// earlier step's log. Mentions 0°, 1° and 3° merge as (0,1) then (0,2);
// the second call appends 60° and 65°, far from the rest, folds them
// through both steps and merges them as (3,4); the third appends 0.5°,
// closer to mention 0 than step 0's height, so the fold stops before
// step 0 and the first merge takes mention 0 into the new mention.
// Mention 0 turns dirty before step 0, and each d(0, k) with a clean k
// is what the recording held before that step: step 0's log has it (the
// merge-time run for column 2, the fold logs of columns 3 and 4), while
// step 1's holds d(0, k) after step 0. The recorded (3,4), whose
// clusters the new mention leaves clean, is kept. The result must hold
// step 0's values.
func TestDistMatrixRollbackRestoresSurvivorOnce(t *testing.T) {
	embs := [][]float64{unit(0), unit(1), unit(3), unit(60), unit(65), unit(0.5)}
	cuts := []int{3, 5, 6}
	for _, lk := range allLinkages {
		m := NewDistMatrix(0.3, lk)
		var rec []mergeStep
		for _, n := range cuts {
			rec = slices.Clone(m.rec)
			m.Grow(embs[:n], nil)
			m.Cluster()
		}
		survived := map[int]int{}
		for _, st := range rec[m.Replayed():] {
			survived[st.bi]++
		}
		if survived[0] < 2 {
			t.Fatalf("%s: undone steps %v leave mention 0 surviving %d of them; the case needs 2", lk, rec[m.Replayed():], survived[0])
		}
		for _, workers := range []int{1, 4} {
			replayed := checkGrowReplay(t, embs, cuts, 0.3, lk, parallel.New(workers))
			if !slices.Equal(replayed, []int{0, 2, 0}) {
				t.Fatalf("%s: replayed %v, want [0 2 0]", lk, replayed)
			}
		}
	}
}
