package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

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
		want, steps := naiveMerges(PairwiseCosineDistances(embs[:n], nil), th, lk)
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
		// Exact zero distances. The recording is (0,1) then (2,3), both
		// at height 0. A third x ties with step 0 through rows 0 and 1,
		// neither left of bi = 0, so step 0 replays; at step 1 row 0
		// still ties and is left of bi = 2, so (0,4) wins there.
		{"duplicate ties, earlier row wins", [][]float64{x, x, y, y, x}, []int{4, 5}, 0.5, 1},
		// A third y ties only through rows 2 and 3, never left of a
		// recorded bi: both steps replay and (2,4) merges afterwards.
		{"duplicate ties, recorded pair wins", [][]float64{x, x, y, y, y}, []int{4, 5}, 0.5, 2},
		// Clustering again without growing replays everything.
		{"no growth", groups, []int{6, 6}, 0.3, 4},
		// Nothing ever merged: an empty recording, nothing to replay.
		{"empty recording", [][]float64{x, y, z}, []int{2, 3}, 0.5, 0},
		// One mention at a time from the start.
		{"one at a time", groups, []int{1, 2, 3, 4, 5, 6}, 0.3, 3},
		// Rolls back a step an earlier call kept. The first call records
		// (0,1) at ≈ 1.5e-4. The second appends mentions at -4° and 5°,
		// ≥ 2.4e-3 from everything, so it keeps step 0 — folding both
		// columns through it — and merges them in after it. The third
		// appends one at 0.3°, closer to mention 0 than step 0's height,
		// so it rolls back every step: the second call's own, then step
		// 0, whose entries in the two folded columns only their fold log
		// holds.
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

// FuzzDistMatrixReplay lets the fuzzer choose the pool and how it
// grows: each byte pair is one mention (four 2-bit coordinates, so
// duplicates and exact ties are the common case) and whether to cluster
// right after appending it.
func FuzzDistMatrixReplay(f *testing.F) {
	f.Add([]byte{0x01, 0, 0x01, 0, 0x04, 0, 0x04, 0, 0x01, 0}, uint8(0), uint8(5))
	f.Add([]byte{0x1b, 1, 0x1b, 0, 0xe4, 1, 0x6c, 0, 0x1b, 0, 0x40, 0}, uint8(1), uint8(7))
	f.Add([]byte{0x40, 1, 0x10, 1, 0x04, 1, 0x01, 0, 0x55, 0}, uint8(2), uint8(15))
	// Each rolls back a step an earlier call kept, restoring a column
	// that call folded through it. The second fails if only the
	// merge-time log is restored: the stale entry (a complete-linkage
	// max) decides a merge height there.
	f.Add([]byte("2000B00000"), uint8('Y'), uint8(5))
	f.Add([]byte("00208070"), uint8(20), uint8(6))
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
