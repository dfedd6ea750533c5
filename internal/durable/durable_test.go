package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"nerglobalizer/internal/binenc"
	"nerglobalizer/internal/core"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/transformer"
	"nerglobalizer/internal/types"
)

func sampleRecord(seq uint64) *CycleRecord {
	return &CycleRecord{
		Seq:  seq,
		Mode: 3,
		Sentences: []CycleSentence{
			{TweetID: int(seq * 10), SentID: 0, Tokens: []string{"obama", "visits", "paris"}},
			{TweetID: int(seq*10 + 1), SentID: 1, Tokens: []string{"just", "vibes"}},
		},
		Annotations: []SentenceAnnotation{
			{TweetID: int(seq * 10), SentID: 0, Entities: []Entity{
				{Start: 0, End: 1, Type: types.Person, Surface: "Obama"},
				{Start: 2, End: 3, Type: types.Location, Surface: "Paris"},
			}},
			{TweetID: int(seq*10 + 1), SentID: 1},
		},
	}
}

func TestCycleRecordRoundTrip(t *testing.T) {
	rec := sampleRecord(7)
	got, err := decodeCycleRecord(rec.encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(rec, got) {
		t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", rec, got)
	}
}

func TestCycleRecordDecodeNeverPanics(t *testing.T) {
	full := sampleRecord(3).encode()
	// Every strict prefix must error cleanly.
	for n := 0; n < len(full); n++ {
		if _, err := decodeCycleRecord(full[:n]); err == nil {
			t.Fatalf("prefix of %d bytes decoded without error", n)
		}
	}
	// Trailing garbage must error too.
	if _, err := decodeCycleRecord(append(append([]byte{}, full...), 0xFF)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
	// Single-byte corruptions must never panic (errors are fine, and
	// some flips decode to different-but-valid records).
	for i := 0; i < len(full); i++ {
		mut := append([]byte{}, full...)
		mut[i] ^= 0xFF
		decodeCycleRecord(mut)
	}
}

func TestMerkleProofsAllShapes(t *testing.T) {
	for n := 1; n <= 12; n++ {
		leaves := make([]Hash, n)
		for i := range leaves {
			leaves[i] = hashLeaf([]byte{byte(n), byte(i)})
		}
		root := merkleRoot(leaves)
		for i := range leaves {
			got, err := foldPath(leaves[i], auditPath(leaves, i))
			if err != nil {
				t.Fatalf("n=%d leaf %d: %v", n, i, err)
			}
			if got != root {
				t.Fatalf("n=%d leaf %d: path folds to %s, root %s", n, i, got, root)
			}
		}
		// A wrong leaf must not fold to the root.
		if n > 1 {
			got, _ := foldPath(hashLeaf([]byte("forged")), auditPath(leaves, 0))
			if got == root {
				t.Fatalf("n=%d: forged leaf folded to the root", n)
			}
		}
	}
}

func TestMerkleDomainSeparation(t *testing.T) {
	a, b := hashLeaf([]byte("x")), hashLeaf([]byte("y"))
	if hashNode(a, b) == hashNode(b, a) {
		t.Fatal("node hash ignores child order")
	}
	if merkleRoot(nil) != merkleRoot([]Hash{}) {
		t.Fatal("empty root unstable")
	}
	if chainHash(Hash{}, a) == chainHash(a, Hash{}) {
		t.Fatal("chain hash ignores order")
	}
}

func TestWALRoundTripAndTornTail(t *testing.T) {
	dir := t.TempDir()
	w := &wal{dir: dir, maxBytes: defaultSegmentBytes}
	var want []*CycleRecord
	for seq := uint64(1); seq <= 5; seq++ {
		rec := sampleRecord(seq)
		if _, err := w.append(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	got, err := readWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("read %d records, want %d (or content mismatch)", len(got), len(want))
	}

	// Chop bytes off the tail: the torn final frame drops, the rest
	// survives.
	names, _ := segmentFiles(dir)
	path := filepath.Join(dir, names[0])
	b, _ := os.ReadFile(path)
	if err := os.WriteFile(path, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = readWAL(dir)
	if err != nil {
		t.Fatalf("torn tail should recover: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("torn tail kept %d records, want 4", len(got))
	}
}

func TestWALSealedCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	// Tiny segment bound forces one record per segment.
	w := &wal{dir: dir, maxBytes: 1}
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := w.append(sampleRecord(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	names, _ := segmentFiles(dir)
	if len(names) != 3 {
		t.Fatalf("got %d segments, want 3", len(names))
	}
	// Flip a payload byte in the FIRST (sealed) segment: hard error.
	path := filepath.Join(dir, names[0])
	b, _ := os.ReadFile(path)
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readWAL(dir); err == nil {
		t.Fatal("sealed-segment corruption must fail recovery")
	}
}

func TestWALRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	w := &wal{dir: dir, maxBytes: 1}
	for seq := uint64(1); seq <= 6; seq++ {
		if _, err := w.append(sampleRecord(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if n := w.segmentCount(); n != 6 {
		t.Fatalf("got %d segments, want 6", n)
	}
	// Compact through seq 4: segments holding 1..4 go, except any the
	// boundary rules keep; the active segment always survives.
	removed, err := w.compact(4)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 4 {
		t.Fatalf("removed %d segments, want 4", removed)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	got, err := readWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Seq != 5 || got[1].Seq != 6 {
		t.Fatalf("post-compaction records wrong: %d records", len(got))
	}
	// Over-eager compaction must never touch the live tail.
	w2 := &wal{dir: dir, maxBytes: 1}
	if _, err := w2.append(sampleRecord(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.compact(99); err != nil {
		t.Fatal(err)
	}
	w2.close()
	got, err = readWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[len(got)-1].Seq != 7 {
		t.Fatal("compaction deleted the active segment")
	}
}

func sampleWarmState() *core.WarmState {
	m := nn.NewMatrix(2, 3)
	for i := range m.Data {
		m.Data[i] = float64(i) * 0.25
	}
	key := types.SentenceKey{TweetID: 1, SentID: 0}
	return &core.WarmState{
		Precision:  "f64",
		ShardIndex: 0,
		ShardCount: 2,
		Surfaces:   []string{"obama", "paris"},
		Records: []core.RecordState{{
			TweetID: 1, SentID: 0,
			Tokens: []string{"obama", "in", "paris"},
			Local:  []types.Entity{{Span: types.Span{Start: 0, End: 1}, Type: types.Person}},
			Emb:    m,
			Final: []types.Mention{{
				Key: key, Span: types.Span{Start: 0, End: 1},
				Surface: "obama", Type: types.Person, FromLocalNER: true,
			}},
		}},
		Amort: &core.AmortState{
			ScannedLen: 1, TrieLen: 2, MentionCount: 2, Mode: 3,
			Scans: []core.ScanState{{Key: key, Mentions: []types.Mention{{
				Key: key, Span: types.Span{Start: 0, End: 1},
				Surface: "obama", Type: types.Person, FromLocalNER: true,
			}}}},
			Surfaces: []core.SurfaceState{
				{Surface: "obama",
					Pool: []types.Mention{{Key: key, Span: types.Span{Start: 0, End: 1}, Surface: "obama", Type: types.Person, FromLocalNER: true}},
					Cands: []core.CandState{{
						ClusterID: 0, Members: []int{0},
						GlobalEmb: []float64{0.5, -0.5}, Type: types.Person, Conf: 0.93,
					}},
				},
				{Surface: "paris", Pool: []types.Mention{{Key: key, Span: types.Span{Start: 2, End: 3}, Surface: "paris"}}, Skip: true},
			},
			Embeds: []core.MentionEmbed{{Key: key, Span: types.Span{Start: 0, End: 1}, Vec: []float64{1, 2, 3}}},
		},
	}
}

func TestWarmStateCodecRoundTrip(t *testing.T) {
	ws := sampleWarmState()
	w := &binenc.Writer{}
	putWarmState(w, ws)
	r := &binenc.Reader{B: w.Buf}
	got := getWarmState(r)
	if err := r.Done(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(ws, got) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", ws, got)
	}
	// Truncations error, never panic.
	for n := 0; n < len(w.Buf); n++ {
		r := &binenc.Reader{B: w.Buf[:n]}
		getWarmState(r)
		if r.Done() == nil {
			t.Fatalf("prefix of %d bytes decoded cleanly", n)
		}
	}
}

func TestSnapshotRoundTripAndFallback(t *testing.T) {
	dir := t.TempDir()
	s1 := &Snapshot{Kind: KindShard, Seq: 10, NextID: 42, LastResp: []byte{1, 2, 3},
		Warm: sampleWarmState(),
		Provenance: []CycleProv{{Seq: 10, Annotations: []SentenceAnnotation{
			{TweetID: 1, SentID: 0, Entities: []Entity{{Start: 0, End: 1, Type: types.Person, Surface: "Obama"}}},
		}}},
	}
	if _, err := WriteSnapshot(dir, s1); err != nil {
		t.Fatal(err)
	}
	s2 := &Snapshot{Kind: KindShard, Seq: 20, NextID: 99, Warm: sampleWarmState()}
	if _, err := WriteSnapshot(dir, s2); err != nil {
		t.Fatal(err)
	}
	load := func() (*Snapshot, error) {
		snap, _, _, err := loadSnapshotChain(dir)
		return snap, err
	}
	got, err := load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s2, got) {
		t.Fatal("latest snapshot mismatch")
	}
	// Corrupt the newest: the loader falls back to the previous one.
	path := filepath.Join(dir, snapshotName(20))
	b, _ := os.ReadFile(path)
	b[len(b)-1] ^= 0xFF
	os.WriteFile(path, b, 0o644)
	got, err = load()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Seq != 10 {
		t.Fatal("loader did not fall back to the previous valid snapshot")
	}
	if !reflect.DeepEqual(s1, got) {
		t.Fatal("fallback snapshot mismatch")
	}
	// A leftover tmp file is ignored.
	os.WriteFile(filepath.Join(dir, snapshotName(30)+".tmp"), []byte("junk"), 0o644)
	if got, err = load(); err != nil || got.Seq != 10 {
		t.Fatalf("tmp leftover broke loading: %v", err)
	}
}

func TestProvenanceBundleVerify(t *testing.T) {
	p := NewProvenance()
	for seq := uint64(1); seq <= 5; seq++ {
		rec := sampleRecord(seq)
		p.AppendCycle(seq, rec.Annotations)
	}
	// Tweet 30 was annotated in cycle 3; links must walk to the head.
	b, ok := p.BundleForTweet(30, -1)
	if !ok {
		t.Fatal("no bundle for annotated tweet")
	}
	if n, err := b.Verify(); err != nil || n != 1 {
		t.Fatalf("verify: n=%d err=%v", n, err)
	}
	// Multi-sentence tweet: both proofs verify.
	b31, ok := p.BundleForTweet(31, 2)
	if !ok || len(b31.Proofs) != 1 || b31.Shard != 2 {
		t.Fatalf("bundle shape wrong: %+v", b31)
	}
	if _, err := b31.Verify(); err != nil {
		t.Fatal(err)
	}
	// Unknown tweet: no bundle.
	if _, ok := p.BundleForTweet(999, -1); ok {
		t.Fatal("bundle for unknown tweet")
	}
	// Tampering with the annotation must fail verification.
	b.Proofs[0].Annotation.Entities[0].Type = types.Location
	if _, err := b.Verify(); err == nil {
		t.Fatal("tampered annotation verified")
	}
}

func TestProvenanceRestoreMatches(t *testing.T) {
	p := NewProvenance()
	for seq := uint64(1); seq <= 4; seq++ {
		p.AppendCycle(seq, sampleRecord(seq).Annotations)
	}
	q := RestoreProvenance(p.Cycles())
	pSeq, pHead, _ := p.Head()
	qSeq, qHead, _ := q.Head()
	if pSeq != qSeq || pHead != qHead {
		t.Fatalf("restored head %d/%s, want %d/%s", qSeq, qHead, pSeq, pHead)
	}
	// Codec round trip of the snapshot form.
	w := &binenc.Writer{}
	putProvCycles(w, p.Cycles())
	r := &binenc.Reader{B: w.Buf}
	got := getProvCycles(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Cycles(), got) {
		t.Fatal("provenance codec round trip mismatch")
	}
}

func TestLogOpenAppendRecover(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, Options{SnapshotEvery: 2, Fsync: FsyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Tail) != 0 {
		t.Fatal("cold open found state")
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if err := l.Append(sampleRecord(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if !l.ShouldSnapshot(5) {
		t.Fatal("snapshot overdue but not scheduled")
	}
	snap := &Snapshot{Kind: KindSingle, Seq: 3, NextID: 30, Warm: sampleWarmState()}
	if ok, err := l.SaveSnapshot(snap, 3); err != nil || !ok {
		t.Fatalf("save: ok=%v err=%v", ok, err)
	}
	if l.ShouldSnapshot(4) {
		t.Fatal("snapshot schedule ignored the fresh snapshot")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2, err := Open(dir, Options{Fsync: FsyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec2.Snapshot == nil || rec2.Snapshot.Seq != 3 {
		t.Fatal("reopen lost the snapshot")
	}
	if len(rec2.Tail) != 2 || rec2.Tail[0].Seq != 4 || rec2.Tail[1].Seq != 5 {
		t.Fatalf("reopen tail wrong: %d records", len(rec2.Tail))
	}
	if !bytes.Equal(rec2.Tail[0].encode(), sampleRecord(4).encode()) {
		t.Fatal("tail record content mismatch")
	}
}

func TestLogRefusesCompactedGap(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: FsyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.w.maxBytes = 1 // one record per segment
	for seq := uint64(1); seq <= 4; seq++ {
		if err := l.Append(sampleRecord(seq)); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot at 2 compacts segments 1..2 away; then delete the
	// snapshot to fake a gap.
	if ok, err := l.SaveSnapshot(&Snapshot{Kind: KindSingle, Seq: 2}, 2); err != nil || !ok {
		t.Fatal(err)
	}
	l.Close()
	if err := os.Remove(filepath.Join(dir, snapshotName(2))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{Fsync: FsyncNone}, nil); err == nil {
		t.Fatal("gap between snapshot coverage and WAL tail must fail open")
	}
}

func TestParseFsync(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
		ok   bool
	}{{"", FsyncGroup, true}, {"NONE", FsyncNone, true}, {"Group", FsyncGroup, true}, {"always", FsyncGroup, false}, {"sometimes", FsyncGroup, false}} {
		got, err := ParseFsync(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParseFsync(%q) = %v, %v", tc.in, got, err)
		}
	}
	// The removed policy's error names its replacement.
	if _, err := ParseFsync("always"); err == nil || !strings.Contains(err.Error(), "group") {
		t.Fatalf("ParseFsync(\"always\") error %v does not name group", err)
	}
	if FsyncNone.String() != "none" || FsyncGroup.String() != "group" {
		t.Fatal("policy names wrong")
	}
}

// TestGroupCommitAppendRecover exercises the group-commit batcher, which
// the zero Options select: AppendAsync returns before any fsync,
// concurrent waits all resolve once covering flushes complete, the
// backlog drains to zero, and a reopen recovers every appended record
// in order.
func TestGroupCommitAppendRecover(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Tail) != 0 {
		t.Fatal("fresh dir must recover empty")
	}
	const n = 32
	waits := make([]func() error, n)
	for i := 0; i < n; i++ {
		w, err := l.AppendAsync(sampleRecord(uint64(i + 1)))
		if err != nil {
			t.Fatalf("append %d: %v", i+1, err)
		}
		waits[i] = w
	}
	var wg sync.WaitGroup
	werrs := make([]error, n)
	for i := range waits {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			werrs[i] = waits[i]()
		}(i)
	}
	wg.Wait()
	for i, err := range werrs {
		if err != nil {
			t.Fatalf("wait %d: %v", i+1, err)
		}
	}
	if st := l.Status(); st.Fsync != "group" || st.WALBacklog != 0 {
		t.Fatalf("status after drain = %+v", st)
	}
	// A record whose wait is never called must still persist: Close
	// seals the segment with its own sync.
	if _, err := l.AppendAsync(sampleRecord(n + 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec2, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Tail) != n+1 {
		t.Fatalf("recovered %d records, want %d", len(rec2.Tail), n+1)
	}
	for i, r := range rec2.Tail {
		if r.Seq != uint64(i+1) {
			t.Fatalf("tail[%d].Seq = %d", i, r.Seq)
		}
	}
}

// TestGroupCommitBlockingAppend checks the plain Append wrapper under
// fsync=group: it must not return until the record is covered, so the
// router's intent journal keeps its journal-before-fan-out guarantee.
func TestGroupCommitBlockingAppend(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: FsyncGroup}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		if err := l.Append(sampleRecord(seq)); err != nil {
			t.Fatal(err)
		}
		if st := l.Status(); st.WALBacklog != 0 {
			t.Fatalf("backlog %d after blocking append of seq %d", st.WALBacklog, seq)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotWriterContract pins the one snapshot writer. From
// EngineSnapshot until its write ends, ShouldSnapshot is false and one
// snapshot reads as pending. A submit that finds the writer busy and its
// queue full returns at once and drops its capture (were it to block,
// this test would hang: it holds the lock the stalled writer waits on),
// so the next capture is a base. Close drains what is queued, and a
// reopen recovers that snapshot plus the WAL past it.
func TestSnapshotWriterContract(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: FsyncNone, SnapshotEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, prov := testEngine(), NewProvenance()
	seq := uint64(0)
	advance := func() { seq++; engineCycle(g, prov, seq) }
	cycle := func() {
		t.Helper()
		advance()
		if err := l.Append(sampleRecord(seq)); err != nil {
			t.Fatal(err)
		}
	}
	pending := func() int { return l.Status().SnapshotPending }
	waitFor := func(cond func() bool) {
		for !cond() {
			time.Sleep(100 * time.Microsecond)
		}
	}
	// Warm up first: early in a stream a delta is as large as its base,
	// and the size bound alone would make the last capture below a base.
	for seq < 40 {
		cycle()
	}
	if !l.ShouldSnapshot(seq) || pending() != 0 {
		t.Fatal("an idle writer at cadence 1 must call for a snapshot")
	}
	s1 := l.EngineSnapshot(KindSingle, seq, g, prov)
	if l.ShouldSnapshot(seq+1) || pending() != 1 {
		t.Fatalf("a capture on its way to the writer: ShouldSnapshot %v, pending %d", l.ShouldSnapshot(seq+1), pending())
	}

	// Stall the writer once s1's file has landed: compaction, the last
	// step of its write, takes the WAL lock.
	l.mu.Lock()
	l.SubmitSnapshot(s1)
	waitFor(func() bool { l.cmu.Lock(); defer l.cmu.Unlock(); return l.tipSeq == s1.Seq })
	if l.ShouldSnapshot(seq+1) || pending() != 1 {
		t.Fatalf("a write in flight: ShouldSnapshot %v, pending %d", l.ShouldSnapshot(seq+1), pending())
	}
	advance()
	l.SubmitSnapshot(l.EngineSnapshot(KindSingle, seq, g, prov)) // queued behind s1
	advance()
	l.SubmitSnapshot(l.EngineSnapshot(KindSingle, seq, g, prov)) // queue full: dropped
	if got := pending(); got != 2 {
		t.Fatalf("one write in flight and one queued read as %d pending", got)
	}
	l.mu.Unlock()
	for s := seq - 1; s <= seq; s++ {
		if err := l.Append(sampleRecord(s)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(func() bool { return pending() == 0 })

	cycle()
	if !l.ShouldSnapshot(seq) {
		t.Fatal("the writer is idle again: the schedule must call for a snapshot")
	}
	last := l.EngineSnapshot(KindSingle, seq, g, prov)
	if last.Delta != nil || last.Warm == nil {
		t.Fatal("the capture after a dropped one must be a base")
	}
	l.SubmitSnapshot(last)
	cycle()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := pending(); got != 0 {
		t.Fatalf("Close left %d snapshots pending", got)
	}
	_, rec, err := Open(dir, Options{Fsync: FsyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || rec.Snapshot.Seq != last.Seq || rec.Snapshot.Warm == nil {
		t.Fatalf("recovery snapshot = %+v, want the base at seq %d", rec.Snapshot, last.Seq)
	}
	if len(rec.Tail) != 1 || rec.Tail[0].Seq != seq {
		t.Fatalf("recovery tail = %+v, want just seq %d", rec.Tail, seq)
	}
}

// TestSnapshotWriterDeathFallsBack proves the restart contract when the
// snapshot writer dies mid-file: an orphan .tmp and even a corrupt
// completed snapshot are skipped, and recovery falls back to the
// previous valid snapshot plus the WAL tail past it.
func TestSnapshotWriterDeathFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: FsyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.Append(sampleRecord(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := l.SaveSnapshot(&Snapshot{Kind: KindSingle, Seq: 1}, 0); err != nil || !ok {
		t.Fatalf("snapshot: ok=%v err=%v", ok, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A writer killed mid-file leaves a partial .tmp that never renamed.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(3)+".tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// And a torn rename/written-then-corrupted newest snapshot must fall
	// back rather than fail.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(2)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Options{Fsync: FsyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || rec.Snapshot.Seq != 1 {
		t.Fatalf("recovery snapshot = %+v, want fallback to seq 1", rec.Snapshot)
	}
	if len(rec.Tail) != 2 || rec.Tail[0].Seq != 2 || rec.Tail[1].Seq != 3 {
		t.Fatalf("recovery tail = %+v, want seqs 2,3", rec.Tail)
	}
}

// sampleWarmDelta is a delta that extends sampleWarmState: one more
// record mentioning "obama", whose pool grows by that mention.
func sampleWarmDelta() *core.WarmDelta {
	key := types.SentenceKey{TweetID: 2, SentID: 0}
	men := types.Mention{Key: key, Span: types.Span{Start: 1, End: 2}, Surface: "obama"}
	m := nn.NewMatrix(2, 3)
	return &core.WarmDelta{
		BaseRecords: 1,
		Surfaces:    []string{"rome"},
		Records: []core.RecordState{{
			TweetID: 2, SentID: 0, Tokens: []string{"hi", "obama"}, Emb: m,
			Final: []types.Mention{men},
		}},
		Finals:     []core.ScanState{{Key: types.SentenceKey{TweetID: 1}, Mentions: nil}},
		ScannedLen: 2, TrieLen: 3, MentionCount: 3, Mode: 3,
		Scans: []core.ScanState{{Key: key, Mentions: []types.Mention{men}}},
		Pools: []core.SurfaceDelta{{
			Surface: "obama", PoolFrom: 1, Pool: []types.Mention{men},
			Cands: []core.CandState{{ClusterID: 0, Members: []int{0, 1}, GlobalEmb: []float64{0.25, 0.75}, Type: types.Person, Conf: 0.9}},
		}},
		Deleted: []string{"paris"},
		Embeds:  []core.MentionEmbed{{Key: key, Span: types.Span{Start: 1, End: 2}, Vec: []float64{4, 5, 6}}},
	}
}

func TestWarmDeltaCodecRoundTrip(t *testing.T) {
	d := sampleWarmDelta()
	w := &binenc.Writer{}
	putWarmDelta(w, d)
	r := &binenc.Reader{B: w.Buf}
	got := getWarmDelta(r)
	if err := r.Done(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(d, got) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", d, got)
	}
	for n := 0; n < len(w.Buf); n++ {
		r := &binenc.Reader{B: w.Buf[:n]}
		getWarmDelta(r)
		if r.Done() == nil {
			t.Fatalf("prefix of %d bytes decoded cleanly", n)
		}
	}
}

// payload encodes a snapshot's payload in memory.
func payload(s *Snapshot) []byte {
	w := &binenc.Writer{}
	s.encode(w)
	return w.Buf
}

// TestSnapshotStreamsInChunks pins the streamed file format: a payload
// larger than one chunk is flushed chunk by chunk, and the file it
// leaves is the header, with the checksum of the whole payload patched
// in, followed by exactly the in-memory encoding.
func TestSnapshotStreamsInChunks(t *testing.T) {
	ws := sampleWarmState()
	big := nn.NewMatrix(700, 1000) // 5.6 MB of floats: more than one chunk
	for i := range big.Data {
		big.Data[i] = float64(i%977) * 0.5
	}
	ws.Records[0].Emb = big
	snap := &Snapshot{Kind: KindSingle, Seq: 9, NextID: 4, Warm: ws}
	dir := t.TempDir()
	size, err := WriteSnapshot(dir, snap)
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(dir, snapshotName(9)))
	if err != nil {
		t.Fatal(err)
	}
	want := payload(snap)
	if len(want) <= binenc.FlushBytes {
		t.Fatalf("payload of %d bytes fits one chunk", len(want))
	}
	if int64(len(file)) != size || !bytes.Equal(file[16:], want) {
		t.Fatalf("file of %d bytes (reported %d) is not header + %d payload bytes", len(file), size, len(want))
	}
	got, err := readSnapshot(filepath.Join(dir, snapshotName(9)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatal("streamed snapshot did not read back")
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(names) != 0 {
		t.Fatalf("left %v behind", names)
	}
}

// chainFixture writes a base at seq 10 and three deltas (20, 30, 40)
// into dir and returns the states recovery should produce at each link.
func chainFixture(t *testing.T, dir string) (at map[uint64]*core.WarmState) {
	t.Helper()
	// The first delta is the sample; later links only append a record.
	deltas := []*core.WarmDelta{sampleWarmDelta()}
	for i := 1; i < 3; i++ {
		deltas = append(deltas, &core.WarmDelta{
			BaseRecords: 1 + i, ScannedLen: 2 + i, TrieLen: 3, MentionCount: 3, Mode: 3,
			Records: []core.RecordState{{TweetID: 2 + i, Tokens: []string{"filler"}}},
			Scans:   []core.ScanState{{Key: types.SentenceKey{TweetID: 2 + i}}},
		})
	}
	base := &Snapshot{Kind: KindShard, Seq: 10, NextID: 1, LastResp: []byte{1}, Warm: sampleWarmState(),
		Provenance: []CycleProv{{Seq: 10}}}
	if _, err := WriteSnapshot(dir, base); err != nil {
		t.Fatal(err)
	}
	at = map[uint64]*core.WarmState{10: sampleWarmState()}
	for i, d := range deltas {
		seq := uint64(20 + 10*i)
		snap := &Snapshot{Kind: KindShard, Seq: seq, Prev: seq - 10, NextID: 2 + i, LastResp: []byte{byte(seq)},
			Delta: d, Provenance: []CycleProv{{Seq: seq}}}
		if _, err := WriteSnapshot(dir, snap); err != nil {
			t.Fatal(err)
		}
		// The expected state at this link: the base with every delta so
		// far applied, built from scratch (Apply merges in place).
		want := sampleWarmState()
		for _, applied := range deltas[:i+1] {
			if err := want.Apply(applied); err != nil {
				t.Fatal(err)
			}
		}
		at[seq] = want
	}
	return at
}

func warmPayload(ws *core.WarmState) []byte {
	w := &binenc.Writer{}
	putWarmState(w, ws)
	return w.Buf
}

// TestSnapshotChainRecovery walks the chain loader through the damage
// it must absorb: an orphan .tmp past the tip, a stale chain older than
// the base, a bit-flipped middle delta (the chain ends at the link
// before it), a missing base.
func TestSnapshotChainRecovery(t *testing.T) {
	dir := t.TempDir()
	at := chainFixture(t, dir)
	check := func(what string, wantSeq, wantBase uint64, wantLen int) {
		t.Helper()
		got, base, n, err := loadSnapshotChain(dir)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got.Seq != wantSeq || base != wantBase || n != wantLen {
			t.Fatalf("%s: chain ends at %d (base %d, %d files), want %d (base %d, %d files)", what, got.Seq, base, n, wantSeq, wantBase, wantLen)
		}
		if got.Prev != 0 || got.Delta != nil || !bytes.Equal(warmPayload(got.Warm), warmPayload(at[wantSeq])) {
			t.Fatalf("%s: merged state at %d is not base + deltas", what, wantSeq)
		}
		if got.LastResp[0] != byte(wantSeq) && wantSeq != 10 {
			t.Fatalf("%s: last response not taken from the newest link", what)
		}
		if len(got.Provenance) != wantLen || got.Provenance[wantLen-1].Seq != wantSeq {
			t.Fatalf("%s: provenance %+v does not follow the chain", what, got.Provenance)
		}
	}
	check("intact chain", 40, 10, 4)

	// A delta whose writer died: never renamed, never read.
	os.WriteFile(filepath.Join(dir, snapshotName(50)+".tmp"), []byte("partial delta"), 0o644)
	check("orphan tmp delta", 40, 10, 4)

	// A bit flip in the middle delta ends the chain at the link before
	// it; the newer delta extends a snapshot recovery no longer has.
	path := filepath.Join(dir, snapshotName(30))
	b, _ := os.ReadFile(path)
	b[len(b)/2] ^= 0x10
	os.WriteFile(path, b, 0o644)
	check("bit-flipped middle delta", 20, 10, 2)

	// A newer base makes everything before it unread, damaged or not.
	if _, err := WriteSnapshot(dir, &Snapshot{Kind: KindShard, Seq: 60, NextID: 9, LastResp: []byte{60}, Warm: at[40],
		Provenance: []CycleProv{{Seq: 60}}}); err != nil {
		t.Fatal(err)
	}
	at[60] = at[40]
	check("newer base", 60, 60, 1)

	// Deltas without any base are a damaged directory, not a cold start.
	os.Remove(filepath.Join(dir, snapshotName(60)))
	os.Remove(filepath.Join(dir, snapshotName(10)))
	if _, _, _, err := loadSnapshotChain(dir); err == nil {
		t.Fatal("a directory of deltas without a base loaded")
	}
}

// TestOpenNeedsWALFromBrokenLink: when a damaged delta shortens the
// chain, the WAL tail must reach back to the last good link — Open
// refuses a compacted gap exactly as it does behind a lone snapshot.
func TestOpenNeedsWALFromBrokenLink(t *testing.T) {
	for _, compacted := range []bool{false, true} {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{Fsync: FsyncNone}, nil)
		if err != nil {
			t.Fatal(err)
		}
		l.w.maxBytes = 1 // one record per segment
		for seq := uint64(1); seq <= 45; seq++ {
			if err := l.Append(sampleRecord(seq)); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		chainFixture(t, dir)
		if compacted {
			// What landing the delta at 40 did: segments through 40 are gone.
			for seq := uint64(1); seq <= 40; seq++ {
				os.Remove(filepath.Join(dir, segmentName(seq)))
			}
		}
		path := filepath.Join(dir, snapshotName(30))
		b, _ := os.ReadFile(path)
		b[len(b)-3] ^= 0x01
		os.WriteFile(path, b, 0o644)

		l2, rec, err := Open(dir, Options{Fsync: FsyncNone}, nil)
		if compacted {
			if err == nil {
				l2.Close()
				t.Fatal("gap between the last good link and the WAL tail must fail open")
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Snapshot.Seq != 20 || len(rec.Tail) != 25 || rec.Tail[0].Seq != 21 {
			t.Fatalf("recovered to seq %d with a tail of %d records", rec.Snapshot.Seq, len(rec.Tail))
		}
		if st := l2.Status(); st.ChainLength != 2 || st.BaseSeq != 10 {
			t.Fatalf("status after open: %+v", st)
		}
		l2.Close()
	}
}

// testEngine is a small untrained engine: enough to grow real warm
// state for the chain-rule tests, whatever it happens to annotate.
func testEngine() *core.Globalizer {
	cfg := core.DefaultConfig()
	cfg.Encoder = transformer.Config{
		Dim: 16, Heads: 2, Layers: 1, FFDim: 32, MaxLen: 20,
		VocabBuckets: 256, CharBuckets: 64, Dropout: 0, Seed: 3,
	}
	cfg.EnsembleSize = 1
	return core.New(cfg)
}

// engineCycle runs one cycle whose last sentence is tagged as the
// entity "acme corp", so every cycle grows that surface's pool.
func engineCycle(g *core.Globalizer, prov *Provenance, seq uint64) {
	batch := []*types.Sentence{
		{TweetID: int(seq), Tokens: []string{"cycle", "filler", "words"}},
		{TweetID: int(seq), SentID: 1, Tokens: []string{"news", "from", "acme", "corp", "today"}},
	}
	tagged := g.TagBatch(batch)
	tagged[1].Entities = []types.Entity{{Span: types.Span{Start: 2, End: 4}, Type: types.Organization}}
	final := g.ProcessTagged(batch, tagged, core.ModeFull)
	prov.AppendCycle(seq, RenderAnnotations(batch, final))
}

// TestChainRuleBaseOrDelta drives EngineSnapshot through every branch
// of the rule: base first, deltas while they land, a base again after a
// capture that was dropped, after a write that failed, and once the
// deltas have grown to the base's size; every landed base leaves only
// itself and what follows in the directory.
func TestChainRuleBaseOrDelta(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l, _, err := Open(dir, Options{Fsync: FsyncNone, SnapshotEvery: 1}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	g, prov := testEngine(), NewProvenance()
	seq := uint64(0)
	capture := func() *Snapshot {
		seq++
		engineCycle(g, prov, seq)
		if !l.ShouldSnapshot(seq) {
			t.Fatalf("seq %d: schedule at cadence 1 with an idle writer must call for a snapshot", seq)
		}
		snap := l.EngineSnapshot(KindSingle, seq, g, prov)
		if l.ShouldSnapshot(seq + 1) {
			t.Fatalf("seq %d: a capture on its way to the writer must hold the schedule", seq)
		}
		return snap
	}
	land := func(snap *Snapshot) {
		t.Helper()
		if ok, err := l.SaveSnapshot(snap, snap.Seq); err != nil || !ok {
			t.Fatalf("seq %d: ok=%v err=%v", snap.Seq, ok, err)
		}
	}
	files := func() []string {
		names, _ := filepath.Glob(filepath.Join(dir, "snap-*"))
		for i := range names {
			names[i] = filepath.Base(names[i])
		}
		sort.Strings(names)
		return names
	}
	isBase := func(s *Snapshot) bool { return s.Prev == 0 && s.Delta == nil && s.Warm != nil }
	isDelta := func(s *Snapshot, prev uint64) bool { return s.Prev == prev && s.Delta != nil && s.Warm == nil }

	// Warm up first: early in a stream a delta is as large as its base
	// and the size bound alone would force base after base.
	for seq < 40 {
		seq++
		engineCycle(g, prov, seq)
	}
	s1 := capture()
	if !isBase(s1) || len(s1.Provenance) != 41 {
		t.Fatal("the first snapshot after Open must be a base carrying every cycle")
	}
	land(s1)
	s2 := capture()
	if !isDelta(s2, 41) || len(s2.Provenance) != 1 || s2.Provenance[0].Seq != 42 {
		t.Fatalf("seq 42: want a delta on 41 carrying cycle 42, got prev %d, %d cycles", s2.Prev, len(s2.Provenance))
	}
	land(s2)

	// Dropped on the way to the writer (here: bounced off a write in
	// progress): the engine's change log has moved on, so the next
	// capture cannot extend snapshot 42.
	s3 := capture()
	if !isDelta(s3, 42) {
		t.Fatal("seq 43: want a delta on 42")
	}
	l.snapBusy.Store(true)
	l.SubmitSnapshot(s3)
	for dropped := false; !dropped; time.Sleep(100 * time.Microsecond) {
		l.cmu.Lock()
		dropped = !l.captured
		l.cmu.Unlock()
	}
	l.snapBusy.Store(false)
	s4 := capture()
	if !isBase(s4) || len(s4.Provenance) != 44 {
		t.Fatal("seq 44: the capture after a dropped delta must be a base")
	}
	land(s4)
	if got := files(); !reflect.DeepEqual(got, []string{snapshotName(44)}) {
		t.Fatalf("a landed base must leave only itself, directory holds %v", got)
	}

	// A write that fails (the tmp path is a directory) forces a base too,
	// and the next base sweeps the wreck away.
	s5 := capture()
	if !isDelta(s5, 44) {
		t.Fatal("seq 45: want a delta on 44")
	}
	if err := os.Mkdir(filepath.Join(dir, snapshotName(45)+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if ok, err := l.SaveSnapshot(s5, s5.Seq); ok || err == nil {
		t.Fatalf("seq 45: write into a directory succeeded: ok=%v err=%v", ok, err)
	}
	if st := l.Status(); st.ChainLength != 1 || st.BaseSeq != 44 || st.SnapshotPending != 0 {
		t.Fatalf("after the failed delta: %+v", st)
	}
	s6 := capture()
	if !isBase(s6) {
		t.Fatal("seq 46: the capture after a failed write must be a base")
	}
	land(s6)
	if got := files(); !reflect.DeepEqual(got, []string{snapshotName(46)}) {
		t.Fatalf("base 46 must sweep the failed write's tmp away, directory holds %v", got)
	}

	// A delta is never written against a predecessor that is not the
	// newest landed snapshot.
	s7 := capture()
	if !isDelta(s7, 46) {
		t.Fatal("seq 47: want a delta on 46")
	}
	land(&Snapshot{Kind: KindSingle, Seq: 47, Warm: g.CaptureWarmState(), Provenance: prov.Cycles()})
	if ok, err := l.SaveSnapshot(s7, s7.Seq); ok || err != nil {
		t.Fatalf("seq 47: an orphaned delta must be discarded: ok=%v err=%v", ok, err)
	}

	// Deltas land on that base until their bytes reach its own; then a
	// base again.
	var deltaBytes int64
	baseBytes := reg.Snapshot().Gauges["ner_snapshot_bytes"]
	for n := 1; ; n++ {
		snap := capture()
		if deltaBytes >= baseBytes {
			if !isBase(snap) {
				t.Fatalf("seq %d: %d delta bytes on a base of %d, want a new base", seq, deltaBytes, baseBytes)
			}
			land(snap)
			if got := files(); !reflect.DeepEqual(got, []string{snapshotName(seq)}) {
				t.Fatalf("directory after the new base: %v", got)
			}
			break
		}
		if !isDelta(snap, seq-1) {
			t.Fatalf("seq %d: %d delta bytes on a base of %d, want a delta", seq, deltaBytes, baseBytes)
		}
		land(snap)
		deltaBytes += reg.Snapshot().Gauges["ner_snapshot_bytes"]
		if st := l.Status(); st.ChainLength != n+1 || st.BaseSeq != 47 || len(files()) != n+1 {
			t.Fatalf("seq %d: status %+v, directory %v", seq, st, files())
		}
		if n > 200 {
			t.Fatal("deltas never added up to the base")
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["ner_snapshot_errors_total"] != 1 || snap.Gauges["ner_snapshot_chain_length"] != 1 {
		t.Fatalf("errors %d, chain length %d", snap.Counters["ner_snapshot_errors_total"], snap.Gauges["ner_snapshot_chain_length"])
	}
	if h := snap.Histograms["ner_snapshot_capture_seconds"]; h.Count != int64(seq-40) {
		t.Fatalf("%d captures timed, want %d", h.Count, seq-40)
	}

	// Recovery merges the chain it finds to the engine's state.
	l.Close()
	_, rec, err := Open(dir, Options{Fsync: FsyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot.Seq != seq || !bytes.Equal(warmPayload(rec.Snapshot.Warm), warmPayload(g.CaptureWarmState())) {
		t.Fatal("reopened state is not the engine's")
	}
}

// FuzzSnapshotDecode feeds the snapshot payload decoder arbitrary
// bytes: it must return a snapshot or an error, never panic or hang,
// and whatever decodes must re-encode to something that decodes again.
func FuzzSnapshotDecode(f *testing.F) {
	for _, s := range snapshotSeeds() {
		f.Add(payload(s))
	}
	f.Add(parentRouterPayload(&Snapshot{Kind: KindRouter, Seq: 5, NextID: 7}, []CycleSentence{{TweetID: 1, Tokens: []string{"a", "b"}}}))
	f.Add(wrappedShapePayload())
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := decodeSnapshotPayload(b)
		if err != nil {
			return
		}
		if _, err := decodeSnapshotPayload(payload(s)); err != nil {
			t.Fatalf("decoded snapshot does not survive re-encoding: %v", err)
		}
	})
}

func snapshotSeeds() []*Snapshot {
	prov := []CycleProv{{Seq: 10, Annotations: []SentenceAnnotation{
		{TweetID: 1, SentID: 0, Entities: []Entity{{Start: 0, End: 1, Type: types.Person, Surface: "Obama"}}},
	}}}
	return []*Snapshot{
		{Kind: KindShard, Seq: 10, NextID: 42, LastResp: []byte{1, 2, 3}, Warm: sampleWarmState(), Provenance: prov},
		{Kind: KindSingle, Seq: 20, Prev: 10, NextID: 43, Delta: sampleWarmDelta(), Provenance: prov},
		{Kind: KindRouter, Seq: 5, NextID: 7},
	}
}

// wrappedShapePayload is a base whose one record claims a 2^62 x 4
// embedding matrix and carries no values: the product wraps to 0.
func wrappedShapePayload() []byte {
	ws := sampleWarmState()
	ws.Records[0].Emb = &nn.Matrix{Rows: 1 << 62, Cols: 4}
	return payload(&Snapshot{Kind: KindSingle, Seq: 10, Warm: ws})
}

// parentRouterPayload is a router snapshot payload as builds before the
// router stopped holding the stream wrote it: the trailing sentence list
// populated instead of empty.
func parentRouterPayload(s *Snapshot, sents []CycleSentence) []byte {
	w := &binenc.Writer{Buf: payload(s)}
	w.Buf = w.Buf[:len(w.Buf)-4] // the empty list's count
	PutCycleSentences(w, sents)
	return w.Buf
}

// TestSnapshotDecodeMutationsNeverPanic truncates and corrupts the v2
// payload of a base, a delta and a router snapshot at every byte.
func TestSnapshotDecodeMutationsNeverPanic(t *testing.T) {
	for _, s := range snapshotSeeds() {
		full := payload(s)
		got, err := decodeSnapshotPayload(full)
		if err != nil || !reflect.DeepEqual(s, got) {
			t.Fatalf("kind %d: payload does not round-trip: %v", s.Kind, err)
		}
		for n := 0; n < len(full); n++ {
			if _, err := decodeSnapshotPayload(full[:n]); err == nil {
				t.Fatalf("kind %d: prefix of %d bytes decoded without error", s.Kind, n)
			}
		}
		if _, err := decodeSnapshotPayload(append(append([]byte{}, full...), 0)); err == nil {
			t.Fatalf("kind %d: trailing byte decoded without error", s.Kind)
		}
		for i := range full {
			for _, flip := range []byte{0x01, 0x80, 0xFF} {
				mut := append([]byte{}, full...)
				mut[i] ^= flip
				decodeSnapshotPayload(mut)
			}
		}
	}
	// A router snapshot that still lists sentences loads as the cursor it
	// carries, the list dropped; cut short inside the list it is refused.
	router := &Snapshot{Kind: KindRouter, Seq: 5, NextID: 7}
	old := parentRouterPayload(router, []CycleSentence{{TweetID: 1, Tokens: []string{"a", "b"}}, {TweetID: 2, SentID: 1}})
	if got, err := decodeSnapshotPayload(old); err != nil || !reflect.DeepEqual(router, got) {
		t.Fatalf("router payload with a populated sentence list decoded to %+v, %v", got, err)
	}
	for n := len(payload(router)) - 4; n < len(old); n++ {
		if _, err := decodeSnapshotPayload(old[:n]); err == nil {
			t.Fatalf("router payload cut inside its sentence list at %d bytes decoded without error", n)
		}
	}
	// A matrix whose rows*cols wraps around to its value count is a shape
	// error, not a matrix the first pooled mention indexes out of.
	if s, err := decodeSnapshotPayload(wrappedShapePayload()); err == nil {
		m := s.Warm.Records[0].Emb
		t.Fatalf("a %dx%d matrix backed by %d values decoded", m.Rows, m.Cols, len(m.Data))
	}
	// A delta must name what it extends, a base must not.
	bad := &Snapshot{Kind: KindSingle, Seq: 20, Delta: sampleWarmDelta()}
	if _, err := decodeSnapshotPayload(payload(bad)); err == nil {
		t.Fatal("a delta without a predecessor decoded")
	}
	bad = &Snapshot{Kind: KindSingle, Seq: 20, Prev: 10, Warm: sampleWarmState()}
	if _, err := decodeSnapshotPayload(payload(bad)); err == nil {
		t.Fatal("a base with a predecessor decoded")
	}
}

// TestParentFormatReencodesByteForByte pins the on-disk formats across
// the move of the codec primitives into internal/binenc: the snapshot
// chain (a base and two deltas) and the WAL segment under
// testdata/parent_v2 were written by the commit before the move, and
// each must decode and re-encode to exactly the bytes on disk.
func TestParentFormatReencodesByteForByte(t *testing.T) {
	const dir = "testdata/parent_v2"
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 3 {
		t.Fatalf("want a base and two deltas under %s, found %v (%v)", dir, snaps, err)
	}
	deltas := 0
	for _, path := range snaps {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := readSnapshot(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.Delta != nil {
			deltas++
		}
		out := t.TempDir()
		if _, err := WriteSnapshot(out, s); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(out, snapshotName(s.Seq)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: re-encoded snapshot differs from the parent's bytes (%d vs %d bytes)", path, len(got), len(want))
		}
	}
	if deltas != 2 {
		t.Fatalf("chain holds %d deltas, want 2", deltas)
	}

	segs, err := segmentFiles(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one WAL segment under %s, found %v (%v)", dir, segs, err)
	}
	want, err := os.ReadFile(filepath.Join(dir, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := readSegment(filepath.Join(dir, segs[0]), false)
	if err != nil || len(recs) == 0 {
		t.Fatalf("parent WAL segment: %d records, %v", len(recs), err)
	}
	out := t.TempDir()
	w := &wal{dir: out, maxBytes: defaultSegmentBytes}
	for _, rec := range recs {
		if _, err := w.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(out, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-encoded WAL segment differs from the parent's bytes (%d vs %d bytes)", len(got), len(want))
	}

	// And the directory as a whole still recovers: chain merged, tail read.
	live := t.TempDir()
	for _, name := range append(snaps, filepath.Join(dir, segs[0])) {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(live, filepath.Base(name)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, rec, err := Open(live, Options{Fsync: FsyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rec.Snapshot == nil || rec.Snapshot.Seq != 14 || len(rec.Tail) != 2 {
		t.Fatalf("parent dir recovered to snapshot %+v with a tail of %d, want seq 14 and 2", rec.Snapshot, len(rec.Tail))
	}
}
