// Log is the durability manager one serving process owns: the WAL
// writer, the snapshot schedule and chain, compaction, and the
// ner_wal_* / ner_snapshot_* metrics. The serving layers (server,
// fleet) call AppendAsync (or Append, which also waits) once per
// committed cycle before acking, ask ShouldSnapshot on the cycle
// schedule, capture with EngineSnapshot (or build a Snapshot of their
// own), and hand it to SubmitSnapshot — the capture is the only part
// that needs the serving lock; the write happens off the hot path.
//
// Snapshot chain: EngineSnapshot captures a delta against the newest
// landed snapshot whenever it can, and a base — the whole state — when
// it is the first snapshot since Open, when the engine has no delta to
// give, when the previous capture did not land (dropped on a full
// queue, or its write failed: the engine's change log has moved past a
// file that is not there), or when the deltas since the last base have
// grown to the base's own size. That last bound keeps recovery reading
// at most twice the state and the bytes written at most twice what the
// bases alone would cost. A landed base deletes every older snapshot
// file.
//
// Group commit is the one flush path: an append writes the frame
// without syncing and takes a ticket; a single syncer goroutine fsyncs
// once per pass, covering every ticket appended before the flush
// started. An ack waits only until the fsync covering its ticket
// completes, so concurrent and back-to-back cycles share flushes and a
// lone one pays a flush of its own. The ack coverage rule is strict:
// wait() returns nil only when a completed fsync (or the sealing sync
// of Close) covers the record — never earlier. FsyncNone promises no
// durability, runs no syncer and never waits.
package durable

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/obs"
)

// Options configures a process's durability layer.
type Options struct {
	// SnapshotEvery is the cycle count between snapshots; <= 0 selects
	// the default of 64.
	SnapshotEvery int
	// Fsync is the WAL flush policy.
	Fsync FsyncPolicy
	// Deprecated: ignored. Every Log writes its snapshots on one
	// background writer.
	AsyncSnapshots bool
}

// defaultSnapshotEvery balances replay length against snapshot cost.
const defaultSnapshotEvery = 64

// groupSizeBuckets buckets fsync group sizes (records per flush).
var groupSizeBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64}

// Recovery is what Open found on disk: the state of the newest valid
// snapshot chain, merged into one whole snapshot (nil on a cold start),
// and the WAL records past it, in seq order.
type Recovery struct {
	Snapshot *Snapshot
	Tail     []*CycleRecord
}

// NextID is the tweet ID cursor of the recovered stream: the
// snapshot's, moved past every ID logged after it. Every assigned ID is
// in its cycle's record (a tweet has at least one sentence), so this
// restores the allocator exactly.
func (rec *Recovery) NextID() int {
	next := 0
	if rec.Snapshot != nil {
		next = rec.Snapshot.NextID
	}
	for _, cr := range rec.Tail {
		for _, cs := range cr.Sentences {
			if cs.TweetID >= next {
				next = cs.TweetID + 1
			}
		}
	}
	return next
}

// Status is a point-in-time durability summary for /statusz.
type Status struct {
	Fsync           string `json:"fsync"`
	WALBacklog      uint64 `json:"wal_backlog"`
	SnapshotPending int    `json:"snapshot_pending"`
	// ChainLength counts the snapshot files recovery would merge today
	// (the newest base plus its deltas; 0 before any snapshot), BaseSeq
	// is that base's cycle.
	ChainLength int    `json:"chain_length"`
	BaseSeq     uint64 `json:"base_seq"`
}

// Log manages one process's durability state. Append/AppendAsync are
// safe for concurrent use; SaveSnapshot is single-flight (a second
// call while one is writing is dropped).
type Log struct {
	dir  string
	opts Options

	mu sync.Mutex // guards w
	w  *wal

	// Group-commit state. Lock order: mu may nest gmu (appenders take
	// their ticket while still holding mu so ticket order matches file
	// order); the syncer never holds gmu while acquiring mu.
	gmu      sync.Mutex
	gcond    *sync.Cond
	appended uint64 // tickets issued (== records written)
	synced   uint64 // highest ticket covered by a completed fsync
	gerr     error  // sticky fsync failure; fails every later wait
	closed   bool

	syncWake   chan struct{} // cap 1; nudges the syncer
	syncQuit   chan struct{}
	syncerDone chan struct{}

	snapCh   chan *Snapshot // the snapshot writer's depth-1 queue
	snapDone chan struct{}
	snapBusy atomic.Bool

	// Snapshot chain state. landedSeq is the newest landed snapshot (the
	// schedule counts from it); tipSeq the newest one this process
	// landed, which a delta may extend (0 until the first); captureSeq
	// the cycle of the last EngineSnapshot capture — the engine's change
	// log starts there, so a delta is only valid while it equals tipSeq;
	// captured is set from that capture until its write ends or it is
	// dropped. baseBytes and deltaBytes size the current chain.
	cmu                   sync.Mutex
	landedSeq, tipSeq     uint64
	captureSeq, baseSeq   uint64
	chainLen              int
	baseBytes, deltaBytes int64
	captured              bool

	appends      *obs.Counter
	walBytes     *obs.Counter
	appendSecs   *obs.Histogram
	segments     *obs.Gauge
	compactions  *obs.Counter
	groupSize    *obs.Histogram
	backlog      *obs.Gauge
	snapWrites   *obs.Counter
	snapErrors   *obs.Counter
	snapBytes    *obs.Gauge
	snapTotal    *obs.Counter
	snapSecs     *obs.Histogram
	captureSecs  *obs.Histogram
	snapPending  *obs.Gauge
	chainLength  *obs.Gauge
	replayCycles *obs.Counter
	replaySecs   *obs.Gauge
	proofsServed *obs.Counter
}

// Open prepares the data directory: loads the newest valid snapshot
// chain, reads the WAL tail past it, and readies the writer. The returned
// Recovery is what the caller replays; Append may be used immediately
// after (new records land in a fresh segment). reg may be nil.
func Open(dir string, opts Options, reg *obs.Registry) (*Log, *Recovery, error) {
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: data dir: %w", err)
	}
	snap, baseSeq, chainLen, err := loadSnapshotChain(dir)
	if err != nil {
		return nil, nil, err
	}
	recs, err := readWAL(dir)
	if err != nil {
		return nil, nil, err
	}
	rec := &Recovery{Snapshot: snap}
	var snapSeq uint64
	if snap != nil {
		snapSeq = snap.Seq
	}
	for _, r := range recs {
		if r.Seq > snapSeq {
			rec.Tail = append(rec.Tail, r)
		}
	}
	// The WAL is contiguous (readWAL checked); the snapshot must reach
	// the tail, or cycles between them were compacted away.
	if len(rec.Tail) > 0 && rec.Tail[0].Seq != snapSeq+1 {
		return nil, nil, fmt.Errorf("durable: wal resumes at seq %d but snapshot covers through %d", rec.Tail[0].Seq, snapSeq)
	}
	if len(recs) == 0 && snap == nil {
		rec = &Recovery{}
	}

	l := &Log{
		dir:      dir,
		opts:     opts,
		w:        &wal{dir: dir, maxBytes: defaultSegmentBytes},
		snapCh:   make(chan *Snapshot, 1),
		snapDone: make(chan struct{}),
	}
	l.gcond = sync.NewCond(&l.gmu)
	l.landedSeq, l.baseSeq, l.chainLen = snapSeq, baseSeq, chainLen
	if reg != nil {
		l.appends = reg.Counter("ner_wal_appends_total", "WAL records appended")
		l.walBytes = reg.Counter("ner_wal_bytes_total", "WAL bytes written (framed)")
		l.appendSecs = reg.Histogram("ner_wal_append_seconds", "WAL append latency: frame and write, plus the sealing sync when the append rotates a segment; the covering fsync is the ack's wait, not part of the append", obs.DefBuckets)
		l.segments = reg.Gauge("ner_wal_segments", "WAL segment files on disk")
		l.compactions = reg.Counter("ner_wal_compactions_total", "WAL segments deleted by compaction")
		l.groupSize = reg.Histogram("ner_wal_group_size", "records covered per group-commit fsync", groupSizeBuckets)
		l.backlog = reg.Gauge("ner_wal_backlog", "appended records not yet covered by an fsync")
		l.snapWrites = reg.Counter("ner_snapshot_writes_total", "snapshots written")
		l.snapErrors = reg.Counter("ner_snapshot_errors_total", "snapshot write failures")
		l.snapBytes = reg.Gauge("ner_snapshot_bytes", "size of the latest snapshot")
		l.snapTotal = reg.Counter("ner_snapshot_bytes_total", "snapshot bytes written, bases and deltas")
		l.snapSecs = reg.Histogram("ner_snapshot_seconds", "snapshot write wall time", obs.DefBuckets)
		l.captureSecs = reg.Histogram("ner_snapshot_capture_seconds", "synchronous engine-state capture wall time", obs.DefBuckets)
		l.snapPending = reg.Gauge("ner_snapshot_async_pending", "captured, queued or in-flight snapshot writes")
		l.chainLength = reg.Gauge("ner_snapshot_chain_length", "snapshot files recovery would merge: the newest base plus its deltas")
		l.replayCycles = reg.Counter("ner_replay_cycles_total", "WAL cycles replayed at startup")
		l.replaySecs = reg.Gauge("ner_replay_millis", "startup recovery wall time in milliseconds")
		l.proofsServed = reg.Counter("ner_proofs_served_total", "inclusion-proof bundles served")
	}
	l.segments.Set(int64(l.w.segmentCount()))
	l.chainLength.Set(int64(chainLen))
	if opts.Fsync != FsyncNone {
		l.syncWake = make(chan struct{}, 1)
		l.syncQuit = make(chan struct{})
		l.syncerDone = make(chan struct{})
		go l.syncer()
	}
	go l.snapWriter()
	return l, rec, nil
}

// Append durably logs one committed cycle, blocking until the record
// is as durable as the policy promises — under "group" it survives a
// crash once Append returns.
func (l *Log) Append(rec *CycleRecord) error {
	wait, err := l.AppendAsync(rec)
	if err != nil {
		return err
	}
	return wait()
}

// AppendAsync writes one committed cycle record and returns a wait
// function that blocks until the record is durable per policy: until
// the covering fsync under FsyncGroup, not at all under FsyncNone,
// which never promises durability. The serving path must call wait
// before acking the cycle.
func (l *Log) AppendAsync(rec *CycleRecord) (func() error, error) {
	t0 := time.Now()
	l.mu.Lock()
	n, err := l.w.append(rec)
	var ticket uint64
	if err == nil && l.opts.Fsync != FsyncNone {
		l.gmu.Lock()
		l.appended++
		ticket = l.appended
		l.backlog.Set(int64(l.appended - l.synced))
		l.gmu.Unlock()
	}
	segs := l.w.segmentCount()
	l.mu.Unlock()
	if err != nil {
		return nil, err
	}
	l.appends.Inc()
	l.walBytes.Add(int64(n))
	l.appendSecs.Observe(time.Since(t0).Seconds())
	l.segments.Set(int64(segs))
	if l.opts.Fsync == FsyncNone {
		return func() error { return nil }, nil
	}
	select {
	case l.syncWake <- struct{}{}:
	default:
	}
	return func() error {
		l.gmu.Lock()
		defer l.gmu.Unlock()
		for l.synced < ticket && l.gerr == nil {
			l.gcond.Wait()
		}
		return l.gerr
	}, nil
}

// syncer is the group-commit flush loop: each pass covers every ticket
// appended before the fsync starts, then wakes all waiters at or below
// the covered ticket. An fsync failure is sticky — every current and
// future wait fails, matching the serving layers' broken-flag model.
func (l *Log) syncer() {
	defer close(l.syncerDone)
	for {
		select {
		case <-l.syncQuit:
			return
		case <-l.syncWake:
		}
		for {
			l.gmu.Lock()
			cover, base := l.appended, l.synced
			broken := l.gerr != nil
			l.gmu.Unlock()
			if cover == base || broken {
				break
			}
			// Capture the active segment under mu but fsync outside
			// it: a slow flush (e.g. queued behind a snapshot fsync
			// on the same device) must not block concurrent appends,
			// or the commit window can never exceed one record. Every
			// record at or below cover is either in this file or in a
			// segment that was sealed (and sealing fsyncs), so the
			// captured fd is enough.
			l.mu.Lock()
			f := l.w.f
			l.mu.Unlock()
			err := syncFile(f)
			l.gmu.Lock()
			if err != nil {
				if l.gerr == nil {
					l.gerr = err
				}
			} else if cover > l.synced {
				l.synced = cover
			}
			backlog := l.appended - l.synced
			l.gcond.Broadcast()
			l.gmu.Unlock()
			l.groupSize.Observe(float64(cover - base))
			l.backlog.Set(int64(backlog))
			if err != nil {
				break
			}
		}
	}
}

// ShouldSnapshot reports whether the cycle schedule calls for a
// snapshot at seq — and no snapshot is captured, queued or being
// written (back-pressure: a slow writer skips boundaries rather than
// stacking work).
func (l *Log) ShouldSnapshot(seq uint64) bool {
	if l.snapshotsPending() > 0 {
		return false
	}
	l.cmu.Lock()
	defer l.cmu.Unlock()
	return seq >= l.landedSeq+uint64(l.opts.SnapshotEvery)
}

// EngineSnapshot captures the engine-bearing snapshot for cycle seq
// under the chain rule (see the Log comment): a delta extending the
// newest landed snapshot when the rule and the engine allow, a base
// otherwise, with the provenance cycles to match. The caller holds the
// lock that serializes cycles on g, fills the kind-specific fields
// (NextID, LastResp) and passes the result to SubmitSnapshot; until
// that write ends, ShouldSnapshot stays false.
func (l *Log) EngineSnapshot(kind int, seq uint64, g *core.Globalizer, prov *Provenance) *Snapshot {
	t0 := time.Now()
	l.cmu.Lock()
	prev := l.tipSeq
	extend := prev != 0 && prev == l.captureSeq && l.deltaBytes < l.baseBytes
	l.captureSeq, l.captured = seq, true
	l.cmu.Unlock()
	snap := &Snapshot{Kind: kind, Seq: seq}
	if extend {
		snap.Delta = g.CaptureWarmDelta()
	}
	if snap.Delta != nil {
		snap.Prev = prev
		snap.Provenance = prov.CyclesAfter(prev)
	} else {
		snap.Warm = g.CaptureWarmState()
		snap.Provenance = prov.Cycles()
	}
	l.captureSecs.Observe(time.Since(t0).Seconds())
	l.publishSnapPending()
	return snap
}

// SubmitSnapshot queues a captured snapshot for the background writer
// without blocking the caller. A snapshot that finds the queue full,
// or the Log closed, is dropped: the WAL covers every cycle, so a
// skipped snapshot only lengthens replay. The write compacts the WAL
// through snap.Seq.
func (l *Log) SubmitSnapshot(snap *Snapshot) {
	queued := false
	l.gmu.Lock()
	if !l.closed {
		select {
		case l.snapCh <- snap:
			queued = true
		default:
		}
	}
	l.gmu.Unlock()
	if !queued {
		l.captureDone()
		return
	}
	l.publishSnapPending()
}

// snapWriter drains the snapshot queue until Close closes it. If this
// goroutine (or the process) dies mid-file, the tmp+rename protocol
// leaves only an orphan .tmp behind and recovery falls back to the
// previous snapshot plus a longer WAL tail.
func (l *Log) snapWriter() {
	defer close(l.snapDone)
	for snap := range l.snapCh {
		l.SaveSnapshot(snap, snap.Seq)
	}
}

// snapshotsPending counts snapshot writes queued or in flight, and
// counts a capture that has not reached the writer yet as one.
func (l *Log) snapshotsPending() int {
	n := len(l.snapCh)
	if l.snapBusy.Load() {
		n++
	}
	if n == 0 {
		l.cmu.Lock()
		if l.captured {
			n = 1
		}
		l.cmu.Unlock()
	}
	return n
}

func (l *Log) publishSnapPending() { l.snapPending.Set(int64(l.snapshotsPending())) }

// captureDone marks the outstanding capture as finished — written,
// failed or dropped. Only a landed write moves tipSeq, so after a drop
// or failure captureSeq no longer matches it and the next capture is a
// base.
func (l *Log) captureDone() {
	l.cmu.Lock()
	l.captured = false
	l.cmu.Unlock()
	l.publishSnapPending()
}

// SaveSnapshot writes the snapshot and compacts sealed WAL segments
// whose records are all at or below compactThrough. Single-flight: a
// call that finds another write in progress returns false immediately.
// compactThrough is snap.Seq, or lower to keep more of the WAL. A landed
// base prunes every older snapshot file; a delta whose predecessor is
// no longer the newest landed snapshot is discarded unwritten.
func (l *Log) SaveSnapshot(snap *Snapshot, compactThrough uint64) (bool, error) {
	if !l.snapBusy.CompareAndSwap(false, true) {
		l.captureDone()
		return false, nil
	}
	defer func() {
		l.snapBusy.Store(false)
		l.captureDone()
	}()
	isDelta := snap.Delta != nil
	if isDelta {
		l.cmu.Lock()
		orphan := snap.Prev != l.tipSeq
		l.cmu.Unlock()
		if orphan {
			return false, nil
		}
	}
	t0 := time.Now()
	size, err := WriteSnapshot(l.dir, snap)
	if err != nil {
		l.snapErrors.Inc()
		return false, err
	}
	l.cmu.Lock()
	l.landedSeq, l.tipSeq = snap.Seq, snap.Seq
	if isDelta {
		l.deltaBytes += size
		l.chainLen++
	} else {
		l.baseSeq, l.baseBytes, l.deltaBytes, l.chainLen = snap.Seq, size, 0, 1
	}
	chainLen := l.chainLen
	l.cmu.Unlock()
	if !isDelta {
		pruneSnapshots(l.dir, snap.Seq)
	}
	l.snapWrites.Inc()
	l.snapBytes.Set(size)
	l.snapTotal.Add(size)
	l.chainLength.Set(int64(chainLen))
	l.snapSecs.Observe(time.Since(t0).Seconds())
	if compactThrough > snap.Seq {
		compactThrough = snap.Seq
	}
	l.mu.Lock()
	removed, cerr := l.w.compact(compactThrough)
	segs := l.w.segmentCount()
	l.mu.Unlock()
	l.compactions.Add(int64(removed))
	l.segments.Set(int64(segs))
	if cerr != nil {
		return true, cerr
	}
	return true, nil
}

// Status summarizes the commit path for /statusz.
func (l *Log) Status() Status {
	s := Status{Fsync: l.opts.Fsync.String()}
	l.gmu.Lock()
	s.WALBacklog = l.appended - l.synced
	l.gmu.Unlock()
	s.SnapshotPending = l.snapshotsPending()
	l.cmu.Lock()
	s.ChainLength, s.BaseSeq = l.chainLen, l.baseSeq
	l.cmu.Unlock()
	return s
}

// ObserveReplay records startup recovery cost.
func (l *Log) ObserveReplay(cycles int, elapsed time.Duration) {
	l.replayCycles.Add(int64(cycles))
	l.replaySecs.Set(elapsed.Milliseconds())
}

// ProofServed counts one served proof bundle.
func (l *Log) ProofServed() { l.proofsServed.Inc() }

// Close stops the syncer, lets the snapshot writer finish the snapshot
// it holds and the one queued, then seals the active WAL segment. The
// seal syncs, so after a clean Close every appended record is durable;
// any waiters still parked are released with that outcome.
func (l *Log) Close() error {
	l.gmu.Lock()
	if l.closed {
		l.gmu.Unlock()
		return nil
	}
	l.closed = true
	l.gmu.Unlock()
	if l.syncQuit != nil {
		close(l.syncQuit)
		<-l.syncerDone
	}
	close(l.snapCh)
	<-l.snapDone
	l.mu.Lock()
	err := l.w.close()
	l.mu.Unlock()
	l.gmu.Lock()
	if err == nil {
		l.synced = l.appended
	} else if l.gerr == nil {
		l.gerr = err
	}
	l.gcond.Broadcast()
	l.gmu.Unlock()
	return err
}
