// Snapshot files: one serving process's warm state, written on a
// cycle-count schedule so restart replays only the WAL tail past the
// latest snapshot. A snapshot is either a base — the whole state — or
// a delta that extends the snapshot named by Prev with what changed
// since; a base and the deltas linked to it form the chain recovery
// merges (see loadSnapshotChain).
//
// Format: 8-byte magic "NERSNAP1", u32 version, u32 CRC-32C of the
// payload, payload (see Snapshot.encode for the field order). Files are
// named snap-<seq>.snap and written tmp+rename with file and directory
// fsyncs, so a crash mid-write never damages an existing snapshot —
// the loader uses the files that validate and ignores the rest.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"nerglobalizer/internal/binenc"
	"nerglobalizer/internal/core"
)

var snapMagic = [8]byte{'N', 'E', 'R', 'S', 'N', 'A', 'P', '1'}

// snapVersion 2 added Prev and Delta; version 1 files (always whole
// states) are rejected rather than read.
const snapVersion = 2

// Snapshot kinds: the three serving processes persist different state
// shapes, and recovery refuses to load a data dir written by a
// different process kind.
const (
	// KindSingle is a single-process server: engine state + provenance.
	KindSingle = iota
	// KindShard is a fleet shard: engine state + provenance + the
	// seq-gate's cached last response.
	KindShard
	// KindRouter is the fleet front router: no engine and no stream, just
	// the cycle cursor (Seq and NextID).
	KindRouter
)

// Snapshot is one process's durable state at a cycle boundary: whole
// (a base: Prev 0, Warm set on engine-bearing kinds) or as the change
// since the snapshot at Prev (a delta: Delta set, Warm nil).
type Snapshot struct {
	Kind int
	// Seq is the last cycle folded into this snapshot; replay resumes
	// at Seq+1.
	Seq uint64
	// Prev is the seq of the snapshot a delta extends; 0 marks a base.
	Prev uint64
	// NextID is the tweet-ID allocator cursor (single server, router).
	NextID int
	// LastResp is the shard's cached commit response, as the bare frame
	// body it went out in — the seq-gate's replay answer (shard only).
	LastResp []byte
	// Warm is the engine state of a base (single server, shard).
	Warm *core.WarmState
	// Delta is the engine state of a delta, relative to Prev's. What it
	// leaves out is immutable once captured (token embeddings, cached
	// mention embeddings) or was not rewritten since.
	Delta *core.WarmDelta
	// Provenance is the Merkle chain's ground truth (single, shard): in
	// a base every cycle, in a delta the cycles after Prev.
	Provenance []CycleProv
}

func snapshotName(seq uint64) string {
	return fmt.Sprintf("snap-%020d.snap", seq)
}

// snapshotSeq parses the seq component of a snapshot file name.
func snapshotSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// encode writes the payload fields in format order.
func (s *Snapshot) encode(w *binenc.Writer) {
	w.U8(byte(s.Kind))
	w.U64(s.Seq)
	w.U64(s.Prev)
	w.I64(s.NextID)
	w.Bytes(s.LastResp)
	putWarmState(w, s.Warm)
	putWarmDelta(w, s.Delta)
	putProvCycles(w, s.Provenance)
	// The slot of the sentence registry routers used to snapshot: always
	// empty now, kept so the format (and its version) stands.
	PutCycleSentences(w, nil)
}

func decodeSnapshotPayload(b []byte) (*Snapshot, error) {
	r := &binenc.Reader{B: b}
	s := &Snapshot{}
	s.Kind = int(r.U8())
	s.Seq = r.U64()
	s.Prev = r.U64()
	s.NextID = r.I64()
	s.LastResp = r.Bytes()
	s.Warm = getWarmState(r)
	s.Delta = getWarmDelta(r)
	s.Provenance = getProvCycles(r)
	// A router snapshot from before the slot was retired lists every
	// sentence it had ingested; nothing reads them any more.
	GetCycleSentences(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("durable: snapshot payload: %w", err)
	}
	isDelta := s.Delta != nil
	if isDelta != (s.Prev != 0) || isDelta && (s.Prev >= s.Seq || s.Warm != nil) {
		return nil, fmt.Errorf("durable: snapshot %d is neither a base nor a delta (prev %d)", s.Seq, s.Prev)
	}
	return s, nil
}

// WriteSnapshot persists the snapshot into dir atomically and returns
// the file size. The file and the directory entry are both synced
// before return — once this returns, the snapshot survives a crash.
func WriteSnapshot(dir string, s *Snapshot) (int64, error) {
	final := filepath.Join(dir, snapshotName(s.Seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("durable: snapshot: %w", err)
	}
	size, err := streamSnapshot(f, s)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("durable: snapshot: %w", err)
	}
	syncDir(dir)
	return size, nil
}

// streamSnapshot encodes the snapshot straight into f: the header with
// a blank checksum, the payload through one chunk buffer while a
// rolling CRC-32C runs over it, then the checksum patched into the
// header. Returns the bytes written; f is fully synced on success.
func streamSnapshot(f *os.File, s *Snapshot) (int64, error) {
	var head [16]byte
	copy(head[:], snapMagic[:])
	binary.LittleEndian.PutUint32(head[8:], snapVersion)
	if _, err := f.Write(head[:]); err != nil {
		return 0, err
	}
	size := int64(len(head))
	var sum uint32
	write := func(b []byte) error {
		sum = crc32.Update(sum, castagnoli, b)
		size += int64(len(b))
		_, err := f.Write(b)
		return err
	}
	// Write-and-sync in bounded chunks rather than one flush of the
	// whole file: a multi-MB fsync monopolizes the device's flush
	// queue, and a WAL group-commit fsync stuck behind it stalls every
	// ack for the duration. Chunking caps that collateral latency at
	// one chunk's flush; the trailing Sync then has almost nothing
	// left to push.
	w := &binenc.Writer{Buf: make([]byte, 0, 64<<10), Sink: func(b []byte) error {
		if err := write(b); err != nil {
			return err
		}
		return f.Sync()
	}}
	s.encode(w)
	if w.Err == nil {
		w.Err = write(w.Buf)
	}
	if w.Err != nil {
		return 0, w.Err
	}
	binary.LittleEndian.PutUint32(head[12:], sum)
	if _, err := f.WriteAt(head[12:], 12); err != nil {
		return 0, err
	}
	return size, f.Sync()
}

// syncDir flushes a directory entry table; errors are ignored (some
// filesystems reject directory fsync, and the data file itself is
// already synced).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// readSnapshot parses and validates one snapshot file.
func readSnapshot(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("durable: snapshot: %w", err)
	}
	if len(b) < 16 || string(b[:8]) != string(snapMagic[:]) {
		return nil, fmt.Errorf("durable: %s: bad snapshot magic", filepath.Base(path))
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != snapVersion {
		return nil, fmt.Errorf("durable: %s: snapshot version %d, want %d", filepath.Base(path), v, snapVersion)
	}
	sum := binary.LittleEndian.Uint32(b[12:])
	payload := b[16:]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, fmt.Errorf("durable: %s: snapshot checksum mismatch", filepath.Base(path))
	}
	return decodeSnapshotPayload(payload)
}

// loadSnapshotChain reads the state the snapshot files in dir add up
// to: the newest base that validates, merged with the deltas linked to
// it through Prev, oldest first, for as far as each link's file is
// present and validates. It returns that state as one whole snapshot
// at the last link's seq, plus the base's seq and the number of files
// merged; nil when dir holds no snapshot. A damaged or missing link
// ends the chain at the link before it — the WAL tail must then reach
// back to there, which Open checks — and files older than the base are
// never read.
func loadSnapshotChain(dir string) (merged *Snapshot, baseSeq uint64, length int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("durable: snapshot dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := snapshotSeq(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	var firstErr error
	next := make(map[uint64]*Snapshot) // valid deltas by the seq they extend
	for _, name := range names {
		s, err := readSnapshot(filepath.Join(dir, name))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if s.Delta != nil {
			next[s.Prev] = s
			continue
		}
		merged = s
		break
	}
	if merged == nil {
		if firstErr == nil && len(names) > 0 {
			firstErr = fmt.Errorf("durable: %d delta snapshots but no base to extend", len(names))
		}
		// Every base is damaged: refuse to silently cold-start over a
		// data dir that clearly held state.
		return nil, 0, 0, firstErr
	}
	baseSeq, length = merged.Seq, 1
	for d := next[merged.Seq]; d != nil; d = next[merged.Seq] {
		if d.Kind != merged.Kind || merged.Warm == nil {
			return nil, 0, 0, fmt.Errorf("durable: %s does not extend a kind-%d engine snapshot", snapshotName(d.Seq), merged.Kind)
		}
		if err := merged.Warm.Apply(d.Delta); err != nil {
			return nil, 0, 0, fmt.Errorf("durable: %s: %w", snapshotName(d.Seq), err)
		}
		merged.Seq, merged.NextID, merged.LastResp = d.Seq, d.NextID, d.LastResp
		merged.Provenance = append(merged.Provenance, d.Provenance...)
		length++
	}
	return merged, baseSeq, length, nil
}

// pruneSnapshots deletes every snapshot file — landed or an orphaned
// .tmp — older than the base at seq: once a base has landed nothing
// before it is ever read again.
func pruneSnapshots(dir string, base uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if seq, ok := snapshotSeq(strings.TrimSuffix(e.Name(), ".tmp")); ok && seq < base {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
