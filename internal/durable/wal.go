// Append-only write-ahead log of cycle records, stored as a directory
// of segment files.
//
// Segment files are named wal-<firstSeq>.log and carry an 8-byte magic
// followed by framed records: [u32 payload length][u32 CRC-32C of the
// payload][payload]. A segment seals when it passes the size bound and
// the next append opens a fresh segment; reopening after a restart
// always starts a new segment, so sealed files are immutable.
//
// Recovery reads every segment in name order. A torn frame (short
// header, short payload, or CRC mismatch) in the newest segment is the
// expected signature of a crash mid-append: the tail is dropped and
// recovery succeeds with everything before it, which under the "group"
// fsync policy includes every acked record. The same damage in a sealed
// segment is real corruption and fails recovery loudly.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// FsyncPolicy selects when the WAL reaches the platters.
type FsyncPolicy int

const (
	// FsyncGroup acks a record only once an fsync issued after its append
	// has completed, so an acked cycle survives a kill -9 or a power loss.
	// Concurrent and consecutive records ride one disk flush; a lone
	// record costs one flush of its own. The default.
	FsyncGroup FsyncPolicy = iota
	// FsyncNone leaves flushing to the OS page cache: faster, but the
	// newest cycles can be lost on a hard crash (recovery still works,
	// it just resumes from an earlier prefix).
	FsyncNone
)

// ParseFsync parses the -fsync flag values.
func ParseFsync(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "", "group":
		return FsyncGroup, nil
	case "none":
		return FsyncNone, nil
	case "always":
		return FsyncGroup, fmt.Errorf("durable: fsync policy %q no longer exists: use group, which gives the same ack-after-fsync guarantee", s)
	default:
		return FsyncGroup, fmt.Errorf("durable: unknown fsync policy %q (want group or none)", s)
	}
}

// String names the policy.
func (p FsyncPolicy) String() string {
	if p == FsyncNone {
		return "none"
	}
	return "group"
}

var walMagic = [8]byte{'N', 'E', 'R', 'W', 'A', 'L', '0', '1'}

// castagnoli is the CRC-32C table (hardware-accelerated on both serving
// arches).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// defaultSegmentBytes rotates segments at 8 MiB — small enough that
// compaction reclaims space promptly, large enough that rotation cost
// is noise.
const defaultSegmentBytes = 8 << 20

// maxRecordBytes rejects absurd frame lengths before allocating.
const maxRecordBytes = 1 << 30

// wal is the segment writer. Not safe for concurrent use; the Log
// manager serializes appends.
type wal struct {
	dir      string
	maxBytes int64

	f        *os.File
	fileSize int64
}

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%020d.log", firstSeq)
}

// segmentSeq parses the first-seq component of a segment file name.
func segmentSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// segmentFiles lists the directory's segment files in seq order.
func segmentFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: wal dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := segmentSeq(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// readSegment parses one segment file. tolerateTail permits a torn
// final frame (dropped silently); any earlier damage is an error.
func readSegment(path string, tolerateTail bool) ([]*CycleRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("durable: wal segment: %w", err)
	}
	if len(b) < len(walMagic) || string(b[:len(walMagic)]) != string(walMagic[:]) {
		if tolerateTail && len(b) < len(walMagic) {
			// A crash between create and magic write leaves a short file.
			return nil, nil
		}
		return nil, fmt.Errorf("durable: %s: bad segment magic", filepath.Base(path))
	}
	var out []*CycleRecord
	off := len(walMagic)
	for off < len(b) {
		torn := func(what string) ([]*CycleRecord, error) {
			if tolerateTail {
				return out, nil
			}
			return nil, fmt.Errorf("durable: %s: %s at byte %d", filepath.Base(path), what, off)
		}
		if off+8 > len(b) {
			return torn("torn frame header")
		}
		n := binary.LittleEndian.Uint32(b[off:])
		sum := binary.LittleEndian.Uint32(b[off+4:])
		if n > maxRecordBytes {
			return torn("absurd frame length")
		}
		if off+8+int(n) > len(b) {
			return torn("torn frame payload")
		}
		payload := b[off+8 : off+8+int(n)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return torn("frame checksum mismatch")
		}
		rec, err := decodeCycleRecord(payload)
		if err != nil {
			return nil, fmt.Errorf("durable: %s: %w", filepath.Base(path), err)
		}
		out = append(out, rec)
		off += 8 + int(n)
	}
	return out, nil
}

// readWAL reads every segment in the directory, tolerating a torn tail
// only in the newest one, and checks seq contiguity across the result.
func readWAL(dir string) ([]*CycleRecord, error) {
	names, err := segmentFiles(dir)
	if err != nil {
		return nil, err
	}
	var out []*CycleRecord
	for i, name := range names {
		recs, err := readSegment(filepath.Join(dir, name), i == len(names)-1)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	for i := 1; i < len(out); i++ {
		if out[i].Seq != out[i-1].Seq+1 {
			return nil, fmt.Errorf("durable: wal seq gap: %d follows %d", out[i].Seq, out[i-1].Seq)
		}
	}
	return out, nil
}

// startSegment opens a fresh segment whose first record will be seq.
func (w *wal) startSegment(seq uint64) error {
	if w.f != nil {
		if err := w.closeSegment(); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: wal segment: %w", err)
	}
	if _, err := f.Write(walMagic[:]); err != nil {
		f.Close()
		return fmt.Errorf("durable: wal segment: %w", err)
	}
	w.f = f
	w.fileSize = int64(len(walMagic))
	return nil
}

// closeSegment seals the active segment, syncing it regardless of
// policy so sealed files are always fully on disk before compaction
// could consider them.
func (w *wal) closeSegment() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	if err != nil {
		return fmt.Errorf("durable: wal seal: %w", err)
	}
	return nil
}

// append frames and writes one record, rotating first when the active
// segment is full. Returns the framed size in bytes.
func (w *wal) append(rec *CycleRecord) (int, error) {
	if w.f == nil || w.fileSize >= w.maxBytes {
		if err := w.startSegment(rec.Seq); err != nil {
			return 0, err
		}
	}
	payload := rec.encode()
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[8:], payload)
	if _, err := w.f.Write(frame); err != nil {
		return 0, fmt.Errorf("durable: wal append: %w", err)
	}
	w.fileSize += int64(len(frame))
	return len(frame), nil
}

// syncFile fsyncs a captured segment file; the syncer calls it outside
// the append lock so a slow flush overlaps new appends. nil (no active
// segment) is a no-op, and ErrClosed means a concurrent rotation sealed
// the file out from under us — closeSegment seals with its own Sync, so
// a record can only leave the active segment by being fsynced on the way
// out and everything the caller is covering is already durable.
func syncFile(f *os.File) error {
	if f == nil {
		return nil
	}
	if err := f.Sync(); err != nil {
		if errors.Is(err, os.ErrClosed) {
			return nil
		}
		return fmt.Errorf("durable: wal fsync: %w", err)
	}
	return nil
}

// close seals the active segment.
func (w *wal) close() error { return w.closeSegment() }

// compact deletes sealed segments whose every record is at or below
// throughSeq (covered by a snapshot). A sealed segment's coverage ends
// where the next segment begins, so the check only needs the name
// order. The active segment is never deleted. Returns how many
// segments were removed.
func (w *wal) compact(throughSeq uint64) (int, error) {
	names, err := segmentFiles(w.dir)
	if err != nil {
		return 0, err
	}
	var active string
	if w.f != nil {
		active = filepath.Base(w.f.Name())
	}
	removed := 0
	for i, name := range names {
		if name == active || i+1 >= len(names) {
			break
		}
		nextFirst, ok := segmentSeq(names[i+1])
		if !ok || nextFirst == 0 || nextFirst-1 > throughSeq {
			break
		}
		if err := os.Remove(filepath.Join(w.dir, name)); err != nil {
			return removed, fmt.Errorf("durable: wal compact: %w", err)
		}
		removed++
	}
	return removed, nil
}

// segmentCount reports how many segment files exist (observability).
func (w *wal) segmentCount() int {
	names, err := segmentFiles(w.dir)
	if err != nil {
		return 0
	}
	return len(names)
}
