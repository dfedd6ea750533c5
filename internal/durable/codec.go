// Hand-rolled binary codec for the durability formats (snapshot
// payloads, WAL records, Merkle leaves).
//
// The layout conventions are the fleet wire codec's: integers are
// 64-bit little-endian two's complement, counts and string lengths are
// uint32, strings are length-prefixed bytes, slices are count-prefixed
// elements, floats are IEEE-754 bit images. Float64 bits round-trip
// exactly — warm resume must reproduce byte-identical annotations, and
// the amortization caches it restores are keyed by those bits.
//
// The reader latches its first error and returns zero values from then
// on, so decoders run straight-line and check done() once; element
// counts are validated against the remaining body so a corrupt length
// field cannot drive a huge allocation.
package durable

import (
	"encoding/binary"
	"fmt"
	"math"
)

// writer accumulates a payload by appending fixed-width fields. With a
// sink set it streams instead: whenever the buffer reaches flushBytes
// it is handed to the sink and reused, so a payload of any size is
// encoded through one bounded buffer. The first sink error latches in
// err and later flushes are dropped.
type writer struct {
	buf  []byte
	sink func([]byte) error
	err  error
}

// flushBytes is the streaming chunk size. Snapshot files sync after
// each chunk (see WriteSnapshot for why), so it also bounds how long a
// snapshot write can hold the device's flush queue.
const flushBytes = 4 << 20

// spill hands a full buffer to the sink.
func (w *writer) spill() {
	if w.sink != nil && len(w.buf) >= flushBytes {
		if w.err == nil {
			w.err = w.sink(w.buf)
		}
		w.buf = w.buf[:0]
	}
}

func (w *writer) u8(x byte) {
	w.buf = append(w.buf, x)
	w.spill()
}

func (w *writer) u64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	w.buf = append(w.buf, b[:]...)
	w.spill()
}

func (w *writer) i64(x int) { w.u64(uint64(int64(x))) }

func (w *writer) f64(x float64) { w.u64(math.Float64bits(x)) }

func (w *writer) u32(x int) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(x))
	w.buf = append(w.buf, b[:]...)
	w.spill()
}

func (w *writer) str(s string) {
	w.u32(len(s))
	w.buf = append(w.buf, s...)
	w.spill()
}

func (w *writer) strs(ss []string) {
	w.u32(len(ss))
	for _, s := range ss {
		w.str(s)
	}
}

func (w *writer) bytes(b []byte) {
	w.u32(len(b))
	w.buf = append(w.buf, b...)
	w.spill()
}

func (w *writer) floats(d []float64) {
	w.u32(len(d))
	off := len(w.buf)
	w.buf = append(w.buf, make([]byte, 8*len(d))...)
	for i, v := range d {
		binary.LittleEndian.PutUint64(w.buf[off+8*i:], math.Float64bits(v))
	}
	w.spill()
}

// reader consumes a payload with latched-error semantics.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("durable: body truncated or corrupt at byte %d of %d", r.off, len(r.b))
	}
}

func (r *reader) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) i64() int { return int(int64(r.u64())) }

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) u32() int {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return int(v)
}

// count reads an element count whose elements each occupy at least min
// bytes, rejecting counts the remaining body cannot possibly hold.
func (r *reader) count(min int) int {
	c := r.u32()
	if r.err == nil && c > (len(r.b)-r.off)/min {
		r.fail()
		return 0
	}
	return c
}

func (r *reader) str() string {
	n := r.count(1)
	if r.err != nil {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) strs() []string {
	n := r.count(4)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

func (r *reader) rawBytes() []byte {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.b[r.off:r.off+n])
	r.off += n
	return out
}

func (r *reader) floats() []float64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off+8*i:]))
	}
	r.off += 8 * n
	return out
}

// done finishes a decode: any latched error wins, and trailing bytes
// are an error too.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("durable: body has %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}
