// Package binenc is the one copy of the fixed-width binary primitives
// under both the durability formats (snapshot payloads, WAL records,
// Merkle leaves) and the fleet's RPC frame bodies.
//
// Layout conventions: integers are 64-bit little-endian two's
// complement, counts and string lengths are uint32, strings are
// length-prefixed bytes, slices are count-prefixed elements, floats are
// IEEE-754 bit images. Float64 bits round-trip exactly — warm resume
// reproduces byte-identical annotations from them, and a shard's
// candidate confidences reach the router's /candidates unchanged.
//
// The Reader latches its first error and returns zero values from then
// on, so decoders run straight-line and check Done once; element counts
// are validated against the remaining body so a corrupt length field
// cannot drive a huge allocation.
package binenc

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer accumulates a payload by appending fixed-width fields. With a
// Sink set it streams instead: whenever the buffer reaches FlushBytes
// it is handed to the sink and reused, so a payload of any size is
// encoded through one bounded buffer. The first sink error latches in
// Err and later flushes are dropped.
type Writer struct {
	Buf  []byte
	Sink func([]byte) error
	Err  error
}

// FlushBytes is the streaming chunk size. Snapshot files sync after
// each chunk (see durable.WriteSnapshot for why), so it also bounds how
// long a snapshot write can hold the device's flush queue.
const FlushBytes = 4 << 20

// spill hands a full buffer to the sink.
func (w *Writer) spill() {
	if w.Sink != nil && len(w.Buf) >= FlushBytes {
		if w.Err == nil {
			w.Err = w.Sink(w.Buf)
		}
		w.Buf = w.Buf[:0]
	}
}

func (w *Writer) U8(x byte) {
	w.Buf = append(w.Buf, x)
	w.spill()
}

func (w *Writer) U64(x uint64) {
	w.Buf = binary.LittleEndian.AppendUint64(w.Buf, x)
	w.spill()
}

func (w *Writer) I64(x int) { w.U64(uint64(int64(x))) }

func (w *Writer) F64(x float64) { w.U64(math.Float64bits(x)) }

func (w *Writer) U32(x int) {
	w.Buf = binary.LittleEndian.AppendUint32(w.Buf, uint32(x))
	w.spill()
}

func (w *Writer) Str(s string) {
	w.U32(len(s))
	w.Buf = append(w.Buf, s...)
	w.spill()
}

func (w *Writer) Strs(ss []string) {
	w.U32(len(ss))
	for _, s := range ss {
		w.Str(s)
	}
}

func (w *Writer) Bytes(b []byte) {
	w.U32(len(b))
	w.Buf = append(w.Buf, b...)
	w.spill()
}

func (w *Writer) Floats(d []float64) {
	w.U32(len(d))
	off := len(w.Buf)
	w.Buf = append(w.Buf, make([]byte, 8*len(d))...)
	for i, v := range d {
		binary.LittleEndian.PutUint64(w.Buf[off+8*i:], math.Float64bits(v))
	}
	w.spill()
}

// Reader consumes a payload with latched-error semantics.
type Reader struct {
	B   []byte
	Off int
	Err error
}

// Fail latches the truncated-or-corrupt error at the current offset.
func (r *Reader) Fail() {
	if r.Err == nil {
		r.Err = fmt.Errorf("binenc: body truncated or corrupt at byte %d of %d", r.Off, len(r.B))
	}
}

func (r *Reader) U8() byte {
	if r.Err != nil || r.Off+1 > len(r.B) {
		r.Fail()
		return 0
	}
	v := r.B[r.Off]
	r.Off++
	return v
}

func (r *Reader) U64() uint64 {
	if r.Err != nil || r.Off+8 > len(r.B) {
		r.Fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.B[r.Off:])
	r.Off += 8
	return v
}

func (r *Reader) I64() int { return int(int64(r.U64())) }

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

func (r *Reader) U32() int {
	if r.Err != nil || r.Off+4 > len(r.B) {
		r.Fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.B[r.Off:])
	r.Off += 4
	return int(v)
}

// Count reads an element count whose elements each occupy at least min
// bytes, rejecting counts the remaining body cannot possibly hold — the
// guard that keeps a corrupt length field from driving a huge make().
func (r *Reader) Count(min int) int {
	c := r.U32()
	if r.Err == nil && c > (len(r.B)-r.Off)/min {
		r.Fail()
		return 0
	}
	return c
}

func (r *Reader) Str() string {
	n := r.Count(1)
	if r.Err != nil {
		return ""
	}
	s := string(r.B[r.Off : r.Off+n])
	r.Off += n
	return s
}

func (r *Reader) Strs() []string {
	n := r.Count(4)
	if r.Err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.Str()
	}
	return out
}

// Bytes reads a length-prefixed byte string into a fresh slice.
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	if r.Err != nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.B[r.Off:r.Off+n])
	r.Off += n
	return out
}

func (r *Reader) Floats() []float64 {
	n := r.Count(8)
	if r.Err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.B[r.Off+8*i:]))
	}
	r.Off += 8 * n
	return out
}

// ShapeOK reports whether n values are exactly a rows x cols matrix.
// It divides rather than multiplies: rows*cols of hostile fields can
// wrap around to n.
func ShapeOK(rows, cols, n int) bool {
	if rows == 0 {
		return cols >= 0 && n == 0
	}
	return rows > 0 && cols > 0 && n%cols == 0 && n/cols == rows
}

// Done finishes a decode: any latched error wins, and trailing bytes
// are an error too (a length-field corruption that still lands inside
// the body would otherwise pass silently).
func (r *Reader) Done() error {
	if r.Err != nil {
		return r.Err
	}
	if r.Off != len(r.B) {
		return fmt.Errorf("binenc: body has %d trailing bytes", len(r.B)-r.Off)
	}
	return nil
}
