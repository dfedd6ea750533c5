package binenc

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

func sample(w *Writer) {
	w.U8(7)
	w.U32(9)
	w.U64(1 << 63)
	w.I64(-5)
	w.F64(math.Copysign(0, -1))
	w.Str("héllo")
	w.Strs([]string{"a", "", "wörld"})
	w.Bytes([]byte{1, 2, 3})
	w.Floats([]float64{math.Inf(-1), 5e-324, -math.Pi})
}

func TestRoundTripAndTruncation(t *testing.T) {
	w := &Writer{}
	sample(w)
	r := &Reader{B: w.Buf}
	if r.U8() != 7 || r.U32() != 9 || r.U64() != 1<<63 || r.I64() != -5 {
		t.Fatal("integers did not round-trip")
	}
	if z := r.F64(); z != 0 || !math.Signbit(z) {
		t.Fatalf("negative zero came back as %v", z)
	}
	if s := r.Str(); s != "héllo" {
		t.Fatalf("string = %q", s)
	}
	if ss := r.Strs(); !reflect.DeepEqual(ss, []string{"a", "", "wörld"}) {
		t.Fatalf("strings = %q", ss)
	}
	if b := r.Bytes(); !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v", b)
	}
	if f := r.Floats(); !reflect.DeepEqual(f, []float64{math.Inf(-1), 5e-324, -math.Pi}) {
		t.Fatalf("floats = %v", f)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}

	// Every truncation latches an error; trailing junk fails Done.
	for n := 0; n < len(w.Buf); n++ {
		r := &Reader{B: w.Buf[:n]}
		r.U8()
		r.U32()
		r.U64()
		r.I64()
		r.F64()
		r.Str()
		r.Strs()
		r.Bytes()
		r.Floats()
		if r.Done() == nil {
			t.Fatalf("prefix of %d bytes decoded cleanly", n)
		}
	}
	r = &Reader{B: []byte{1, 2}}
	r.U8()
	if r.Done() == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestCountGuard(t *testing.T) {
	// A huge count field must be rejected before allocation.
	w := &Writer{}
	w.U32(1 << 30)
	for name, read := range map[string]func(*Reader) any{
		"strs":   func(r *Reader) any { return r.Strs() },
		"floats": func(r *Reader) any { return r.Floats() },
		"bytes":  func(r *Reader) any { return r.Bytes() },
	} {
		r := &Reader{B: w.Buf}
		if out := read(r); !reflect.ValueOf(out).IsNil() || r.Err == nil {
			t.Fatalf("%s: absurd count accepted: %v, err %v", name, out, r.Err)
		}
	}
}

func TestSinkStreamsInChunks(t *testing.T) {
	var got []byte
	flushes := 0
	w := &Writer{Sink: func(b []byte) error {
		flushes++
		got = append(got, b...)
		return nil
	}}
	big := make([]float64, FlushBytes/8+10)
	for i := range big {
		big[i] = float64(i)
	}
	w.Floats(big)
	w.Str("tail")
	got = append(got, w.Buf...)
	whole := &Writer{}
	whole.Floats(big)
	whole.Str("tail")
	if flushes == 0 || !bytes.Equal(got, whole.Buf) {
		t.Fatalf("streamed encoding (%d flushes, %d bytes) differs from the in-memory one (%d bytes)", flushes, len(got), len(whole.Buf))
	}

	// The first sink error latches and later flushes are dropped.
	boom := errors.New("disk full")
	calls := 0
	w = &Writer{Sink: func([]byte) error { calls++; return boom }}
	w.Floats(big)
	w.Floats(big)
	if !errors.Is(w.Err, boom) || calls != 1 {
		t.Fatalf("err = %v after %d sink calls, want the first error latched after one", w.Err, calls)
	}
}
