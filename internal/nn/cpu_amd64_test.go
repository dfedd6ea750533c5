//go:build amd64

package nn

import (
	"reflect"
	"testing"
)

func init() {
	hostAVX2FMA = cpuHasAVX2FMA
	sse2Bodies = func(ks *kernelSet) {
		ks.i8r = i8RowsSSE2
		ks.i8r4 = i8Rows4SSE2
		ks.exprow = expRowSSE2
		ks.rowMax = rowMaxSSE2
		ks.vscale = vscaleSSE2
	}
}

// TestSSE2BodiesAreAVX2Entries pins the "sse2" subtests of
// forEachKernelSet to what the avx2-fma tier dispatches: every entry
// point sse2Bodies sets is the one applyAVX2 installs, and every other
// entry point is an AVX2 body, not the reference.
func TestSSE2BodiesAreAVX2Entries(t *testing.T) {
	ref, sse2, avx2 := refKernelSet(), refKernelSet(), refKernelSet()
	sse2Bodies(sse2)
	applyAVX2(avx2)
	rv, sv, av := reflect.ValueOf(ref).Elem(), reflect.ValueOf(sse2).Elem(), reflect.ValueOf(avx2).Elem()
	var n int
	for i := 0; i < sv.NumField(); i++ {
		if sv.Field(i).Kind() != reflect.Func {
			continue
		}
		name := sv.Type().Field(i).Name
		r, s, a := rv.Field(i).Pointer(), sv.Field(i).Pointer(), av.Field(i).Pointer()
		switch {
		case a == r:
			t.Errorf("avx2-fma leaves %s on the reference body", name)
		case s != r:
			n++
			if s != a {
				t.Errorf("sse2Bodies sets %s to a body avx2-fma does not install", name)
			}
		}
	}
	if n != 5 {
		t.Errorf("sse2Bodies sets %d entry points; want the 5 SSE2-encoded ones", n)
	}
}
