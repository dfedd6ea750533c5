package main

import (
	"path/filepath"
	"testing"
)

// TestSmoke runs the whole benchmark in miniature: a model trained in
// a few seconds, 200-tweet streams, all four topologies, the untraced
// and the traced run, the exact pass and every output check. It keeps
// the benchmark compiling and running under `go test ./...`.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a small model")
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "smoke.ckpt")
	if err := trainCheckpoint(ckpt, true); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			r := runChild(w.Name, 7, runSeconds, trace, true, ckpt, filepath.Join(dir, "out"))
			for _, c := range r.Checks {
				if !c.OK {
					t.Errorf("%s trace=%v: %s: %s", w.Name, trace, c.Name, c.Detail)
				}
			}
			if !r.OutputsOK {
				t.Errorf("%s trace=%v: outputs_ok is false", w.Name, trace)
			}
			if attempted, failed := r.attempted(); attempted == 0 || failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.Name, trace, attempted, failed)
			}
			got, want := r.EndToEnd, endToEndUnits
			if trace {
				got, want = r.PerLayer, perLayerUnits
			}
			for name, m := range got {
				if want[name] != m.Unit {
					t.Errorf("%s trace=%v: %s has unit %q, the registry says %q", w.Name, trace, name, m.Unit, want[name])
				}
			}
			if trace && r.PerLayer["trace.reply_mismatches"].Value != 0 {
				t.Errorf("%s: composed replay differs from the real topology", w.Name)
			}
			if !trace {
				if _, ok := r.EndToEnd["drain_tweets_per_s"]; !ok {
					t.Errorf("%s: no drain_tweets_per_s", w.Name)
				}
			}
		}
	}
}
