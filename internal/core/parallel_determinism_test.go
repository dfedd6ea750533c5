package core

import (
	"reflect"
	"testing"
)

// TestWorkersOutputIdentical is the determinism contract of the
// data-parallel execution layer: at every worker count the pipeline
// must produce bit-identical tagger output, candidate clusters
// (assignments, embeddings, types, confidences), and final entity
// tables. The serial run (Workers=1) is the reference.
func TestWorkersOutputIdentical(t *testing.T) {
	g := trainedGlobalizer(t)
	orig := g.Workers()
	defer g.SetWorkers(orig)

	test := smallStream("par", 120, 41)

	g.SetWorkers(1)
	serial := g.Run(test.Sentences, ModeFull)
	serialCands := g.CandidateBase().All()

	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"workers=2", 2},
		{"workers=4", 4},
		{"workers=8", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g.SetWorkers(tc.workers)
			res := g.Run(test.Sentences, ModeFull)
			if !reflect.DeepEqual(res.Local, serial.Local) {
				t.Fatal("tagger output differs from serial run")
			}
			if !reflect.DeepEqual(res.Final, serial.Final) {
				t.Fatal("final entity table differs from serial run")
			}
			if res.Candidates != serial.Candidates {
				t.Fatalf("candidate count %d differs from serial %d", res.Candidates, serial.Candidates)
			}
			// Candidates carry cluster ids, member mentions, pooled
			// embeddings, and confidences — DeepEqual demands all of it
			// bit-identical, not just the entity decisions.
			if !reflect.DeepEqual(g.CandidateBase().All(), serialCands) {
				t.Fatal("candidate clusters differ from serial run")
			}
		})
	}
}

// TestEMDGlobalizerWorkersIdentical covers the per-surface fan-out of
// the EMD Globalizer comparison path.
func TestEMDGlobalizerWorkersIdentical(t *testing.T) {
	g := trainedGlobalizer(t)
	orig := g.Workers()
	defer g.SetWorkers(orig)

	test := smallStream("paremd", 80, 43)
	g.SetWorkers(1)
	serial := g.RunEMDGlobalizer(test.Sentences)
	g.SetWorkers(4)
	par := g.RunEMDGlobalizer(test.Sentences)
	if !reflect.DeepEqual(par, serial) {
		t.Fatal("EMD Globalizer output differs between Workers=1 and Workers=4")
	}
}
