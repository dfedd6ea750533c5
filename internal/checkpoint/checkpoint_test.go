package checkpoint

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/corpus"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/transformer"
)

func tinyConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Encoder = transformer.Config{
		Dim: 16, Heads: 2, Layers: 1, FFDim: 32, MaxLen: 20,
		VocabBuckets: 256, CharBuckets: 64, Dropout: 0, Seed: 3,
	}
	cfg.PretrainEpochs = 1
	cfg.FineTuneEpochs = 4
	cfg.MaxTriplets = 1500
	cfg.PhraseTrain.Epochs = 8
	cfg.ClassifierTrain.Epochs = 20
	cfg.EnsembleSize = 2
	return cfg
}

func tinyStream(name string, n int, seed int64) *corpus.Dataset {
	return corpus.Generate(corpus.StreamConfig{
		Name: name, NumTweets: n, NumTopics: 1,
		PerTopicEntities: [4]int{8, 7, 5, 5},
		ZipfExponent:     1.1, TypoRate: 0.02, LowercaseRate: 0.3,
		NonEntityRate: 0.3, AmbiguousRate: 0.1, UninformativeRate: 0.1,
		Ambiguity: true, Streaming: true, Seed: seed,
	})
}

var (
	ckptOnce sync.Once
	ckptG    *core.Globalizer
)

func trained(t *testing.T) *core.Globalizer {
	t.Helper()
	ckptOnce.Do(func() {
		g := core.New(tinyConfig())
		g.PretrainEncoder(corpus.PretrainTweets(150, 5))
		g.FineTuneLocal(tinyStream("train", 200, 6).Sentences)
		g.TrainGlobal(tinyStream("d5", 200, 7).Sentences)
		ckptG = g
	})
	return ckptG
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := trained(t)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	// The loaded pipeline must produce byte-identical outputs.
	test := tinyStream("test", 80, 8)
	want := g.Run(test.Sentences, core.ModeFull)
	got := loaded.Run(test.Sentences, core.ModeFull)
	if !reflect.DeepEqual(want.Final, got.Final) {
		t.Fatal("loaded pipeline output differs from original")
	}
	if !reflect.DeepEqual(want.Local, got.Local) {
		t.Fatal("loaded pipeline local output differs from original")
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := trained(t)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := SaveFile(path, g); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if loaded.Config().Encoder.Dim != g.Config().Encoder.Dim {
		t.Fatal("config not restored")
	}
}

// TestLoadRebuildsPackedMirrors pins the satellite contract: weights
// live on disk in f64 only, and a checkpoint saved from an i8-tier
// pipeline comes back with its packed mirrors rebuilt from the loaded
// weights — so a loaded model at i8 matches a freshly-packed one
// exactly.
func TestLoadRebuildsPackedMirrors(t *testing.T) {
	g := trained(t)
	if err := g.SetPrecision(nn.I8); err != nil {
		t.Fatalf("SetPrecision(i8): %v", err)
	}
	defer g.SetPrecision(nn.F64)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got := loaded.Precision(); got != nn.I8 {
		t.Fatalf("loaded tier = %s, want i8 (config must carry the tier)", got)
	}
	test := tinyStream("ptest", 80, 9)
	want := g.Run(test.Sentences, core.ModeFull)
	got := loaded.Run(test.Sentences, core.ModeFull)
	if !reflect.DeepEqual(want.Local, got.Local) {
		t.Fatal("loaded i8 pipeline local output differs from freshly-packed original")
	}
	if !reflect.DeepEqual(want.Final, got.Final) {
		t.Fatal("loaded i8 pipeline final output differs from freshly-packed original")
	}
}

// TestLoadedMirrorsInvalidateOnMutation pins that a caller mutating
// params after Load (further training, weight surgery) invalidates the
// packed mirrors: the reduced tier must serve the new weights, not the
// packs built at load time.
func TestLoadedMirrorsInvalidateOnMutation(t *testing.T) {
	g := trained(t)
	if err := g.SetPrecision(nn.I8); err != nil {
		t.Fatalf("SetPrecision(i8): %v", err)
	}
	defer g.SetPrecision(nn.F64)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	test := tinyStream("mtest", 60, 10)
	before := loaded.Run(test.Sentences, core.ModeFull)

	// Zero an encoder FFN weight — a matrix the reduced tiers consume
	// only through their packed mirrors — and bump its version, as the
	// optimizers do after every step.
	var mutated bool
	for _, p := range loaded.AllParams() {
		if strings.Contains(p.Name, ".ff1.W") {
			for i := range p.W.Data {
				p.W.Data[i] = 0
			}
			p.Bump()
			mutated = true
			break
		}
	}
	if !mutated {
		t.Fatal("no encoder .ff1.W parameter found to mutate")
	}
	after := loaded.Run(test.Sentences, core.ModeFull)
	if reflect.DeepEqual(before.Local, after.Local) {
		t.Fatal("i8 tier served stale packed mirrors after a post-load weight mutation")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("expected error for garbage input")
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	g := trained(t)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	// Re-decode into the private struct, bump the version, re-encode.
	// Simpler: corrupt by re-saving with a hacked struct is not
	// possible from outside; instead verify version check via direct
	// construction.
	f := file{Version: 99}
	var vbuf bytes.Buffer
	if err := encodeFile(&vbuf, &f); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&vbuf); err == nil {
		t.Fatal("expected version error")
	}
}

// TestLoadRefusesBiGRUCheckpoint loads testdata/bigru.ckpt, an untrained
// pipeline with the retired BiGRU Local NER encoder at tinyConfig's
// dimensions: Load must refuse it by name, not by a parameter count.
func TestLoadRefusesBiGRUCheckpoint(t *testing.T) {
	_, err := LoadFile(filepath.Join("testdata", "bigru.ckpt"))
	if err == nil || !strings.Contains(err.Error(), "BiGRU") || !strings.Contains(err.Error(), "Transformer") {
		t.Fatalf("LoadFile = %v, want an error naming the retired BiGRU encoder", err)
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("expected error for missing file")
	}
}
