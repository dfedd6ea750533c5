// Package checkpoint serializes trained NER Globalizer pipelines to a
// single binary file (encoding/gob) and restores them, so that a
// system trained once can be shipped and deployed without retraining.
//
// Weights are stored by parameter name with their shapes; Load rebuilds
// the architecture from the stored configuration and then copies the
// weights in, refusing mismatched names or shapes. Optimizer state is
// not saved — a loaded pipeline is for inference or further training
// from fresh optimizer moments.
package checkpoint

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"strings"

	"nerglobalizer/internal/core"
)

// format versioning: bump when the layout changes incompatibly.
const formatVersion = 1

// tensor is one named weight matrix.
type tensor struct {
	Name       string
	Rows, Cols int
	Data       []float64
}

// file is the serialized form.
type file struct {
	Version int
	Config  core.Config
	Tensors []tensor
}

// encodeFile gob-encodes a raw file structure (exposed to tests for
// version-check coverage).
func encodeFile(w io.Writer, f *file) error {
	return gob.NewEncoder(w).Encode(f)
}

// Save writes the pipeline's configuration and every trainable weight
// to w.
func Save(w io.Writer, g *core.Globalizer) error {
	f := file{Version: formatVersion, Config: g.Config()}
	seen := make(map[string]bool)
	for i, p := range g.AllParams() {
		name := p.Name
		if seen[name] {
			// Ensemble members share layer names; disambiguate by
			// position so round-trips stay exact.
			name = fmt.Sprintf("%s#%d", p.Name, i)
		}
		seen[name] = true
		f.Tensors = append(f.Tensors, tensor{
			Name: name,
			Rows: p.W.Rows,
			Cols: p.W.Cols,
			Data: append([]float64(nil), p.W.Data...),
		})
	}
	return gob.NewEncoder(w).Encode(&f)
}

// SaveFile saves the pipeline to path, creating or truncating it.
func SaveFile(path string, g *core.Globalizer) error {
	fd, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer fd.Close()
	if err := Save(fd, g); err != nil {
		return err
	}
	return fd.Close()
}

// Load reads a checkpoint and reconstructs a ready-to-run pipeline.
func Load(r io.Reader) (*core.Globalizer, error) {
	var f file
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if f.Version != formatVersion {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (want %d)", f.Version, formatVersion)
	}
	// A checkpoint of the retired BiGRU encoder still decodes (gob drops
	// its vanished Config.Kind field) but holds rnn.* weights, a name no
	// Transformer parameter carries; say so before the count check does.
	for _, t := range f.Tensors {
		if strings.HasPrefix(t.Name, "rnn.") {
			return nil, fmt.Errorf("checkpoint: parameter %q belongs to the retired BiGRU encoder; retrain with the Transformer encoder", t.Name)
		}
	}
	g := core.New(f.Config)
	params := g.AllParams()
	if len(params) != len(f.Tensors) {
		return nil, fmt.Errorf("checkpoint: parameter count mismatch: file has %d, architecture has %d",
			len(f.Tensors), len(params))
	}
	seen := make(map[string]bool)
	for i, p := range params {
		name := p.Name
		if seen[name] {
			name = fmt.Sprintf("%s#%d", p.Name, i)
		}
		seen[name] = true
		t := f.Tensors[i]
		if t.Name != name {
			return nil, fmt.Errorf("checkpoint: parameter %d name mismatch: file %q vs architecture %q",
				i, t.Name, name)
		}
		if t.Rows != p.W.Rows || t.Cols != p.W.Cols {
			return nil, fmt.Errorf("checkpoint: parameter %q shape mismatch: file %dx%d vs architecture %dx%d",
				t.Name, t.Rows, t.Cols, p.W.Rows, p.W.Cols)
		}
		copy(p.W.Data, t.Data)
		// Weights live on disk in f64 only; bumping the version here
		// invalidates any packed reduced-precision mirrors built from
		// the pre-load initialization, so the tiers always serve the
		// loaded weights.
		p.Bump()
	}
	// Re-apply the configured tier so the packed mirrors are rebuilt
	// eagerly from the loaded weights rather than inside the first
	// inference call.
	if err := g.SetPrecision(g.Precision()); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return g, nil
}

// LoadFile loads a pipeline checkpoint from path.
func LoadFile(path string) (*core.Globalizer, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer fd.Close()
	return Load(fd)
}
