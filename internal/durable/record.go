// Cycle records: the WAL's unit of appending and the provenance
// layer's unit of leaf batching. One record captures everything needed
// to re-execute one committed cycle — the batch sentences in batch
// order and the mode — plus the annotations the service emitted for
// that batch, which replay verifies against (a mismatch means the
// restart is running a different model or configuration than the one
// that wrote the log) and the Merkle layer hashes as leaves.
package durable

import (
	"fmt"

	"nerglobalizer/internal/binenc"
	"nerglobalizer/internal/types"
)

// Entity is one emitted entity annotation: a typed token span plus the
// surface string as the serving path rendered it.
type Entity struct {
	Start   int              `json:"start"`
	End     int              `json:"end"`
	Type    types.EntityType `json:"type"`
	Surface string           `json:"surface"`
}

// SentenceAnnotation is the annotations one cycle emitted for one
// batch sentence — one Merkle leaf.
type SentenceAnnotation struct {
	TweetID  int      `json:"tweet_id"`
	SentID   int      `json:"sent_id"`
	Entities []Entity `json:"entities"`
}

// Key returns the sentence's stream key.
func (a *SentenceAnnotation) Key() types.SentenceKey {
	return types.SentenceKey{TweetID: a.TweetID, SentID: a.SentID}
}

// CycleSentence is one batch sentence as ingested: identity plus the
// tokenizer's output, enough to re-execute the cycle on replay.
type CycleSentence struct {
	TweetID int
	SentID  int
	Tokens  []string
}

// ToCycleSentences converts a batch for logging.
func ToCycleSentences(batch []*types.Sentence) []CycleSentence {
	out := make([]CycleSentence, len(batch))
	for i, s := range batch {
		out[i] = CycleSentence{TweetID: s.TweetID, SentID: s.SentID, Tokens: s.Tokens}
	}
	return out
}

// ToSentences materializes a logged batch.
func ToSentences(cs []CycleSentence) []*types.Sentence {
	out := make([]*types.Sentence, len(cs))
	for i, c := range cs {
		out[i] = &types.Sentence{TweetID: c.TweetID, SentID: c.SentID, Tokens: c.Tokens}
	}
	return out
}

// RenderAnnotations builds the loggable annotations for one cycle from
// the engine's output, index-aligned with batch. Surfaces are rendered
// exactly as the serving path does (SurfaceAt over the final span), so
// replay verification and Merkle leaves cover the bytes clients saw.
func RenderAnnotations(batch []*types.Sentence, final map[types.SentenceKey][]types.Entity) []SentenceAnnotation {
	out := make([]SentenceAnnotation, len(batch))
	for i, sent := range batch {
		a := SentenceAnnotation{TweetID: sent.TweetID, SentID: sent.SentID}
		for _, e := range final[sent.Key()] {
			a.Entities = append(a.Entities, Entity{
				Start:   e.Start,
				End:     e.End,
				Type:    e.Type,
				Surface: sent.SurfaceAt(e.Span),
			})
		}
		out[i] = a
	}
	return out
}

// AnnotationsEqual compares two cycles' annotations by their canonical
// leaf encodings — the same bytes the Merkle layer hashes.
func AnnotationsEqual(a, b []SentenceAnnotation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if string(leafBytes(a[i])) != string(leafBytes(b[i])) {
			return false
		}
	}
	return true
}

// CycleRecord is one committed execution cycle in the WAL. Annotations
// is index-aligned with Sentences.
type CycleRecord struct {
	Seq         uint64
	Mode        int
	Sentences   []CycleSentence
	Annotations []SentenceAnnotation
}

// PutAnnotation writes one sentence's annotations: the canonical
// encoding of a Merkle leaf — the bytes the provenance layer hashes and
// cmd/nerprove re-derives during verification — and the element of the
// fleet's owned-annotation lists. It must never change shape without a
// WAL format bump.
func PutAnnotation(w *binenc.Writer, a *SentenceAnnotation) {
	w.I64(a.TweetID)
	w.I64(a.SentID)
	w.U32(len(a.Entities))
	for _, e := range a.Entities {
		w.I64(e.Start)
		w.I64(e.End)
		w.I64(int(e.Type))
		w.Str(e.Surface)
	}
}

// GetAnnotation reads what PutAnnotation wrote.
func GetAnnotation(r *binenc.Reader, a *SentenceAnnotation) {
	a.TweetID = r.I64()
	a.SentID = r.I64()
	if ne := r.Count(28); ne > 0 {
		a.Entities = make([]Entity, ne)
	}
	for j := range a.Entities {
		e := &a.Entities[j]
		e.Start = r.I64()
		e.End = r.I64()
		e.Type = types.EntityType(r.I64())
		e.Surface = r.Str()
	}
}

// leafBytes is one annotation leaf on its own.
func leafBytes(a SentenceAnnotation) []byte {
	w := &binenc.Writer{Buf: make([]byte, 0, 24+32*len(a.Entities))}
	PutAnnotation(w, &a)
	return w.Buf
}

func putAnnotations(w *binenc.Writer, anns []SentenceAnnotation) {
	w.U32(len(anns))
	for i := range anns {
		w.Bytes(leafBytes(anns[i]))
	}
}

func getAnnotations(r *binenc.Reader) []SentenceAnnotation {
	n := r.Count(4)
	if r.Err != nil || n == 0 {
		return nil
	}
	out := make([]SentenceAnnotation, n)
	for i := range out {
		lr := &binenc.Reader{B: r.Bytes()}
		GetAnnotation(lr, &out[i])
		if err := lr.Done(); err != nil && r.Err == nil {
			r.Err = err
		}
	}
	return out
}

// cycleSentenceMin is the smallest encoded sentence: TweetID, SentID
// and the token count.
const cycleSentenceMin = 20

// CycleSentencesSize is the encoded size of a sentence list, for
// pre-sizing the buffer PutCycleSentences writes into.
func CycleSentencesSize(cs []CycleSentence) int {
	n := 4
	for i := range cs {
		n += cycleSentenceMin
		for _, t := range cs[i].Tokens {
			n += 4 + len(t)
		}
	}
	return n
}

// PutCycleSentences writes a sentence list: the one layout the WAL, the
// router journal and the fleet's commit frames all carry.
func PutCycleSentences(w *binenc.Writer, cs []CycleSentence) {
	w.U32(len(cs))
	for i := range cs {
		w.I64(cs[i].TweetID)
		w.I64(cs[i].SentID)
		w.Strs(cs[i].Tokens)
	}
}

// GetCycleSentences reads what PutCycleSentences wrote.
func GetCycleSentences(r *binenc.Reader) []CycleSentence {
	n := r.Count(cycleSentenceMin)
	if r.Err != nil || n == 0 {
		return nil
	}
	out := make([]CycleSentence, n)
	for i := range out {
		out[i].TweetID = r.I64()
		out[i].SentID = r.I64()
		out[i].Tokens = r.Strs()
	}
	return out
}

// encode serializes the record for WAL framing.
func (c *CycleRecord) encode() []byte {
	w := &binenc.Writer{Buf: make([]byte, 0, 256)}
	w.U64(c.Seq)
	w.I64(c.Mode)
	PutCycleSentences(w, c.Sentences)
	putAnnotations(w, c.Annotations)
	return w.Buf
}

// decodeCycleRecord parses one framed WAL payload.
func decodeCycleRecord(b []byte) (*CycleRecord, error) {
	r := &binenc.Reader{B: b}
	c := &CycleRecord{}
	c.Seq = r.U64()
	c.Mode = r.I64()
	c.Sentences = GetCycleSentences(r)
	c.Annotations = getAnnotations(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("durable: cycle record: %w", err)
	}
	return c, nil
}
