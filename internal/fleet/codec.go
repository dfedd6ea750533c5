// Frame bodies: the fixed-width encodings of the per-cycle RPC payloads
// and the two fan-in replies, written with the internal/binenc
// primitives (the layout conventions are documented there); a batch's
// sentences are durable's sentence list, byte for byte. A body is
// the whole frame payload — no envelope, no type descriptors — and both
// ends of a connection are the same build, so the layouts carry no
// version. Float64 bits are preserved exactly: fleet identity depends on
// it. A nil embedding matrix encodes as rows = -1.
package fleet

import (
	"fmt"

	"nerglobalizer/internal/binenc"
	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/localner"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/server"
	"nerglobalizer/internal/types"
)

const (
	wireTagMin    = 16 // token count + entity count + matrix rows
	wireEntityMin = 24 // Start + End + Type
	wireSEMin     = 20 // TweetID + SentID + entity count
	wireOwnedMin  = 28 // entity fields + surface length
)

func tagsSize(ts []*localner.Result) int {
	n := 4
	for _, t := range ts {
		n += wireTagMin + wireEntityMin*len(t.Entities)
		for _, tok := range t.Tokens {
			n += 4 + len(tok)
		}
		if t.Embeddings != nil {
			n += 8 + 4 + 8*len(t.Embeddings.Data)
		}
	}
	return n
}

// putTags writes tag results; their labels stay off the wire.
func putTags(w *binenc.Writer, ts []*localner.Result) {
	w.U32(len(ts))
	for _, t := range ts {
		w.Strs(t.Tokens)
		w.U32(len(t.Entities))
		for _, e := range t.Entities {
			w.I64(e.Start)
			w.I64(e.End)
			w.I64(int(e.Type))
		}
		m := t.Embeddings
		if m == nil {
			w.I64(-1)
			continue
		}
		if len(m.Data) != m.Rows*m.Cols && w.Err == nil {
			w.Err = fmt.Errorf("fleet: matrix %dx%d has %d values", m.Rows, m.Cols, len(m.Data))
		}
		w.I64(m.Rows)
		w.I64(m.Cols)
		w.Floats(m.Data)
	}
}

func getTags(r *binenc.Reader) []*localner.Result {
	n := r.Count(wireTagMin)
	if r.Err != nil || n == 0 {
		return nil
	}
	out := make([]*localner.Result, n)
	for i := range out {
		t := &localner.Result{}
		out[i] = t
		t.Tokens = r.Strs()
		ne := r.Count(wireEntityMin)
		if r.Err != nil {
			return nil
		}
		if ne > 0 {
			t.Entities = make([]types.Entity, ne)
		}
		for j := range t.Entities {
			t.Entities[j].Start = r.I64()
			t.Entities[j].End = r.I64()
			t.Entities[j].Type = types.EntityType(r.I64())
		}
		rows := r.I64()
		if rows == -1 {
			continue
		}
		cols := r.I64()
		data := r.Floats()
		if r.Err == nil && !binenc.ShapeOK(rows, cols, len(data)) {
			r.Err = fmt.Errorf("fleet: matrix shape %dx%d has %d values", rows, cols, len(data))
		}
		t.Embeddings = &nn.Matrix{Rows: rows, Cols: cols, Data: data}
	}
	return out
}

func ownedSize(es []durable.SentenceAnnotation) int {
	n := 4
	for i := range es {
		n += wireSEMin
		for _, e := range es[i].Entities {
			n += wireOwnedMin + len(e.Surface)
		}
	}
	return n
}

// putOwned writes owned annotations one after the other, not as the
// length-prefixed leaves of a WAL record: it is the layout a shard's
// persisted LastResp already has.
func putOwned(w *binenc.Writer, es []durable.SentenceAnnotation) {
	w.U32(len(es))
	for i := range es {
		durable.PutAnnotation(w, &es[i])
	}
}

func getOwned(r *binenc.Reader) []durable.SentenceAnnotation {
	n := r.Count(wireSEMin)
	if r.Err != nil || n == 0 {
		return nil
	}
	out := make([]durable.SentenceAnnotation, n)
	for i := range out {
		durable.GetAnnotation(r, &out[i])
	}
	return out
}

// wireCandidateMin is the smallest encoded candidate: an empty surface
// plus four fixed fields.
const wireCandidateMin = 4 + 8*4

func putCandidates(w *binenc.Writer, cs []server.Candidate) {
	w.U32(len(cs))
	for i := range cs {
		w.Str(cs[i].Surface)
		w.I64(cs[i].ClusterID)
		w.I64(int(cs[i].Type))
		w.I64(cs[i].Mentions)
		w.F64(cs[i].Confidence)
	}
}

func getCandidates(r *binenc.Reader) []server.Candidate {
	n := r.Count(wireCandidateMin)
	if r.Err != nil || n == 0 {
		return nil
	}
	out := make([]server.Candidate, n)
	for i := range out {
		out[i].Surface = r.Str()
		out[i].ClusterID = r.I64()
		out[i].Type = types.EntityType(r.I64())
		out[i].Mentions = r.I64()
		out[i].Confidence = r.F64()
	}
	return out
}

// finish ends a body decode, naming the body in the error.
func finish(r *binenc.Reader, what string) error {
	if err := r.Done(); err != nil {
		return fmt.Errorf("fleet: %s body: %w", what, err)
	}
	return nil
}

// encode renders the tag request as a frame body.
func (q *TagRequest) encode() ([]byte, error) {
	w := &binenc.Writer{Buf: make([]byte, 0, 8+durable.CycleSentencesSize(q.Sentences))}
	w.U64(q.Seq)
	durable.PutCycleSentences(w, q.Sentences)
	return w.Buf, w.Err
}

func (q *TagRequest) decode(b []byte) error {
	r := &binenc.Reader{B: b}
	q.Seq = r.U64()
	q.Sentences = durable.GetCycleSentences(r)
	return finish(r, "tag request")
}

// encode renders the tag response as a frame body.
func (q *TagResponse) encode() ([]byte, error) {
	w := &binenc.Writer{Buf: make([]byte, 0, 16+tagsSize(q.Results))}
	w.U64(q.Seq)
	putTags(w, q.Results)
	w.F64(q.BusySeconds)
	return w.Buf, w.Err
}

func (q *TagResponse) decode(b []byte) error {
	r := &binenc.Reader{B: b}
	q.Seq = r.U64()
	q.Results = getTags(r)
	q.BusySeconds = r.F64()
	return finish(r, "tag response")
}

// encode renders the commit request as a frame body. The router encodes
// a cycle's commit once and every shard's frame references the same
// bytes.
func (q *CommitRequest) encode() ([]byte, error) {
	w := &binenc.Writer{Buf: make([]byte, 0, 16+durable.CycleSentencesSize(q.Sentences)+tagsSize(q.Tagged))}
	w.U64(q.Seq)
	durable.PutCycleSentences(w, q.Sentences)
	putTags(w, q.Tagged)
	w.I64(int(core.ModeFull))
	return w.Buf, w.Err
}

func (q *CommitRequest) decode(b []byte) error {
	r := &binenc.Reader{B: b}
	q.Seq = r.U64()
	q.Sentences = durable.GetCycleSentences(r)
	q.Tagged = getTags(r)
	if mode := r.I64(); r.Err == nil && mode != int(core.ModeFull) {
		r.Err = fmt.Errorf("mode slot holds %d, a commit is always %d (%v)", mode, int(core.ModeFull), core.ModeFull)
	}
	return finish(r, "commit request")
}

// encode renders the commit response as a frame body — also the form
// a shard snapshot keeps its cached last response in.
func (q *CommitResponse) encode() []byte {
	w := &binenc.Writer{Buf: make([]byte, 0, 32+ownedSize(q.Entities))}
	w.U64(q.Seq)
	putOwned(w, q.Entities)
	w.I64(q.StreamSize)
	w.I64(q.Candidates)
	w.F64(q.BusySeconds)
	return w.Buf
}

func (q *CommitResponse) decode(b []byte) error {
	r := &binenc.Reader{B: b}
	q.Seq = r.U64()
	q.Entities = getOwned(r)
	q.StreamSize = r.I64()
	q.Candidates = r.I64()
	q.BusySeconds = r.F64()
	return finish(r, "commit response")
}

// encodeCandidates renders a shard's candidate fan-in reply.
func encodeCandidates(cs []server.Candidate) []byte {
	w := &binenc.Writer{}
	putCandidates(w, cs)
	return w.Buf
}

func decodeCandidates(b []byte) ([]server.Candidate, error) {
	r := &binenc.Reader{B: b}
	out := getCandidates(r)
	return out, finish(r, "candidates")
}

// encodeEntities renders a shard's whole-stream entity fan-in reply.
func encodeEntities(es []durable.SentenceAnnotation) []byte {
	w := &binenc.Writer{Buf: make([]byte, 0, ownedSize(es))}
	putOwned(w, es)
	return w.Buf
}

func decodeEntities(b []byte) ([]durable.SentenceAnnotation, error) {
	r := &binenc.Reader{B: b}
	out := getOwned(r)
	return out, finish(r, "entities")
}
