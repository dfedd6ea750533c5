package fleet

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"nerglobalizer/internal/binenc"
	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/server"
	"nerglobalizer/internal/types"
)

// fuzzSampleCommit builds a small but structurally complete
// CommitRequest: a nested token list, non-ASCII strings, an empty
// sentence. The fuzz targets below use its encoding as the seed corpus
// so mutation starts from a valid body, not random noise.
func fuzzSampleCommit() *CommitRequest {
	return &CommitRequest{
		Seq: 7,
		Sentences: []durable.CycleSentence{
			{TweetID: 1, SentID: 0, Tokens: []string{"Caffè", "in", "Milano"}},
			{TweetID: 2, SentID: 1, Tokens: nil},
		},
	}
}

// opRetiredTag is the op number of the tag RPC builds that shipped tag
// results served; no op carries it now.
const opRetiredTag byte = 1

// repeatedKeyCommit is q with its first sentence sent again at the end:
// it decodes cleanly and the engine must still never see it.
func repeatedKeyCommit(q *CommitRequest) *CommitRequest {
	return &CommitRequest{Seq: q.Seq, Sentences: append(append([]durable.CycleSentence(nil), q.Sentences...), q.Sentences[0])}
}

// parentCommitBody lays q out as builds that shipped tag results did:
// [seq][sentences][tag results][mode], each sentence tagged with its own
// tokens, one entity on its first token and a zero embedding row per
// token, and the mode slot ModeFull.
func parentCommitBody(q *CommitRequest) []byte {
	w := &binenc.Writer{}
	w.U64(q.Seq)
	durable.PutCycleSentences(w, q.Sentences)
	w.U32(len(q.Sentences))
	for _, cs := range q.Sentences {
		w.Strs(cs.Tokens)
		if len(cs.Tokens) == 0 {
			w.U32(0)
			w.I64(-1)
			continue
		}
		w.U32(1)
		w.I64(0)
		w.I64(1)
		w.I64(int(types.Location))
		w.I64(len(cs.Tokens))
		w.I64(3)
		w.Floats(make([]float64, 3*len(cs.Tokens)))
	}
	w.I64(int(core.ModeFull))
	return w.Buf
}

// sampleBodies returns one valid body of every kind the frame path
// carries, the commit request first.
func sampleBodies() [][]byte {
	owned := []durable.SentenceAnnotation{
		{TweetID: 1, SentID: 0, Entities: []durable.Entity{{Start: 2, End: 3, Type: types.Location, Surface: "milano"}}},
	}
	commitResp := (&CommitResponse{Seq: 7, Entities: owned, StreamSize: 2, Candidates: 1, BusySeconds: 0.25}).encode()
	cands := encodeCandidates([]server.Candidate{{Surface: "milano", ClusterID: 1, Type: types.Location, Mentions: 3, Confidence: 0.5}})
	return [][]byte{fuzzSampleCommit().encode(), commitResp, cands, encodeEntities(owned)}
}

// decodeAny drives every body decoder over the same payload. The
// contract under fuzzing is narrow and absolute: arbitrary bytes may
// fail to decode, but they must never panic the decoder — a malformed
// peer must not be able to crash a shard or the router.
func decodeAny(payload []byte) {
	if q := new(CommitRequest); q.decode(payload) == nil {
		_ = q.validate()
	}
	_ = new(CommitResponse).decode(payload)
	_, _ = decodeCandidates(payload)
	_, _ = decodeEntities(payload)
}

func FuzzWireCodecDecode(f *testing.F) {
	bodies := sampleBodies()
	for _, body := range bodies {
		f.Add(body)
	}
	f.Add(repeatedKeyCommit(fuzzSampleCommit()).encode())
	f.Add(parentCommitBody(fuzzSampleCommit()))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// Every body one byte short and one byte long.
	for _, body := range bodies {
		f.Add(body[:len(body)-1])
		f.Add(append(append([]byte(nil), body...), 0))
	}
	// Counts far past what the body holds: of a commit's sentences, of
	// its sentence's tokens (or a commit response's entities), of an
	// entities reply's entities, of candidates.
	absurd := func(prefix func(w *binenc.Writer)) []byte {
		w := &binenc.Writer{}
		prefix(w)
		w.U32(1<<32 - 1)
		return w.Buf
	}
	f.Add(absurd(func(w *binenc.Writer) { w.U64(7) }))
	f.Add(absurd(func(w *binenc.Writer) { w.U64(7); w.U32(1); w.I64(1); w.I64(0) }))
	f.Add(absurd(func(w *binenc.Writer) { w.U32(1); w.I64(1); w.I64(0) }))
	f.Add(absurd(func(w *binenc.Writer) {}))

	f.Fuzz(func(t *testing.T, payload []byte) {
		decodeAny(payload)
	})
}

// TestWireCodecMutationsNeverPanic is the deterministic slice of the
// fuzz surface that runs on every `go test`: every single-byte
// mutation and every truncation of a valid commit body is fed to all
// the decoders. Decoding may succeed (some mutations only touch payload
// values) or error — it must not panic or over-allocate.
func TestWireCodecMutationsNeverPanic(t *testing.T) {
	raw := fuzzSampleCommit().encode()
	for i := range raw {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), raw...)
			mut[i] ^= flip
			decodeAny(mut)
		}
		decodeAny(raw[:i])
	}
}

// TestCommitValidate pins the validator and the decoder on the seeds
// the fuzz target starts from: a commit that repeats a sentence key
// survives the codec and is refused, the commit it varies is accepted,
// and a commit body of a build that shipped tag results does not decode.
func TestCommitValidate(t *testing.T) {
	roundTrip := func(q *CommitRequest) *CommitRequest {
		t.Helper()
		out := new(CommitRequest)
		if err := out.decode(q.encode()); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if err := roundTrip(repeatedKeyCommit(fuzzSampleCommit())).validate(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("a commit repeating a sentence key: %v, want a refusal", err)
	}
	if err := roundTrip(fuzzSampleCommit()).validate(); err != nil {
		t.Errorf("well-formed commit refused: %v", err)
	}
	if err := new(CommitRequest).decode(parentCommitBody(fuzzSampleCommit())); err == nil {
		t.Error("a commit body with tag results and a mode slot decoded cleanly")
	}
}

// requestFrame and replyFrame lay a body out as the wire does.
func requestFrame(op byte, body []byte) []byte {
	var hdr [requestHeaderLen]byte
	putRequestHeader(&hdr, op, len(body))
	return append(hdr[:], body...)
}

func replyFrame(status byte, retryAfter int, body []byte) []byte {
	var hdr [replyHeaderLen]byte
	putReplyHeader(&hdr, status, retryAfter, len(body))
	return append(hdr[:], body...)
}

// readFrames reads data as a request frame and as a reply frame and
// checks what both readers promise: an error or a body exactly as long
// as the header said and no longer than the cap, a known op or status.
func readFrames(t *testing.T, data []byte) {
	t.Helper()
	op, body, err := readRequestFrame(bytes.NewReader(data))
	if err == nil {
		if op == 0 || op >= opEnd || len(body) > shardMaxBodyBytes || len(body) > len(data)-requestHeaderLen {
			t.Fatalf("request frame accepted with op %d and a %d-byte body from %d bytes", op, len(body), len(data))
		}
		decodeAny(body)
	}
	status, _, body, err := readReplyFrame(bytes.NewReader(data))
	if err == nil {
		if status >= statusEnd || len(body) > shardMaxBodyBytes || len(body) > len(data)-replyHeaderLen {
			t.Fatalf("reply frame accepted with status %d and a %d-byte body from %d bytes", status, len(body), len(data))
		}
		decodeAny(body)
	}
}

// FuzzFrameRead aims arbitrary bytes at both frame readers: oversized
// lengths, truncated headers and bodies, unknown ops and statuses must
// all come back as errors — never a panic, never a body above the cap.
func FuzzFrameRead(f *testing.F) {
	bodies := sampleBodies()
	f.Add(requestFrame(opCommit, bodies[0]))
	f.Add(requestFrame(opRetiredTag, parentCommitBody(fuzzSampleCommit())))
	f.Add(replyFrame(statusOK, 0, bodies[1]))
	f.Add(replyFrame(statusOK, 0, bodies[2]))
	f.Add(replyFrame(statusUnavailable, 1, []byte("shard saturated")))
	f.Add(requestFrame(opReset, nil))
	f.Add([]byte{})
	f.Add([]byte{opCommit, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{statusOK, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		readFrames(t, data)
	})
}

// TestFrameReadRejects pins the frame readers' refusals one by one.
func TestFrameReadRejects(t *testing.T) {
	body := sampleBodies()[0]
	good := requestFrame(opCommit, body)
	if op, got, err := readRequestFrame(bytes.NewReader(good)); err != nil || op != opCommit || !bytes.Equal(got, body) {
		t.Fatalf("valid request frame: op %d, %d bytes, %v", op, len(got), err)
	}
	if st, retry, got, err := readReplyFrame(bytes.NewReader(replyFrame(statusUnavailable, 7, body))); err != nil || st != statusUnavailable || retry != 7 || !bytes.Equal(got, body) {
		t.Fatalf("valid reply frame: status %d, retry %d, %d bytes, %v", st, retry, len(got), err)
	}
	var fe *frameError
	for _, op := range []byte{0, opRetiredTag, opEnd, 0xff} {
		if _, _, err := readRequestFrame(bytes.NewReader(requestFrame(op, nil))); !errors.As(err, &fe) {
			t.Fatalf("op %d: err = %v, want a frame error", op, err)
		}
	}
	if _, _, _, err := readReplyFrame(bytes.NewReader(replyFrame(statusEnd, 0, nil))); !errors.As(err, &fe) {
		t.Fatalf("unknown status: err = %v, want a frame error", err)
	}
	// One byte past the cap is refused from the header alone: the
	// reader below holds no body at all.
	var hdr [requestHeaderLen]byte
	putRequestHeader(&hdr, opCommit, shardMaxBodyBytes+1)
	if _, _, err := readRequestFrame(bytes.NewReader(hdr[:])); !errors.As(err, &fe) {
		t.Fatalf("oversized request: err = %v, want a frame error", err)
	}
	var rhdr [replyHeaderLen]byte
	putReplyHeader(&rhdr, statusOK, 0, shardMaxBodyBytes+1)
	if _, _, _, err := readReplyFrame(bytes.NewReader(rhdr[:])); !errors.As(err, &fe) {
		t.Fatalf("oversized reply: err = %v, want a frame error", err)
	}
	// A header that claims the cap and delivers nothing must not cost
	// the cap in memory.
	putRequestHeader(&hdr, opCommit, shardMaxBodyBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := readRequestFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("empty body under a 64 MB header read cleanly")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a bodyless 64 MB header allocated %d bytes", grew)
	}
	for n := 0; n < len(good); n++ {
		_, _, err := readRequestFrame(bytes.NewReader(good[:n]))
		if err == nil || errors.As(err, &fe) {
			t.Fatalf("request truncated to %d bytes: err = %v, want an I/O error", n, err)
		}
	}
	readFrames(t, good)
}
