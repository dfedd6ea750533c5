package fleet

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"nerglobalizer/internal/binenc"
	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/localner"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/server"
	"nerglobalizer/internal/types"
)

// fuzzSampleCommit builds a small but structurally complete
// CommitRequest: nested lists, a matrix, non-ASCII strings, edge-case
// floats. The fuzz targets below use its encoding as the seed corpus
// so mutation starts from a valid body, not random noise.
func fuzzSampleCommit() *CommitRequest {
	emb := nn.NewMatrix(2, 3)
	emb.Data = []float64{math.Inf(1), math.Copysign(0, -1), 5e-324, 1.5, -2.25, 0}
	return &CommitRequest{
		Seq: 7,
		Sentences: []durable.CycleSentence{
			{TweetID: 1, SentID: 0, Tokens: []string{"Caffè", "in", "Milano"}},
			{TweetID: 2, SentID: 1, Tokens: nil},
		},
		Tagged: []*localner.Result{
			{
				Tokens:     []string{"Caffè", "in", "Milano"},
				Entities:   []types.Entity{{Span: types.Span{Start: 2, End: 3}, Type: types.Location}},
				Embeddings: emb,
			},
			{},
		},
	}
}

// validSampleCommit is the sample with one embedding row per token, as
// an engine 3 wide would have tagged it (the sample itself, whose bytes
// are pinned, ships two rows for three tokens).
func validSampleCommit() *CommitRequest {
	q := fuzzSampleCommit()
	q.Tagged[0].Embeddings = nn.NewMatrix(3, 3)
	return q
}

// malformedCommits returns commits that decode cleanly and that the
// engine must still never see, each named by what is wrong with it:
// every way a frame can disagree with itself about what
// core.applyTagged and the Phrase Embedder index. They are variations of
// a well-formed commit — valid returns a fresh one on every call — at
// its tag result at, which must carry an entity and have as many tokens
// as its sentence.
func malformedCommits(valid func() *CommitRequest, at int) map[string]*CommitRequest {
	vary := func(edit func(q *CommitRequest, t *localner.Result)) *CommitRequest {
		q := valid()
		edit(q, q.Tagged[at])
		return q
	}
	probe := valid().Tagged[at]
	n, dim := len(probe.Tokens), probe.Embeddings.Cols
	return map[string]*CommitRequest{
		"no tag results":        vary(func(q *CommitRequest, _ *localner.Result) { q.Tagged = nil }),
		"fewer tags than sents": vary(func(q *CommitRequest, _ *localner.Result) { q.Tagged = q.Tagged[:len(q.Tagged)-1] }),
		"more tags than sents":  vary(func(q *CommitRequest, _ *localner.Result) { q.Tagged = append(q.Tagged, &localner.Result{}) }),
		"same sentence twice": vary(func(q *CommitRequest, t *localner.Result) {
			q.Sentences = append(append([]durable.CycleSentence(nil), q.Sentences...), q.Sentences[at])
			q.Tagged = append(q.Tagged, t)
		}),
		"more tokens than sent": vary(func(_ *CommitRequest, t *localner.Result) {
			t.Tokens = append(append([]string(nil), t.Tokens...), "x")
			t.Embeddings = nn.NewMatrix(n+1, dim)
		}),
		"entity starts below 0":  vary(func(_ *CommitRequest, t *localner.Result) { t.Entities[0].Start = -1 }),
		"entity start after end": vary(func(_ *CommitRequest, t *localner.Result) { t.Entities[0].Span = types.Span{Start: n, End: n - 1} }),
		"entity ends past tag":   vary(func(_ *CommitRequest, t *localner.Result) { t.Entities[0].End = n + 1 }),
		"tokens, no embeddings":  vary(func(_ *CommitRequest, t *localner.Result) { t.Embeddings = nil }),
		"embedding rows short":   vary(func(_ *CommitRequest, t *localner.Result) { t.Embeddings = nn.NewMatrix(n-1, dim) }),
		"embedding too narrow":   vary(func(_ *CommitRequest, t *localner.Result) { t.Embeddings = nn.NewMatrix(n, dim-1) }),
	}
}

// withModeSlot re-writes the mode slot a commit body ends in.
func withModeSlot(body []byte, mode core.Mode) []byte {
	w := &binenc.Writer{Buf: append([]byte(nil), body[:len(body)-8]...)}
	w.I64(int(mode))
	return w.Buf
}

// sampleBodies returns one valid body of every kind the frame path
// carries, tag and commit bodies first.
func sampleBodies(tb testing.TB) [][]byte {
	creq := fuzzSampleCommit()
	commit, err := creq.encode()
	if err != nil {
		tb.Fatal(err)
	}
	tagReq, err := (&TagRequest{Seq: 3, Sentences: creq.Sentences}).encode()
	if err != nil {
		tb.Fatal(err)
	}
	tagResp, err := (&TagResponse{Seq: 3, Results: creq.Tagged, BusySeconds: 1.5}).encode()
	if err != nil {
		tb.Fatal(err)
	}
	owned := []durable.SentenceAnnotation{
		{TweetID: 1, SentID: 0, Entities: []durable.Entity{{Start: 2, End: 3, Type: types.Location, Surface: "milano"}}},
	}
	commitResp := (&CommitResponse{Seq: 7, Entities: owned, StreamSize: 2, Candidates: 1, BusySeconds: 0.25}).encode()
	cands := encodeCandidates([]server.Candidate{{Surface: "milano", ClusterID: 1, Type: types.Location, Mentions: 3, Confidence: 0.5}})
	return [][]byte{tagReq, commit, tagResp, commitResp, cands, encodeEntities(owned)}
}

// decodeAny drives every body decoder over the same payload. The
// contract under fuzzing is narrow and absolute: arbitrary bytes may
// fail to decode, but they must never panic the decoder — a malformed
// peer must not be able to crash a shard or the router.
func decodeAny(payload []byte) {
	if q := new(CommitRequest); q.decode(payload) == nil {
		_ = q.validate(3)
	}
	_ = new(CommitResponse).decode(payload)
	_ = new(TagRequest).decode(payload)
	_ = new(TagResponse).decode(payload)
	_, _ = decodeCandidates(payload)
	_, _ = decodeEntities(payload)
}

func FuzzWireCodecDecode(f *testing.F) {
	for _, body := range sampleBodies(f) {
		f.Add(body)
	}
	for _, q := range malformedCommits(validSampleCommit, 0) {
		body, err := q.encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add(withModeSlot(sampleBodies(f)[1], core.ModeLocalEmbeddings))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

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
	raw, err := fuzzSampleCommit().encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), raw...)
			mut[i] ^= flip
			decodeAny(mut)
		}
		decodeAny(raw[:i])
	}
}

// TestCommitValidate pins the validator on the seeds the fuzz target
// starts from: each malformed commit survives the codec and is refused
// by name, the commit they vary is accepted, and a foreign mode slot
// does not decode.
func TestCommitValidate(t *testing.T) {
	roundTrip := func(q *CommitRequest) *CommitRequest {
		t.Helper()
		body, err := q.encode()
		if err != nil {
			t.Fatal(err)
		}
		out := new(CommitRequest)
		if err := out.decode(body); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for name, q := range malformedCommits(validSampleCommit, 0) {
		if err := roundTrip(q).validate(3); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := roundTrip(validSampleCommit()).validate(3); err != nil {
		t.Errorf("well-formed commit refused: %v", err)
	}
	if err := new(CommitRequest).decode(withModeSlot(sampleBodies(t)[1], core.ModeLocalEmbeddings)); err == nil {
		t.Error("a commit with an ablation mode in its mode slot decoded cleanly")
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
	bodies := sampleBodies(f)
	f.Add(requestFrame(opTag, bodies[0]))
	f.Add(requestFrame(opCommit, bodies[1]))
	f.Add(replyFrame(statusOK, 0, bodies[2]))
	f.Add(replyFrame(statusOK, 0, bodies[3]))
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
	body := sampleBodies(t)[1]
	good := requestFrame(opCommit, body)
	if op, got, err := readRequestFrame(bytes.NewReader(good)); err != nil || op != opCommit || !bytes.Equal(got, body) {
		t.Fatalf("valid request frame: op %d, %d bytes, %v", op, len(got), err)
	}
	if st, retry, got, err := readReplyFrame(bytes.NewReader(replyFrame(statusUnavailable, 7, body))); err != nil || st != statusUnavailable || retry != 7 || !bytes.Equal(got, body) {
		t.Fatalf("valid reply frame: status %d, retry %d, %d bytes, %v", st, retry, len(got), err)
	}
	var fe *frameError
	for _, op := range []byte{0, opEnd, 0xff} {
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
