package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"nerglobalizer/internal/checkpoint"
	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/localner"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/server"
	"nerglobalizer/internal/tokenizer"
	"nerglobalizer/internal/types"
)

// Span names of the composed replay: one per layer call. Self times
// are reported under these names (see README.md, per-layer metrics).
const (
	spanRequest   = "server.request" // root: ID assignment, batch assembly
	spanTokenize  = "tokenizer"
	spanTag       = "localner" // core.TagBatch
	spanGlobal    = "core"     // core.ProcessTagged
	spanEncode    = "durable.encode"
	spanCapture   = "durable.capture"
	spanAppend    = "durable.append"
	spanFsyncWait = "durable.fsync_wait"
	spanSnapWrite = "durable.snapshot_write"
	spanRender    = "server.render"
	spanFleetTag  = "fleet.tag"    // tag fan-out (children: localner per shard)
	spanFleetCmt  = "fleet.commit" // commit fan-out (children: core per shard)
	spanFleetMrg  = "fleet.merge"
)

// composed is the (B) side of the traced run: the topology rebuilt by
// composing the layers' public functions in the order the serving code
// calls them, with a span around each call and no HTTP in between. It
// must produce the same bytes as the real topology.
type composed struct {
	tr      *tracer
	engines []*core.Globalizer // one, or one per fleet shard
	nextID  int
	sents   map[types.SentenceKey]*types.Sentence
	order   []types.SentenceKey

	dl          *durable.Log // durable topology only
	prov        *durable.Provenance
	dir         string
	seq         uint64
	pendingSnap *durable.Snapshot // captured this cycle, written after the ack
}

func newComposed(topology, ckpt string, workers int, tr *tracer) (*composed, error) {
	c := &composed{tr: tr, sents: make(map[types.SentenceKey]*types.Sentence)}
	n := 1
	if topology == topoFleet {
		n = fleetShards
	}
	for i := 0; i < n; i++ {
		g, err := checkpoint.LoadFile(ckpt)
		if err != nil {
			return nil, err
		}
		if err := configureEngine(g, workers); err != nil {
			return nil, err
		}
		if n > 1 {
			if err := g.SetShardOwnership(i, n); err != nil {
				return nil, err
			}
		} else {
			g.Reset()
		}
		g.SetObserver(obs.NewRegistry()) // attached as on the real topology, so the hooks cost the same
		c.engines = append(c.engines, g)
	}
	if topology == topoDurable {
		dir, err := os.MkdirTemp("", "nerbench-composed-")
		if err != nil {
			return nil, err
		}
		c.dir = dir
		dl, _, err := durable.Open(dir, durableOptions, obs.NewRegistry())
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		c.dl, c.prov = dl, durable.NewProvenance()
	}
	return c, nil
}

func (c *composed) Close() {
	if c.dl != nil {
		c.dl.Close()
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

// reset mirrors POST /reset.
func (c *composed) reset(request int) {
	c.tr.in(spanRequest, -1, request, func(int) {
		for _, g := range c.engines {
			g.Reset()
		}
		c.sents = make(map[types.SentenceKey]*types.Sentence)
		c.order = nil
		c.nextID = 0
	})
}

// annotate mirrors POST /annotate for one request served alone in its
// cycle (the traced replay is serial) and returns the reply body.
func (c *composed) annotate(request int, texts []string) ([]byte, error) {
	body, err := c.serve(request, texts)
	if err == nil && c.pendingSnap != nil {
		// The real server hands the captured snapshot to a background
		// writer after the ack. Here it is written between requests
		// under a background span, which rootWall leaves out of the
		// blocking path.
		snap := c.pendingSnap
		c.pendingSnap = nil
		c.tr.in(spanSnapWrite, -1, backgroundRequest, func(int) { _, err = c.dl.SaveSnapshot(snap, snap.Seq) })
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
	}
	return body, err
}

func (c *composed) serve(request int, texts []string) ([]byte, error) {
	tr := c.tr
	root := tr.begin(spanRequest, -1, request)
	defer tr.end(root)

	var tweets [][][]string
	tr.in(spanTokenize, root, request, func(int) {
		for _, raw := range texts {
			tweets = append(tweets, tokenizer.SplitSentences(tokenizer.Tokenize(raw)))
		}
	})
	var batch []*types.Sentence
	for _, sentTokens := range tweets {
		for si, toks := range sentTokens {
			sent := &types.Sentence{TweetID: c.nextID, SentID: si, Tokens: toks}
			batch = append(batch, sent)
			c.sents[sent.Key()] = sent
			c.order = append(c.order, sent.Key())
		}
		c.nextID++
	}

	var final map[types.SentenceKey][]types.Entity
	if len(c.engines) == 1 {
		g := c.engines[0]
		var tagged []*localner.Result
		tr.in(spanTag, root, request, func(int) { tagged = g.TagBatch(batch) })
		tr.in(spanGlobal, root, request, func(int) { final = g.ProcessTagged(batch, tagged, core.ModeFull) })
	} else {
		final = c.fleetCycle(root, request, batch)
	}
	c.seq++

	var (
		rec  *durable.CycleRecord
		snap *durable.Snapshot
	)
	if c.dl != nil {
		tr.in(spanEncode, root, request, func(int) {
			rec = &durable.CycleRecord{
				Seq:         c.seq,
				Mode:        int(core.ModeFull),
				Sentences:   durable.ToCycleSentences(batch),
				Annotations: durable.RenderAnnotations(batch, final),
			}
			c.prov.AppendCycle(c.seq, rec.Annotations)
		})
		if c.dl.ShouldSnapshot(c.seq) {
			tr.in(spanCapture, root, request, func(int) {
				snap = &durable.Snapshot{
					Kind: durable.KindSingle, Seq: c.seq, NextID: c.nextID,
					Warm: c.engines[0].CaptureWarmState(), Provenance: c.prov.Cycles(),
				}
			})
		}
	}

	var body []byte
	var err error
	tr.in(spanRender, root, request, func(int) {
		body, err = c.render(batch, final)
	})
	if err != nil {
		return nil, err
	}

	if rec != nil {
		var wait func() error
		tr.in(spanAppend, root, request, func(int) { wait, err = c.dl.AppendAsync(rec) })
		if err != nil {
			return nil, fmt.Errorf("wal append: %w", err)
		}
		tr.in(spanFsyncWait, root, request, func(int) { err = wait() })
		if err != nil {
			return nil, fmt.Errorf("wal fsync: %w", err)
		}
		if snap != nil {
			c.pendingSnap = snap
		}
	}
	return body, nil
}

// fleetCycle mirrors the router's cycle: shard i tags the i-th
// contiguous slice of the batch, every shard commits the whole tagged
// batch, and the owned entities merge back into surface order. The two
// fan-outs run in parallel, as the router's do.
func (c *composed) fleetCycle(root, request int, batch []*types.Sentence) map[types.SentenceKey][]types.Entity {
	tr, k := c.tr, len(c.engines)
	tagged := make([]*localner.Result, len(batch))
	tr.in(spanFleetTag, root, request, func(parent int) {
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			lo, hi := i*len(batch)/k, (i+1)*len(batch)/k
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func(i, lo, hi int) {
				defer wg.Done()
				tr.in(spanTag, parent, request, func(int) {
					copy(tagged[lo:hi], c.engines[i].TagBatch(batch[lo:hi]))
				})
			}(i, lo, hi)
		}
		wg.Wait()
	})
	tr.in(spanFleetCmt, root, request, func(parent int) {
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tr.in(spanGlobal, parent, request, func(int) {
					c.engines[i].ProcessTagged(batch, tagged, core.ModeFull)
				})
			}(i)
		}
		wg.Wait()
	})
	final := make(map[types.SentenceKey][]types.Entity, len(batch))
	tr.in(spanFleetMrg, root, request, func(int) {
		for _, s := range batch {
			for _, m := range c.finalMentions(s.Key()) {
				final[s.Key()] = append(final[s.Key()], types.Entity{Span: m.Span, Type: m.Type})
			}
		}
	})
	return final
}

// finalMentions are a sentence's typed final mentions across the
// engines, in the engine's sorted-surface-major order: each engine's
// list is grouped by ascending canonical surface and a surface lives
// on exactly one engine, so a k-way group merge reproduces the
// single-process order.
func (c *composed) finalMentions(key types.SentenceKey) []types.Mention {
	parts := make([][]types.Mention, len(c.engines))
	for i, g := range c.engines {
		rec := g.TweetBase().Get(key)
		if rec == nil {
			continue
		}
		for _, m := range rec.FinalMentions {
			if m.Type != types.None {
				parts[i] = append(parts[i], m)
			}
		}
	}
	if len(parts) == 1 {
		return parts[0]
	}
	idx := make([]int, len(parts))
	var out []types.Mention
	for {
		best := -1
		for s, p := range parts {
			if idx[s] < len(p) && (best == -1 || p[idx[s]].Surface < parts[best][idx[best]].Surface) {
				best = s
			}
		}
		if best == -1 {
			return out
		}
		p := parts[best]
		surf := p[idx[best]].Surface
		for idx[best] < len(p) && p[idx[best]].Surface == surf {
			out = append(out, p[idx[best]])
			idx[best]++
		}
	}
}

// render builds the /annotate reply exactly as the serving code does.
func (c *composed) render(batch []*types.Sentence, final map[types.SentenceKey][]types.Entity) ([]byte, error) {
	resp := struct {
		Sentences  []server.SentenceJSON `json:"sentences"`
		StreamSize int                   `json:"stream_size"`
		Candidates int                   `json:"candidates"`
	}{StreamSize: c.engines[0].TweetBase().Len()}
	for _, g := range c.engines {
		resp.Candidates += g.CandidateBase().Len()
	}
	for _, sent := range batch {
		sj := server.SentenceJSON{TweetID: sent.TweetID, SentID: sent.SentID, Tokens: sent.Tokens, Entities: []server.EntityJSON{}}
		for _, e := range final[sent.Key()] {
			sj.Entities = append(sj.Entities, server.EntityJSON{Start: e.Start, End: e.End, Type: e.Type.String(), Surface: sent.SurfaceAt(e.Span)})
		}
		resp.Sentences = append(resp.Sentences, sj)
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil // json.Encoder, which the server uses, ends with a newline
}

// entities renders the whole stream's current annotations as GET
// /entities does.
func (c *composed) entities() ([]byte, error) {
	out := make([]server.SentenceEntitiesJSON, 0, len(c.order))
	for _, key := range c.order {
		sj := server.SentenceEntitiesJSON{TweetID: key.TweetID, SentID: key.SentID, Entities: []server.EntityJSON{}}
		sent := c.sents[key]
		for _, m := range c.finalMentions(key) {
			sj.Entities = append(sj.Entities, server.EntityJSON{Start: m.Span.Start, End: m.Span.End, Type: m.Type.String(), Surface: sent.SurfaceAt(m.Span)})
		}
		out = append(out, sj)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// candidates renders GET /candidates for a single-engine topology (the
// exact pass compares it with the real server's reply).
func (c *composed) candidates() ([]byte, error) {
	out := []server.CandidateJSON{}
	for _, cand := range c.engines[0].CandidateBase().All() {
		out = append(out, server.CandidateJSON{
			Surface: cand.Surface, ClusterID: cand.ClusterID, Type: cand.Type.String(),
			Mentions: cand.MentionCount(), Confidence: cand.Confidence,
		})
	}
	b, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
