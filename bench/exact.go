package main

import (
	"bytes"
	"net/http"
)

// exactTweets is the size of the exact pass.
const exactTweets = 600

// exactPass is the untimed exact check of a topology: a fixed stream
// fed serially as bulk requests (deterministic order and cycle
// composition) must leave /entities and /candidates byte-identical to
// a direct core run of the same batches.
func exactPass(topology, ckpt string, seed int64, n int, client *http.Client, r *result) error {
	tweets := genStream(n, true, 2, seed)
	ops := annotateOps(tweets, 0, len(tweets), requestTweets)

	s, err := buildSUT(topology, ckpt, serveWorkers)
	if err != nil {
		return err
	}
	defer s.Close()
	st := newStream(tweets)
	results, _ := runOps(client, s.URL, ops, 1, false, 0)
	failed, first := st.verifyOps(ops, results)
	r.Phases = append(r.Phases, phaseStat{Name: "exact", Attempted: len(ops), Failed: failed, Tweets: len(tweets)})
	r.check("exact: every request answered 200 with the right sentences", failed == 0, "%d failed; %s", failed, first)
	entities, err := get(client, s.URL+"/entities")
	if err != nil {
		return err
	}
	candidates, err := get(client, s.URL+"/candidates")
	if err != nil {
		return err
	}

	ref, err := newComposed(topoSingle, ckpt, serveWorkers, newTracer())
	if err != nil {
		return err
	}
	defer ref.Close()
	for i, o := range ops {
		if _, err := ref.annotate(i, opTexts(tweets, o)); err != nil {
			return err
		}
	}
	wantEntities, err := ref.entities()
	if err != nil {
		return err
	}
	wantCandidates, err := ref.candidates()
	if err != nil {
		return err
	}
	r.check("exact: /entities byte-identical to a direct core run", bytes.Equal(entities, wantEntities), "%d vs %d bytes", len(entities), len(wantEntities))
	r.check("exact: /candidates byte-identical to a direct core run", bytes.Equal(candidates, wantCandidates), "%d vs %d bytes", len(candidates), len(wantCandidates))
	return nil
}
