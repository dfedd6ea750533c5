package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// resumeTail is how many cycles past its newest completed snapshot the
// durable server stands when it is closed for the resume rounds: every
// round restores that snapshot and re-executes exactly this many
// cycles, whatever the snapshot cadence and wherever the traffic
// phases happened to stop.
const resumeTail = 96

// aligner is what the snapshot-alignment epilogue needs from the
// durable server; the tests substitute a fake directory and cycle
// counter.
type aligner interface {
	// settled reports the seq of the newest completed snapshot once no
	// snapshot write is queued or in flight.
	settled() (newest uint64, err error)
	cycles() uint64
	// send runs n more serial bulk requests, one cycle each.
	send(n int) error
}

// alignTail sends serial requests until the server is exactly tail
// cycles past its newest completed snapshot, and returns how many it
// sent. Short of the tail it sends the difference (no snapshot can
// fire on the way: the cadence is longer than the tail); past it, it
// steps one cycle at a time until the next snapshot lands and resets
// the distance.
func alignTail(a aligner, tail uint64, maxRequests int) (sent int, err error) {
	for sent <= maxRequests {
		newest, err := a.settled()
		if err != nil {
			return sent, err
		}
		gap := a.cycles() - newest
		switch {
		case gap == tail:
			return sent, nil
		case gap < tail:
			n := int(tail - gap)
			if err := a.send(n); err != nil {
				return sent, err
			}
			sent += n
		default:
			if err := a.send(1); err != nil {
				return sent, err
			}
			sent++
		}
	}
	return sent, fmt.Errorf("server not %d cycles past a snapshot after %d requests", tail, sent)
}

// newestSnapshot returns the seq of the newest completed snapshot in
// dir (snap-<seq>.snap; a .tmp is a write in progress) and whether any
// .tmp is present.
func newestSnapshot(dir string) (seq uint64, found, tmp bool, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, false, false, err
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			tmp = true
			continue
		}
		if strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap") {
			n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 10, 64)
			if err == nil {
				seqs = append(seqs, n)
			}
		}
	}
	if len(seqs) == 0 {
		return 0, false, tmp, nil
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs[len(seqs)-1], true, tmp, nil
}

// resumeRounds is how many times a durable run reopens its directory;
// the restart time reported is the median round.
const resumeRounds = 7

// resumeStat is what the resume rounds measured.
type resumeStat struct {
	rounds       []setupRound // reopen-to-warm, one per round
	replayCycles int64        // cycles re-executed in every round
	replayS      float64      // median restore-and-replay seconds (the program's ner_replay_millis)
	loadS        float64      // median seconds StartDurable took to read and decode the snapshot and the WAL
}

// resume reopens the durable directory resumeRounds times the way a
// restarted cmd/serve does: checkpoint.Load → server.New →
// StartDurable → WaitWarm, and Close between rounds. Recovery
// re-executes the WAL tail and verifies it byte for byte against the
// logged annotations, so a recovery error fails the run. A reopened
// server that serves nothing appends nothing, so every round finds
// the directory as the first did. The last round's server is returned
// warm, not yet listening, and owns the directory.
func resume(dir, ckpt string, workers int) (resumeStat, *sut, error) {
	var st resumeStat
	var replays, loads []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		s, openS, err := openServer(ckpt, workers, dir)
		if err != nil {
			return st, nil, fmt.Errorf("resume round %d: %w", i, err)
		}
		st.rounds = append(st.rounds, setupRound{t0, time.Since(t0).Seconds()})
		loads = append(loads, openS)
		snap := s.Regs[0].Snapshot()
		cycles := snap.Counters["ner_replay_cycles_total"]
		if i > 0 && cycles != st.replayCycles {
			s.Close()
			return st, nil, fmt.Errorf("resume round %d replayed %d cycles, the round before %d: reopening changed the directory", i, cycles, st.replayCycles)
		}
		st.replayCycles = cycles
		replays = append(replays, float64(snap.Gauges["ner_replay_millis"])/1000)
		if i == resumeRounds-1 {
			st.replayS, st.loadS = median(replays), median(loads)
			return st, s, nil
		}
		s.closeKeepingDir()
	}
}

// median is the median reopen-to-warm time in seconds (NaN with no
// rounds).
func (st resumeStat) median() float64 {
	var took []float64
	for _, r := range st.rounds {
		took = append(took, r.took)
	}
	return median(took)
}
