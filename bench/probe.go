package main

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// The machine probe. This box's speed for one and the same program
// moves by 10-30% over minutes (neighbours on the shared host), which
// is more than the regressions the benchmark has to show. A small
// piece of reference work owned by the benchmark — ordinary Go: a map
// of slices keyed by strings, appends, a sort — runs beside every
// timed phase, once every probeEvery, and the three wall-clock metrics
// are reported at the speed of a machine on which that work takes
// probeNominal: a time is divided by (reference time observed during
// the phase / probeNominal), a rate multiplied by it. The reference
// work never changes with the program, so a change to the program
// moves the reported number exactly as it moves the raw one. See
// README.md, "Noise", for what was tried and how far this goes.
const (
	probeEvery   = 40 * time.Millisecond
	probeNominal = 250 * time.Microsecond
	// probeMinSamples is how many samples a window needs before its
	// factor is trusted; with fewer (a miniature run) the factor is 1.
	probeMinSamples = 5
)

var probeKeys = func() []string {
	k := make([]string, 600)
	for i := range k {
		k[i] = "surface-" + strconv.Itoa(i*7919%1000)
	}
	return k
}()

var probeSink int

// refWork is the reference work: about a quarter of a millisecond.
func refWork() {
	m := make(map[string][]int, 64)
	for r := 0; r < 4; r++ {
		for i, k := range probeKeys {
			m[k] = append(m[k], i*r)
		}
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	probeSink += len(keys[0])
}

// probeSample is one timing of the reference work.
type probeSample struct {
	at   time.Duration // offset from the probe's start
	took time.Duration
}

// machineProbe times the reference work in the background until it is
// stopped.
type machineProbe struct {
	t0      time.Time
	mu      sync.Mutex
	samples []probeSample
	quit    chan struct{}
	done    chan struct{}
	once    sync.Once
}

func startProbe() *machineProbe {
	p := &machineProbe{t0: time.Now(), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
			t := time.Now()
			refWork()
			took := time.Since(t)
			p.mu.Lock()
			p.samples = append(p.samples, probeSample{at: t.Sub(p.t0), took: took})
			p.mu.Unlock()
		}
	}()
	return p
}

// mark is the current offset from the probe's start.
func (p *machineProbe) mark() time.Duration { return time.Since(p.t0) }

// stop ends the sampling and waits for the sampler; it may be called
// more than once.
func (p *machineProbe) stop() {
	p.once.Do(func() { close(p.quit) })
	<-p.done
}

// factor is how slow the machine was between two marks, against the
// nominal machine: the interquartile mean of the window's reference
// timings (a sample that shared its core with a garbage-collection
// worker, or was descheduled, or ran while the process was still
// growing its heap, is not the machine's speed) over probeNominal. n
// is the number of samples.
func (p *machineProbe) factor(from, to time.Duration) (f float64, n int) {
	p.mu.Lock()
	var took []float64
	for _, s := range p.samples {
		if s.at >= from && s.at < to {
			took = append(took, float64(s.took))
		}
	}
	p.mu.Unlock()
	return machineFactor(took), len(took)
}

func machineFactor(took []float64) float64 {
	if len(took) < probeMinSamples {
		return 1
	}
	s := append([]float64(nil), took...)
	sort.Float64s(s)
	k := len(s) / 4
	sum := 0.0
	for _, v := range s[k : len(s)-k] {
		sum += v
	}
	return sum / float64(len(s)-2*k) / float64(probeNominal)
}
