package main

import "sort"

// runChild runs one workload in this process. Errors that prevent a
// run (no checkpoint, a topology that will not start) become a failed
// check, so the parent always gets a row to print.
func runChild(name string, seed int64, seconds int, trace, smoke bool, ckpt, outDir string) *result {
	r := &result{}
	w, err := findWorkload(name)
	if err == nil {
		if smoke {
			w = w.smoke()
		}
		r.Header = newHeader(w, seed, seconds, trace, smoke)
		if trace {
			err = runTraced(w, seed, ckpt, outDir, r)
		} else {
			err = runEndToEnd(w, seed, ckpt, r)
		}
		if err == nil {
			n := exactTweets
			if smoke {
				n = smokeExactTweets
			}
			client := newLoadClient()
			err = exactPass(w.Topology, ckpt, seed, n, client, r)
			client.CloseIdleConnections()
		}
	}
	r.check("run completed", err == nil, "%v", err)
	if err == nil && !smoke {
		// The driver reads every metric of the run's kind on every
		// workload; a miniature run has too few samples for some.
		got, want := r.EndToEnd, endToEndUnits
		if trace {
			got, want = r.PerLayer, perLayerUnits
		}
		var missing []string
		for name := range want {
			if _, ok := got[name]; !ok {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
		r.check("every metric reported", len(missing) == 0, "missing %v", missing)
	}
	r.finish()
	return r
}
