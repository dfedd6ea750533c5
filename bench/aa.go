package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// bound describes how far an end-to-end metric's median may worsen
// before a change counts as a regression, as a share of the baseline
// median. The values live in BENCHMARK.json beside this directory.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json, looked
// for in the working directory and its parent (the command runs from
// the checkout root; `go run .` from this directory).
func loadBounds() ([]bound, error) {
	var lastErr error
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			lastErr = err
			continue
		}
		var f struct {
			EndToEnd []bound `json:"end_to_end"`
		}
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, err
		}
		return f.EndToEnd, nil
	}
	return nil, lastErr
}

// aaRow compares one workload × metric across the two sets.
type aaRow struct {
	Workload, Metric   string
	A, B               [3]float64 // Q1, median, Q3 of each set
	SpreadA, SpreadB   float64    // (Q3 − Q1) / median
	Gap                float64    // how much worse B's median is than A's, as a share of A's (negative: better)
	Bound              float64
	MedianOK, SpreadOK bool
}

// compareSets applies the acceptance rule for the benchmark's own
// noise: two sets of runs of the same code must agree within the
// metric's bound (B's median no worse than A's by more than the bound)
// and each set's interquartile spread must stay within it too.
func compareSets(workload string, b bound, a, bv []float64) aaRow {
	row := aaRow{Workload: workload, Metric: b.Name, Bound: b.Bound}
	row.A[0], row.A[1], row.A[2] = quartiles(a)
	row.B[0], row.B[1], row.B[2] = quartiles(bv)
	row.SpreadA = (row.A[2] - row.A[0]) / row.A[1]
	row.SpreadB = (row.B[2] - row.B[0]) / row.B[1]
	row.Gap = (row.B[1] - row.A[1]) / row.A[1]
	if b.Better == "higher" {
		row.Gap = -row.Gap
	}
	row.MedianOK = row.Gap <= b.Bound
	row.SpreadOK = b.Name == "setup_s" || (row.SpreadA <= b.Bound && row.SpreadB <= b.Bound)
	return row
}

func (r aaRow) pass() bool { return r.MedianOK && r.SpreadOK }

func printAA(w io.Writer, rows []aaRow) {
	fmt.Fprintf(w, "%-20s %-19s %11s %11s %7s %7s %7s %6s  %s\n",
		"workload", "metric", "median A", "median B", "IQR A", "IQR B", "gap", "bound", "verdict")
	for _, r := range rows {
		verdict := "PASS"
		if !r.pass() {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "%-20s %-19s %11.5g %11.5g %6.1f%% %6.1f%% %+6.1f%% %5.0f%%  %s\n",
			r.Workload, r.Metric, r.A[1], r.B[1], 100*r.SpreadA, 100*r.SpreadB, 100*r.Gap, 100*r.Bound, verdict)
	}
}

// runAA runs two back-to-back sets of n suite runs of this binary,
// each run with another seed (the same seeds in both sets), and prints
// per workload × metric both medians, the interquartile spreads, the
// gap and the bound. It returns non-zero if any pair disagrees.
func runAA(n int, seed int64, seconds int, smoke bool) int {
	bounds, err := loadBounds()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	ckpt, err := ensureCheckpoint(smoke)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	outDir, err := defaultOutDir()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for run := 0; run < n; run++ {
			for _, w := range workloads {
				r, err := runWorkload(w.Name, seed+int64(run), seconds, false, smoke, ckpt, outDir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
				if !r.OutputsOK {
					printResult(os.Stderr, r)
					return 1
				}
				if values[set][w.Name] == nil {
					values[set][w.Name] = map[string][]float64{}
				}
				for k, m := range r.EndToEnd {
					values[set][w.Name][k] = append(values[set][w.Name][k], m.Value)
				}
				fmt.Fprintf(os.Stderr, "bench: set %c run %d/%d %s:", 'A'+set, run+1, n, w.Name)
				for _, b := range bounds {
					fmt.Fprintf(os.Stderr, " %s=%.5g", b.Name, r.EndToEnd[b.Name].Value)
					if raw, ok := r.Extra["raw."+b.Name]; ok {
						fmt.Fprintf(os.Stderr, " (raw %.5g)", raw.Value)
					}
				}
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	var rows []aaRow
	for _, w := range workloads {
		for _, b := range bounds {
			rows = append(rows, compareSets(w.Name, b, values[0][w.Name][b.Name], values[1][w.Name][b.Name]))
		}
	}
	printAA(os.Stdout, rows)
	for _, r := range rows {
		if !r.pass() {
			return 1
		}
	}
	return 0
}
