// Command bench is the repository benchmark: four stream workloads
// against the served NER Globalizer, end-to-end metrics with
// regression bounds, and a per-layer ledger from a separate traced
// run. See README.md in this directory.
//
//	go run . -workload all -seed 71          (from bench/)
//	go run . -workload long-stream -trace 1
//	go run . -aa 5
//
// The parent process trains the model once (cached under the build
// directory) and re-executes itself once per workload, so peak RSS is
// per workload and the serving process never trains.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload name, or all")
		seed         = flag.Int64("seed", 71, "stream seed: the same seed gives the same inputs")
		seconds      = flag.Int("seconds", runSeconds, "run length, recorded in the header; the work of a run is fixed")
		trace        = flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics; 0 the end-to-end metrics")
		aa           = flag.Int("aa", 0, "A/A mode: run two back-to-back sets of this many suite runs and compare their medians against the bounds")
		smoke        = flag.Bool("smoke", false, "miniature model and streams (tier-1 smoke test)")
		outDir       = flag.String("out", "", "directory for the span dump of a traced run (default: out/ beside the build directory)")
		child        = flag.Bool("child", false, "internal: run one workload in this process and print its result as JSON")
		trainTo      = flag.String("train-to", "", "internal: train the model, save the checkpoint to this path and exit")
		ckpt         = flag.String("ckpt", "", "internal: checkpoint the child loads")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	switch {
	case *trainTo != "":
		if err := trainCheckpoint(*trainTo, *smoke); err != nil {
			fmt.Fprintf(os.Stderr, "bench: train: %v\n", err)
			os.Exit(1)
		}
	case *child:
		r := runChild(*workloadName, *seed, *seconds, *trace != 0, *smoke, *ckpt, *outDir)
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	case *aa > 0:
		os.Exit(runAA(*aa, *seed, *seconds, *smoke))
	default:
		os.Exit(runParent(*workloadName, *seed, *seconds, *trace != 0, *smoke, *outDir))
	}
}
