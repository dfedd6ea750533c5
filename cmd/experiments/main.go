// Command experiments reproduces the paper's tables and figures. Each
// experiment trains the NER Globalizer and the five baselines once and
// prints text renderings of the requested tables.
//
// Usage:
//
//	experiments -scale small                # everything, miniature
//	experiments -scale full -table 4        # Table IV only, full scale
//	experiments -scale full -figure 3       # Figure 3 only
//	experiments -scale full -erroranalysis  # Section VI-C breakdown
package main

import (
	"flag"
	"fmt"
	"os"

	"nerglobalizer/internal/experiments"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/parallel"
)

func main() {
	scaleName := flag.String("scale", "small", "experiment scale: small or full")
	table := flag.Int("table", 0, "reproduce only this table (1, 2, 3, 4, 5)")
	figure := flag.Int("figure", 0, "reproduce only this figure (3, 4)")
	errAnalysis := flag.Bool("erroranalysis", false, "reproduce only the error analysis")
	discussion := flag.Bool("discussion", false, "reproduce only the VI-D EMD discussion")
	confusion := flag.Bool("confusion", false, "print only the pooled confusion matrix")
	summary := flag.Bool("summary", false, "print only the macro-F1 gain summary")
	workers := flag.Int("workers", 0, "worker goroutines for pipeline hot paths (0 = GOMAXPROCS, 1 = serial); tables are identical at every setting")
	precName := flag.String("precision", "f64", "inference precision tier: f64 (exact), f32 (packed float32 kernels), i8 (dynamic int8 GEMM); training always runs f64")
	flag.Parse()

	parallel.SetDefaultWorkers(*workers)
	nn.SetMatMulWorkers(*workers)

	prec, err := nn.ParsePrecision(*precName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	var scale experiments.Scale
	switch *scaleName {
	case "small":
		scale = experiments.SmallScale()
	case "full":
		scale = experiments.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scaleName)
		os.Exit(1)
	}
	scale.Core.Workers = *workers
	scale.Core.InferPrecision = prec.String()
	s := experiments.NewSuite(scale)
	fmt.Printf("training suite at %s scale...\n\n", scale.Name)
	s.TrainAll()

	specific := *table != 0 || *figure != 0 || *errAnalysis || *summary || *discussion || *confusion
	show := func(cond bool, f func() experiments.Table) {
		if !specific || cond {
			fmt.Println(f())
		}
	}
	show(*table == 1, s.Table1)
	show(*table == 2, s.Table2)
	show(*table == 3, s.Table3)
	show(*table == 4, s.Table4)
	show(*table == 5, s.Table5)
	show(*figure == 3, s.Figure3)
	show(*figure == 4, s.Figure4)
	show(*errAnalysis, s.ErrorAnalysis)
	show(*discussion, s.DiscussionEMD)
	show(*confusion, s.ConfusionAnalysis)
	show(*summary, s.MacroSummary)
}
