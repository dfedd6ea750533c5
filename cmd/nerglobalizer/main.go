// Command nerglobalizer trains the NER Globalizer pipeline and runs it
// on one of the synthetic evaluation datasets — or on your own
// CoNLL-formatted corpus — printing per-type precision/recall/F1 for
// both the Local NER stage and the full pipeline.
//
// Usage:
//
//	nerglobalizer -dataset D2 -scale small
//	nerglobalizer -dataset WNUT17 -scale full -mode mention
//	nerglobalizer -input tweets.conll -output pred.conll
package main

import (
	"flag"
	"fmt"
	"os"

	"nerglobalizer/internal/conll"
	"nerglobalizer/internal/core"
	"nerglobalizer/internal/corpus"
	"nerglobalizer/internal/experiments"
	"nerglobalizer/internal/metrics"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/parallel"
	"nerglobalizer/internal/types"
)

func main() {
	dataset := flag.String("dataset", "D1", "dataset to process (small scale: D1, D2, WNUT17; full scale: D1..D4, WNUT17, BTC)")
	scaleName := flag.String("scale", "small", "experiment scale: small or full")
	modeName := flag.String("mode", "full", "pipeline stage: local, mention, localemb, full")
	input := flag.String("input", "", "process this CoNLL file instead of a synthetic dataset")
	output := flag.String("output", "", "write predictions in CoNLL format to this file")
	workers := flag.Int("workers", 0, "worker goroutines for pipeline hot paths (0 = GOMAXPROCS, 1 = serial); output is identical at every setting")
	precName := flag.String("precision", "f64", "inference precision tier: f64 (exact), f32 (packed float32 kernels), i8 (dynamic int8 GEMM); training always runs f64")
	flag.Parse()

	parallel.SetDefaultWorkers(*workers)
	nn.SetMatMulWorkers(*workers)

	prec, err := nn.ParsePrecision(*precName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nerglobalizer: %v\n", err)
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
		fmt.Fprintf(os.Stderr, "nerglobalizer: unknown scale %q\n", *scaleName)
		os.Exit(1)
	}
	scale.Core.Workers = *workers
	scale.Core.InferPrecision = prec.String()
	mode, ok := map[string]core.Mode{
		"local":    core.ModeLocalOnly,
		"mention":  core.ModeMentionExtraction,
		"localemb": core.ModeLocalEmbeddings,
		"full":     core.ModeFull,
	}[*modeName]
	if !ok {
		fmt.Fprintf(os.Stderr, "nerglobalizer: unknown mode %q\n", *modeName)
		os.Exit(1)
	}

	suite := experiments.NewSuite(scale)
	fmt.Println("training pipeline (pre-train, fine-tune, global components)...")
	suite.TrainAll()

	var target *corpus.Dataset
	if *input != "" {
		fd, err := os.Open(*input)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nerglobalizer: %v\n", err)
			os.Exit(1)
		}
		sents, err := conll.Read(fd, 0)
		fd.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "nerglobalizer: %v\n", err)
			os.Exit(1)
		}
		target = &corpus.Dataset{Name: *input, Sentences: sents, Streaming: true}
	} else {
		for _, d := range suite.Datasets() {
			if d.Name == *dataset {
				target = d
			}
		}
		if target == nil {
			fmt.Fprintf(os.Stderr, "nerglobalizer: dataset %q not in scale %q\n", *dataset, *scaleName)
			os.Exit(1)
		}
	}

	res := suite.RunFresh(target, mode)
	if *output != "" {
		fd, err := os.Create(*output)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nerglobalizer: %v\n", err)
			os.Exit(1)
		}
		if err := conll.WritePredictions(fd, target.Sentences, res.Final); err != nil {
			fmt.Fprintf(os.Stderr, "nerglobalizer: %v\n", err)
			os.Exit(1)
		}
		fd.Close()
		fmt.Printf("wrote predictions to %s\n", *output)
	}
	gold := target.GoldByKey()
	local := metrics.Evaluate(gold, res.Local)
	final := metrics.Evaluate(gold, res.Final)

	fmt.Printf("\ndataset %s: %d tweets, %d unique entities, %d mentions\n",
		target.Name, target.Size(), target.UniqueEntities(), target.MentionCount())
	fmt.Printf("mode %s, local time %.2fs, global time %.2fs, %d candidate clusters\n\n",
		mode, res.LocalTime.Seconds(), res.GlobalTime.Seconds(), res.Candidates)
	fmt.Printf("%-6s %23s %23s\n", "", "Local NER", mode.String())
	fmt.Printf("%-6s %7s %7s %7s %7s %7s %7s\n", "Type", "P", "R", "F1", "P", "R", "F1")
	for _, et := range types.EntityTypes {
		l, g := local.TypeF1(et), final.TypeF1(et)
		fmt.Printf("%-6s %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f\n",
			et, l.Precision, l.Recall, l.F1, g.Precision, g.Recall, g.F1)
	}
	fmt.Printf("%-6s %7s %7s %7.2f %7s %7s %7.2f\n", "Macro", "", "", local.MacroF1(), "", "", final.MacroF1())
}
