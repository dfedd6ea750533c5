package main

import (
	"encoding/json"
	"os"
	"time"

	"nerglobalizer/internal/checkpoint"
	"nerglobalizer/internal/core"
	"nerglobalizer/internal/corpus"
	"nerglobalizer/internal/experiments"
)

// trainInfo is the sidecar written beside a cached checkpoint: what
// training cost when it ran, reported as core.train_s.
type trainInfo struct {
	TrainS float64 `json:"train_s"`
}

// trainCheckpoint trains experiments.SmallScale() the way cmd/serve
// does when it is given no -model, and saves the checkpoint. smoke
// cuts the epochs and corpora so training takes a few seconds; the
// model is then poor, which the smoke test does not mind.
func trainCheckpoint(path string, smoke bool) error {
	t0 := time.Now()
	scale := experiments.SmallScale()
	scale.Core.Workers = serveWorkers
	scale.Core.InferBatchTokens = serveInferBatch
	scale.Core.InferPrecision = "f64"
	train, d5 := scale.TrainSet().Sentences, scale.D5().Sentences
	if smoke {
		scale.PretrainN = 100
		scale.Core.PretrainEpochs = 1
		scale.Core.FineTuneEpochs = 3
		scale.Core.MaxTriplets = 500
		scale.Core.PhraseTrain.Epochs = 3
		scale.Core.ClassifierTrain.Epochs = 10
		train, d5 = train[:300], d5[:300]
	}
	g := core.New(scale.Core)
	g.PretrainEncoder(corpus.PretrainTweets(scale.PretrainN, 21))
	g.FineTuneLocal(train)
	g.TrainGlobal(d5)
	if err := checkpoint.SaveFile(path, g); err != nil {
		return err
	}
	info, err := json.Marshal(trainInfo{TrainS: time.Since(t0).Seconds()})
	if err != nil {
		return err
	}
	return os.WriteFile(path+".json", info, 0o644)
}
