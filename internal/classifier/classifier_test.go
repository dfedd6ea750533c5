package classifier

import (
	"math"
	"testing"

	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/types"
)

func TestClassifyEmptyClusterIsNone(t *testing.T) {
	c := New(3, 1)
	et, probs := c.Classify(nil)
	if et != types.None || probs[int(types.None)] != 1 {
		t.Fatalf("empty cluster: %v %v", et, probs)
	}
}

func TestClassifyReturnsValidDistribution(t *testing.T) {
	c := New(4, 2)
	_, probs := c.Classify([][]float64{{0.1, 0.2, 0.3, 0.4}})
	sum := 0.0
	for _, p := range probs {
		if p < 0 {
			t.Fatal("negative probability")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	if len(probs) != types.NumClasses {
		t.Fatalf("probs length = %d", len(probs))
	}
}

func TestPoolingGradients(t *testing.T) {
	// Finite-difference check of the attention pooling parameters
	// through a fixed linear pseudo-loss on the global embedding.
	c := New(4, 3)
	embs := [][]float64{
		{0.5, -0.2, 0.3, 0.9},
		{-0.4, 0.7, 0.1, -0.3},
		{0.2, 0.2, -0.6, 0.4},
	}
	coeff := []float64{0.3, -0.7, 0.5, 0.2}
	lossFn := func() float64 {
		g := c.poolForward(embs)
		return nn.Dot(coeff, g)
	}
	lossFn()
	c.wa.ZeroGrad()
	c.ba.ZeroGrad()
	c.poolBackward(coeff)
	numWa := nn.NumericGrad(lossFn, c.wa.W.Data, 1e-6)
	if d := nn.MaxGradDiff(c.wa.G.Data, numWa); d > 1e-7 {
		t.Fatalf("wa gradient mismatch: %g", d)
	}
	numBa := nn.NumericGrad(lossFn, c.ba.W.Data, 1e-6)
	if d := nn.MaxGradDiff(c.ba.G.Data, numBa); d > 1e-7 {
		t.Fatalf("ba gradient mismatch: %g", d)
	}
}

// syntheticRecords builds well-separated clusters per class so the
// classifier can be validated end-to-end.
func syntheticRecords(rng *nn.RNG, dim, perClass, mentionsPer int) []Record {
	classes := []types.EntityType{types.None, types.Person, types.Location, types.Organization, types.Miscellaneous}
	var out []Record
	for ci, cl := range classes {
		proto := make([]float64, dim)
		proto[ci%dim] = 1
		proto[(ci+2)%dim] = -0.5
		for k := 0; k < perClass; k++ {
			var embs [][]float64
			for m := 0; m < mentionsPer; m++ {
				v := make([]float64, dim)
				for j := range v {
					v[j] = proto[j] + 0.2*rng.NormFloat64()
				}
				embs = append(embs, v)
			}
			out = append(out, Record{Embs: embs, Label: cl})
		}
	}
	return out
}

func TestTrainLearnsSeparableClusters(t *testing.T) {
	rng := nn.NewRNG(5)
	records := syntheticRecords(rng, 8, 12, 3)
	c := New(8, 7)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 200
	cfg.LR = 0.01
	res := c.Train(records, cfg)
	if res.ValMacroF1 < 0.9 {
		t.Fatalf("validation macro-F1 = %v, want ≥ 0.9", res.ValMacroF1)
	}
	if res.EpochsRun == 0 {
		t.Fatal("no epochs ran")
	}
	// Training must not mutate the caller's slice order reference.
	if len(records) != 60 {
		t.Fatalf("records length changed: %d", len(records))
	}
}

func TestTrainHandlesVariableClusterSizes(t *testing.T) {
	rng := nn.NewRNG(6)
	records := syntheticRecords(rng, 6, 8, 1)
	// Mix in larger clusters.
	records = append(records, syntheticRecords(rng, 6, 4, 7)...)
	c := New(6, 8)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 40
	res := c.Train(records, cfg)
	if res.ValMacroF1 <= 0 {
		t.Fatalf("macro F1 = %v", res.ValMacroF1)
	}
}

func TestEvalMacroF1PerfectAndEmpty(t *testing.T) {
	c := New(4, 9)
	if got := c.EvalMacroF1(nil); got != 0 {
		t.Fatalf("empty eval = %v", got)
	}
}

// TestClassifyMatchesForward pins the scratch verdict path to the
// training composition bit for bit — poolForward, the network's
// Forward, then Softmax — on random clusters of 1 to 9 members, and
// checks that it allocates nothing once its scratch is warm (outside
// -race builds, whose sync.Pool drops items on purpose).
func TestClassifyMatchesForward(t *testing.T) {
	const dim = 6
	c := New(dim, 7)
	rng := nn.NewRNG(11)
	for _, p := range c.Params() {
		rng.NormalInit(p.W, 0.8) // biases too, so some ReLU inputs are ≤ 0
	}
	probs := make([]float64, types.NumClasses)
	for trial := 0; trial < 200; trial++ {
		embs := make([][]float64, 1+trial%9)
		for j := range embs {
			m := nn.NewMatrix(1, dim)
			rng.NormalInit(m, 1)
			embs[j] = m.Data
		}
		g := c.poolForward(embs)
		want := nn.Softmax(c.mlp.Forward(nn.FromVec(g), false).Row(0))
		et := c.ClassifyInto(probs, embs)
		if int(et) != nn.ArgMax(want) {
			t.Fatalf("trial %d: class %v, forward argmax %d", trial, et, nn.ArgMax(want))
		}
		for i, p := range probs {
			if math.Float64bits(p) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (%d members) class %d: %v, forward %v", trial, len(embs), i, p, want[i])
			}
		}
	}
	if raceEnabled {
		return
	}
	embs := [][]float64{{0.1, -0.2, 0.3, 0.4, -0.5, 0.6}, {0.3, 0.1, -0.4, 0.2, 0.9, -0.1}}
	if n := testing.AllocsPerRun(100, func() { c.ClassifyInto(probs, embs) }); n != 0 {
		t.Fatalf("ClassifyInto allocates %v times per call", n)
	}
}
