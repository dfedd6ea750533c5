package nn

import (
	"math"
	"testing"
)

// quadratic sets up a param at (5, -3) whose loss is ½‖w‖²; gradient is
// w itself, so the optimum is the origin.
func quadraticParam() *Param {
	p := NewParam("q", 1, 2)
	p.W.Data[0], p.W.Data[1] = 5, -3
	return p
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := quadraticParam()
	opt := NewAdam(0.05)
	opt.Register(p)
	for i := 0; i < 2000; i++ {
		copy(p.G.Data, p.W.Data)
		opt.Step()
	}
	if n := L2Norm(p.W.Data); n > 1e-3 {
		t.Fatalf("Adam did not converge, |w| = %v", n)
	}
}

func TestAdamStepClearsGradients(t *testing.T) {
	p := quadraticParam()
	opt := NewAdam(0.01)
	opt.Register(p)
	p.G.Fill(1)
	opt.Step()
	for _, g := range p.G.Data {
		if g != 0 {
			t.Fatal("Step must zero gradients")
		}
	}
}

func TestAdamRegisterIdempotent(t *testing.T) {
	p := quadraticParam()
	opt := NewAdam(0.01)
	opt.Register(p)
	opt.Register(p)
	if len(opt.params) != 1 {
		t.Fatalf("duplicate registration: %d params", len(opt.params))
	}
}

func TestAdamFirstStepMagnitude(t *testing.T) {
	// With bias correction, the very first Adam step has magnitude ~lr
	// regardless of gradient scale.
	p := NewParam("p", 1, 1)
	opt := NewAdam(0.1)
	opt.Register(p)
	p.G.Data[0] = 1e6
	opt.Step()
	if d := math.Abs(p.W.Data[0]); math.Abs(d-0.1) > 1e-3 {
		t.Fatalf("first step magnitude = %v, want ~0.1", d)
	}
}

func TestTrainTinyNetworkXOR(t *testing.T) {
	// End-to-end sanity: a 2-layer MLP learns XOR with Adam.
	rng := NewRNG(42)
	net := NewSequential(
		NewDense("h", 2, 8, rng),
		NewGELU(),
		NewDense("o", 8, 2, rng),
	)
	opt := NewAdam(0.05)
	opt.Register(net.Params()...)
	x := FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y := []int{0, 1, 1, 0}
	var loss float64
	for epoch := 0; epoch < 500; epoch++ {
		logits := net.Forward(x, true)
		var dl *Matrix
		loss, dl = SoftmaxCrossEntropy(logits, y)
		net.Backward(dl)
		opt.Step()
	}
	if loss > 0.05 {
		t.Fatalf("XOR training failed to converge, loss = %v", loss)
	}
	logits := net.Forward(x, false)
	for i, want := range y {
		if ArgMax(logits.Row(i)) != want {
			t.Fatalf("XOR prediction wrong for row %d", i)
		}
	}
}
