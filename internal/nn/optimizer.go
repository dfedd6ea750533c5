package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba, 2014), the optimizer
// the paper uses for both the Phrase Embedder (lr 0.001) and the Entity
// Classifier (lr 0.0015). WeightDecay applies decoupled L2 decay as the
// paper lists weight decay among its regularizers.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	params []*Param
	m      map[*Param]*Matrix
	v      map[*Param]*Matrix
	t      int
}

// NewAdam returns an Adam optimizer with standard betas (0.9, 0.999).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:    lr,
		Beta1: 0.9,
		Beta2: 0.999,
		Eps:   1e-8,
		m:     make(map[*Param]*Matrix),
		v:     make(map[*Param]*Matrix),
	}
}

// Register adds parameters to the optimizer and allocates their moment
// buffers.
func (a *Adam) Register(params ...*Param) {
	for _, p := range params {
		if _, ok := a.m[p]; ok {
			continue
		}
		a.params = append(a.params, p)
		a.m[p] = NewMatrix(p.W.Rows, p.W.Cols)
		a.v[p] = NewMatrix(p.W.Rows, p.W.Cols)
	}
}

// Step applies one bias-corrected Adam update and clears gradients.
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range a.params {
		m, v := a.m[p], a.v[p]
		for i := range p.W.Data {
			g := p.G.Data[i]
			m.Data[i] = a.Beta1*m.Data[i] + (1-a.Beta1)*g
			v.Data[i] = a.Beta2*v.Data[i] + (1-a.Beta2)*g*g
			mhat := m.Data[i] / bc1
			vhat := v.Data[i] / bc2
			upd := mhat / (math.Sqrt(vhat) + a.Eps)
			if a.WeightDecay != 0 {
				upd += a.WeightDecay * p.W.Data[i]
			}
			p.W.Data[i] -= a.LR * upd
		}
		p.Bump()
		p.ZeroGrad()
	}
}
