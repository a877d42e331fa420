package dnn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// PNorm is Kaldi's p-norm (p=2) pooling layer ("P" rows of Table I):
// consecutive groups of Group inputs are reduced to one output,
// y_j = sqrt(Σ_{i∈group j} x_i²  + ε).
type PNorm struct {
	LayerName string
	In, Out   int
	Group     int
}

// pnormEps keeps the gradient finite when a whole group is zero.
const pnormEps = 1e-20

// NewPNorm builds a pooling layer reducing in inputs to in/group outputs.
func NewPNorm(name string, in, group int) *PNorm {
	if err := checkPNorm(in, group); err != nil {
		panic("dnn: " + err.Error())
	}
	return &PNorm{LayerName: name, In: in, Out: in / group, Group: group}
}

// checkPNorm reports why in inputs cannot pool in groups of group, or
// nil.
func checkPNorm(in, group int) error {
	if in <= 0 || group <= 0 || in%group != 0 {
		return fmt.Errorf("pnorm input %d not divisible by group %d", in, group)
	}
	return nil
}

func (p *PNorm) Name() string { return p.LayerName }
func (p *PNorm) InDim() int   { return p.In }
func (p *PNorm) OutDim() int  { return p.Out }

func (p *PNorm) Forward(dst, in []float64) {
	mat.GroupNorms(dst[:p.Out], in[:p.In], p.Group, pnormEps)
}

func (p *PNorm) Backward(dIn, dOut, in, out []float64) {
	if dIn == nil {
		return
	}
	for j := 0; j < p.Out; j++ {
		base := j * p.Group
		scale := dOut[j] / out[j]
		for k := 0; k < p.Group; k++ {
			dIn[base+k] = scale * in[base+k]
		}
	}
}

// Renorm is Kaldi's NormalizeComponent ("N" rows of Table I): it scales
// the vector so its root-mean-square is 1, y = x·sqrt(D)/||x||.
type Renorm struct {
	LayerName string
	Dim       int
}

const renormEps = 1e-20

// NewRenorm builds a renormalization layer of the given dimension.
func NewRenorm(name string, dim int) *Renorm {
	return &Renorm{LayerName: name, Dim: dim}
}

func (r *Renorm) Name() string { return r.LayerName }
func (r *Renorm) InDim() int   { return r.Dim }
func (r *Renorm) OutDim() int  { return r.Dim }

func (r *Renorm) scale(in []float64) float64 {
	var s float64
	for _, v := range in {
		s += v * v
	}
	return math.Sqrt(float64(r.Dim) / (s + renormEps))
}

// Forward keeps scale's single add chain, whose order the reference
// fixes, and runs only the elementwise c·x on the vector unit.
func (r *Renorm) Forward(dst, in []float64) {
	mat.Scale(dst[:len(in)], r.scale(in), in)
}

func (r *Renorm) Backward(dIn, dOut, in, out []float64) {
	if dIn == nil {
		return
	}
	// y = c(x)·x with c = sqrt(D)/||x||.
	// dx = c·dy − c/||x||² · x·(x·dy)
	c := r.scale(in)
	var xdy, xx float64
	for i, v := range in {
		xdy += v * dOut[i]
		xx += v * v
	}
	k := c * xdy / (xx + renormEps)
	for i, v := range in {
		dIn[i] = c*dOut[i] - k*v
	}
}
