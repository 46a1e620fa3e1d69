package npn

import "repro/internal/logic/tt"

// Gate is one gate of a synthesized XAG structure. Fan-in references are
// encoded as: 0..n-1 for the cut inputs, n+i for the i-th synthesized gate.
type Gate struct {
	IsXor      bool
	In0, In1   int
	Neg0, Neg1 bool // fan-in polarities (always false for XOR gates)
}

// Structure is a synthesized XAG implementation of a single-output function.
type Structure struct {
	NumInputs int
	Gates     []Gate
	OutNeg    bool
	// OutVar is the signal driving the output: input index or n+gate index.
	// For gate-free structures it selects an input (or -1 for constant 0).
	OutVar int
}

// Eval evaluates the structure for one input assignment and is used to
// cross-check synthesized circuits against their specification.
func (st Structure) Eval(input uint32) bool {
	vals := make([]bool, st.NumInputs+len(st.Gates))
	for i := 0; i < st.NumInputs; i++ {
		vals[i] = input>>i&1 == 1
	}
	for gi, g := range st.Gates {
		a := vals[g.In0] != g.Neg0
		b := vals[g.In1] != g.Neg1
		if g.IsXor {
			vals[st.NumInputs+gi] = a != b
		} else {
			vals[st.NumInputs+gi] = a && b
		}
	}
	v := false
	if st.OutVar >= 0 {
		v = vals[st.OutVar]
	}
	return v != st.OutNeg
}

// TruthTable returns the function computed by the structure.
func (st Structure) TruthTable() tt.TT {
	f := tt.New(st.NumInputs)
	for i := 0; i < f.Bits(); i++ {
		f.Set(i, st.Eval(uint32(i)))
	}
	return f
}

// Cost returns the number of gates.
func (st Structure) Cost() int { return len(st.Gates) }
