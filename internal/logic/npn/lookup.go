package npn

import "repro/internal/logic/tt"

//go:generate go run ./gentable -o table_gen.go

// classKey identifies an NPN class: arity plus canonical truth-table word.
type classKey struct {
	n    int
	word uint64
}

// class is one entry of the generated table: the structure the SAT exact
// synthesizer of ./gentable found for the class representative.
type class struct {
	st Structure
	// minimal reports that every smaller gate count was refuted outright,
	// none cut off by the synthesizer's conflict budget, so st is provably
	// optimal rather than merely the smallest structure found.
	minimal bool
	// unsynthesizable marks a class the synthesizer gave up on within its
	// gate and conflict budgets; rewriting leaves such cuts alone.
	unsynthesizable bool
}

// table maps every NPN class of 0 to 4 inputs to its entry. The generated
// table_gen.go fills it at init; declaring it here keeps the package, and
// so the generator that imports it, buildable without that file.
var table map[classKey]class

// Lookup returns an optimal structure for f (not its NPN canon — the
// returned structure computes f itself, with the class transform already
// applied), or ok=false if f's class is marked unsynthesizable. It
// supports up to 4 inputs. The returned structure is a fresh copy that the
// caller may modify.
func Lookup(f tt.TT) (Structure, bool) {
	canon, tr := Canonize(f)
	c, ok := table[classKey{n: canon.NumVars(), word: canon.Word()}]
	if !ok || c.unsynthesizable {
		return Structure{}, false
	}
	return applyTransform(c.st, tr), true
}

// applyTransform rewrites a structure for the canon into a structure for
// tr.Apply(canon): inputs are remapped through the permutation with
// polarities pushed onto the fan-in edges, and the output polarity is
// adjusted.
func applyTransform(st Structure, tr Transform) Structure {
	out := Structure{
		NumInputs: st.NumInputs,
		OutNeg:    st.OutNeg != tr.FlipOut,
		OutVar:    st.OutVar,
		Gates:     make([]Gate, len(st.Gates)),
	}
	n := st.NumInputs
	// The transformed function g(x) = canon(sigma(x) xor flip) xor out,
	// where canon's input v is read from g's input position... tr.Apply
	// defines: new variable i reads old variable Perm[i] after flipping old
	// variable v when FlipIn bit v is set. The structure's references to
	// canon input v therefore become references to new input j with
	// Perm[j] == v, complemented when FlipIn bit v is set.
	invPos := make([]int, n)
	for j, p := range tr.Perm {
		invPos[p] = j
	}
	mapIn := func(ref int, neg bool) (int, bool) {
		if ref >= n {
			return ref, neg // gate reference: unchanged
		}
		flipped := tr.FlipIn>>ref&1 == 1
		return invPos[ref], neg != flipped
	}
	for i, g := range st.Gates {
		// XOR gates may acquire fan-in complements here; Eval and the XAG
		// builder normalize them, so no special handling is needed.
		ng := Gate{IsXor: g.IsXor}
		ng.In0, ng.Neg0 = mapIn(g.In0, g.Neg0)
		ng.In1, ng.Neg1 = mapIn(g.In1, g.Neg1)
		out.Gates[i] = ng
	}
	// Output var mapping when it is an input reference.
	if st.OutVar >= 0 && st.OutVar < n {
		v, neg := mapIn(st.OutVar, out.OutNeg)
		out.OutVar, out.OutNeg = v, neg
	}
	return out
}
