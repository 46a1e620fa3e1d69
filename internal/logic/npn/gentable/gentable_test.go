package main

import (
	"math/rand"
	"testing"

	"repro/internal/logic/npn"
	"repro/internal/logic/tt"
)

func TestClassesMatchCanonize(t *testing.T) {
	want := []int{1, 2, 4, 14, 222}
	for n := 0; n <= maxArity; n++ {
		cs := classes(n)
		if len(cs) != want[n] {
			t.Errorf("%d inputs: %d classes, want %d", n, len(cs), want[n])
		}
		for _, c := range cs {
			if canon, _ := npn.Canonize(c); !canon.Equal(c) {
				t.Fatalf("%v is not its own NPN canon %v", c, canon)
			}
		}
	}
	// Every 3-input function's canon is one of the enumerated classes.
	reps := map[uint64]bool{}
	for _, c := range classes(3) {
		reps[c.Word()] = true
	}
	for w := uint64(0); w < 256; w++ {
		if canon, _ := npn.Canonize(fromWord(3, w)); !reps[canon.Word()] {
			t.Fatalf("canon %v of 0x%02x not enumerated", canon, w)
		}
	}
}

func TestSynthesizeTrivial(t *testing.T) {
	for _, f := range []tt.TT{tt.Const(3, false), tt.Const(3, true), tt.Var(3, 1), tt.Var(3, 2).Not()} {
		st, minimal, ok := synthesize(f)
		if !ok {
			t.Fatalf("%v: synthesis failed", f)
		}
		if st.Cost() != 0 || !minimal {
			t.Errorf("%v: cost %d minimal %v, want 0 and proven", f, st.Cost(), minimal)
		}
		if !st.TruthTable().Equal(f) {
			t.Errorf("%v: wrong function %v", f, st.TruthTable())
		}
	}
}

func TestSynthesizeKnownOptima(t *testing.T) {
	for _, c := range []struct {
		n     int
		hex   string
		gates int
	}{
		{2, "8", 1}, {2, "6", 1}, {2, "d", 1},
		{3, "96", 2}, // XOR3: two XOR gates
		{3, "e8", 4}, // MAJ3: one XOR and three ANDs
		{4, "6996", 3},
	} {
		f := tt.MustFromHex(c.n, c.hex)
		st, minimal, ok := synthesize(f)
		if !ok {
			t.Fatalf("0x%s: synthesis failed", c.hex)
		}
		if !st.TruthTable().Equal(f) {
			t.Fatalf("0x%s: wrong function %v", c.hex, st.TruthTable())
		}
		if st.Cost() != c.gates || !minimal {
			t.Errorf("0x%s: cost %d minimal %v, want %d and proven", c.hex, st.Cost(), minimal, c.gates)
		}
	}
}

func TestSynthesizeRandom3Var(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		f := fromWord(3, uint64(rng.Intn(256)))
		st, _, ok := synthesize(f)
		if !ok {
			t.Fatalf("trial %d (%v): synthesis failed", trial, f)
		}
		if !st.TruthTable().Equal(f) {
			t.Fatalf("trial %d: structure computes %v, want %v", trial, st.TruthTable(), f)
		}
	}
}

// cheapCost bounds the 4-input classes TestCheapClassesMatchTable
// re-synthesizes: larger structures take seconds each to prove.
const cheapCost = 4

// TestCheapClassesMatchTable re-synthesizes every class of up to three
// inputs and the cheap 4-input classes, and requires the committed table
// to hold the same structure. The full comparison over all 243 classes is
// the generator's -check mode.
func TestCheapClassesMatchTable(t *testing.T) {
	checked := 0
	for _, canon := range allClasses() {
		// Canonize(canon) is the identity transform, so Lookup returns the
		// table's structure unchanged.
		want, ok := npn.Lookup(canon)
		if canon.NumVars() == maxArity && (!ok || want.Cost() > cheapCost) {
			continue
		}
		got, _, synthesized := synthesize(canon)
		if synthesized != ok {
			t.Fatalf("%v: synthesized %v, table has a structure %v", canon, synthesized, ok)
		}
		if !sameStructure(got, want) {
			t.Errorf("%v: synthesized %+v, table holds %+v", canon, got, want)
		}
		checked++
	}
	t.Logf("%d classes re-synthesized", checked)
}

// sameStructure reports whether a and b are gate-for-gate identical.
func sameStructure(a, b npn.Structure) bool {
	if a.NumInputs != b.NumInputs || a.OutNeg != b.OutNeg || a.OutVar != b.OutVar || len(a.Gates) != len(b.Gates) {
		return false
	}
	for i := range a.Gates {
		if a.Gates[i] != b.Gates[i] {
			return false
		}
	}
	return true
}
