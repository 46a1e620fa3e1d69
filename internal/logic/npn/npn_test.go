package npn

import (
	"math/rand"
	"testing"

	"repro/internal/logic/tt"
)

func randTT(rng *rand.Rand, n int) tt.TT {
	f := tt.New(n)
	for i := 0; i < f.Bits(); i++ {
		f.Set(i, rng.Intn(2) == 1)
	}
	return f
}

func TestTransformInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(3)
		f := randTT(rng, n)
		tr := Transform{
			Perm:    rng.Perm(n),
			FlipIn:  uint32(rng.Intn(1 << n)),
			FlipOut: rng.Intn(2) == 1,
		}
		g := tr.Apply(f)
		back := tr.Inverse().Apply(g)
		if !back.Equal(f) {
			t.Fatalf("inverse failed: f=%v tr=%v g=%v back=%v", f, tr, g, back)
		}
	}
}

func TestCanonizeInvariantUnderTransforms(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(3)
		f := randTT(rng, n)
		c1, _ := Canonize(f)
		// Apply a random NPN transform; the canon must not change.
		tr := Transform{
			Perm:    rng.Perm(n),
			FlipIn:  uint32(rng.Intn(1 << n)),
			FlipOut: rng.Intn(2) == 1,
		}
		c2, _ := Canonize(tr.Apply(f))
		if !c1.Equal(c2) {
			t.Fatalf("canon not invariant: %v vs %v", c1, c2)
		}
	}
}

func TestCanonizeTransformReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(3)
		f := randTT(rng, n)
		canon, tr := Canonize(f)
		if got := tr.Apply(canon); !got.Equal(f) {
			t.Fatalf("tr.Apply(canon) = %v, want %v", got, f)
		}
	}
}

// classCount enumerates the number of distinct NPN classes among all
// functions of n inputs by canonizing each one.
func classCount(n int) int {
	seen := make(map[uint64]bool)
	for v := 0; v < 1<<(1<<n); v++ {
		c, _ := Canonize(fromWord(n, uint64(v)))
		seen[c.Word()] = true
	}
	return len(seen)
}

// fromWord returns the n-input truth table whose bit i is bit i of w.
func fromWord(n int, w uint64) tt.TT {
	f := tt.New(n)
	for i := 0; i < f.Bits(); i++ {
		f.Set(i, w>>i&1 == 1)
	}
	return f
}

func TestClassCounts(t *testing.T) {
	// Known NPN class counts: n=0: 1, n=1: 2 (const0, x), n=2: 4, n=3: 14,
	// n=4: 222. The table must hold exactly one entry per class.
	want := []int{1, 2, 4, 14, 222}
	perArity := make([]int, len(want))
	for k := range table {
		perArity[k.n]++
	}
	for n, w := range want {
		if perArity[n] != w {
			t.Errorf("table holds %d classes of %d inputs, want %d", perArity[n], n, w)
		}
		if n <= 3 {
			if got := classCount(n); got != w {
				t.Errorf("NPN classes of %d vars = %d, want %d", n, got, w)
			}
		}
	}
	if len(table) != 243 {
		t.Errorf("table has %d classes, want 243", len(table))
	}
}

func TestTableEntries(t *testing.T) {
	var unsynthesizable, minimal, unproven int
	for k, c := range table {
		canon := fromWord(k.n, k.word)
		if got, _ := Canonize(canon); !got.Equal(canon) {
			t.Errorf("key %v is not its class canon %v", canon, got)
		}
		if c.unsynthesizable {
			unsynthesizable++
			if c.minimal || c.st.Gates != nil {
				t.Errorf("%v: unsynthesizable marker carries a structure", canon)
			}
			continue
		}
		if c.minimal {
			minimal++
		} else {
			unproven++
		}
		if c.st.NumInputs != k.n {
			t.Errorf("%v: structure has %d inputs", canon, c.st.NumInputs)
		}
		if !c.st.TruthTable().Equal(canon) {
			t.Errorf("%v: structure computes %v", canon, c.st.TruthTable())
		}
	}
	// The synthesizer's budgets (7 gates, 30000 conflicts per SAT call)
	// leave some 4-input classes without a structure and others without a
	// minimality proof. Pin both so any change to the gap is deliberate.
	if unsynthesizable != 24 {
		t.Errorf("unsynthesizable classes = %d, want 24", unsynthesizable)
	}
	if minimal != wantMinimal || unproven != wantUnproven {
		t.Errorf("proven minimal / unproven = %d / %d, want %d / %d", minimal, unproven, wantMinimal, wantUnproven)
	}
}

// Minimality provenance of the synthesized classes (see TestTableEntries).
const (
	wantMinimal  = 150
	wantUnproven = 69
)

// checkLookup asserts that Lookup(f) either computes f or reports that f's
// class carries the unsynthesizable marker.
func checkLookup(t *testing.T, f tt.TT) {
	t.Helper()
	st, ok := Lookup(f)
	canon, _ := Canonize(f)
	if !ok {
		if c := table[classKey{canon.NumVars(), canon.Word()}]; !c.unsynthesizable {
			t.Fatalf("lookup of %v failed, but class %v is not marked unsynthesizable", f, canon)
		}
		return
	}
	if !st.TruthTable().Equal(f) {
		t.Fatalf("lookup of %v returned a structure computing %v", f, st.TruthTable())
	}
}

func TestLookupExhaustive3Var(t *testing.T) {
	for n := 0; n <= 3; n++ {
		for w := 0; w < 1<<(1<<n); w++ {
			checkLookup(t, fromWord(n, uint64(w)))
		}
	}
}

func TestLookupSampled4Var(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 2000; trial++ {
		checkLookup(t, fromWord(4, uint64(rng.Intn(1<<16))))
	}
}

func TestLookupDoesNotAliasTable(t *testing.T) {
	f := tt.MustFromHex(3, "e8")
	st, ok := Lookup(f)
	if !ok || len(st.Gates) == 0 {
		t.Fatal("MAJ3 lookup failed")
	}
	for i := range st.Gates {
		st.Gates[i] = Gate{IsXor: true}
	}
	st.OutNeg = !st.OutNeg
	if again, _ := Lookup(f); !again.TruthTable().Equal(f) {
		t.Fatal("modifying a looked-up structure changed the table")
	}
}

// The TestSynthesize* tests check structures the offline synthesizer
// recorded in the table against known optima.

func TestSynthesizeTrivial(t *testing.T) {
	for _, f := range []tt.TT{tt.Const(3, false), tt.Const(3, true), tt.Var(3, 1), tt.Var(3, 2).Not()} {
		st, ok := Lookup(f)
		if !ok {
			t.Fatalf("%v: lookup failed", f)
		}
		if st.Cost() != 0 {
			t.Errorf("%v: cost %d, want 0", f, st.Cost())
		}
		if !st.TruthTable().Equal(f) {
			t.Errorf("%v: wrong function %v", f, st.TruthTable())
		}
	}
}

// lookupCost returns the table cost of f, failing the test when f's class
// has no structure or the structure computes something else.
func lookupCost(t *testing.T, n int, hex string) int {
	t.Helper()
	f := tt.MustFromHex(n, hex)
	st, ok := Lookup(f)
	if !ok {
		t.Fatalf("0x%s: lookup failed", hex)
	}
	if !st.TruthTable().Equal(f) {
		t.Fatalf("0x%s: wrong function %v", hex, st.TruthTable())
	}
	return st.Cost()
}

func TestSynthesizeTwoInputGates(t *testing.T) {
	for _, hex := range []string{"8", "6", "e", "7", "1", "9", "2", "4", "b", "d"} {
		if c := lookupCost(t, 2, hex); c != 1 {
			t.Errorf("0x%s: cost %d, want 1", hex, c)
		}
	}
}

func TestSynthesizeMajority(t *testing.T) {
	// Known XAG optimum for MAJ3 is 4 gates, e.g.
	// (a&b) | (c & (a^b)) = !(!(a&b) & !(c&(a^b))): XOR + 3 ANDs.
	if c := lookupCost(t, 3, "e8"); c != 4 {
		t.Errorf("MAJ3 cost %d, want 4", c)
	}
}

func TestSynthesizeXor3AndFullAdder(t *testing.T) {
	if c := lookupCost(t, 3, "96"); c != 2 {
		t.Errorf("XOR3 cost %d, want 2 (two XOR gates)", c)
	}
}

func TestSynthesizeRandom3Var(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		f := randTT(rng, 3)
		st, ok := Lookup(f)
		if !ok {
			t.Fatalf("trial %d (%v): lookup failed", trial, f)
		}
		if !st.TruthTable().Equal(f) {
			t.Fatalf("trial %d: structure computes %v, want %v", trial, st.TruthTable(), f)
		}
	}
}

func TestSynthesizeSelected4Var(t *testing.T) {
	for _, hex := range []string{"6996", "8000", "fffe", "7888", "0660", "cafe"} {
		lookupCost(t, 4, hex)
	}
}

func TestXor4IsThreeGates(t *testing.T) {
	if c := lookupCost(t, 4, "6996"); c != 3 { // parity of 4 variables
		t.Errorf("XOR4 cost %d, want 3", c)
	}
}

func TestDatabaseLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(2)
		f := randTT(rng, n)
		st, ok := Lookup(f)
		if !ok {
			t.Fatalf("lookup failed for %v", f)
		}
		if !st.TruthTable().Equal(f) {
			t.Fatalf("database returned wrong structure for %v: computes %v", f, st.TruthTable())
		}
	}
}

func TestDatabaseCacheSharing(t *testing.T) {
	// AND and its NPN variants are one class: they share one table entry
	// and so one gate count.
	variants := []string{"8", "4", "2", "1", "e", "7", "b", "d"}
	canon, _ := Canonize(tt.MustFromHex(2, variants[0]))
	for _, hex := range variants {
		f := tt.MustFromHex(2, hex)
		if c, _ := Canonize(f); !c.Equal(canon) {
			t.Errorf("variant 0x%s has canon %v, want %v", hex, c, canon)
		}
		st, ok := Lookup(f)
		if !ok || !st.TruthTable().Equal(f) || st.Cost() != 1 {
			t.Fatalf("variant 0x%s failed", hex)
		}
	}
}

func TestDatabaseTransformCorrectness4Var(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Pick one random 4-var class and exercise several of its variants.
	base := randTT(rng, 4)
	canon, _ := Canonize(base)
	marked := table[classKey{4, canon.Word()}].unsynthesizable
	for trial := 0; trial < 8; trial++ {
		tr := Transform{
			Perm:    rng.Perm(4),
			FlipIn:  uint32(rng.Intn(16)),
			FlipOut: rng.Intn(2) == 1,
		}
		f := tr.Apply(base)
		st, ok := Lookup(f)
		if ok == marked {
			t.Fatalf("lookup of %v: ok=%v, but class %v unsynthesizable=%v", f, ok, canon, marked)
		}
		if ok && !st.TruthTable().Equal(f) {
			t.Fatalf("transform application broken: got %v, want %v", st.TruthTable(), f)
		}
	}
}

func TestStructureEvalMatchesGates(t *testing.T) {
	// Hand-built structure: f = (x0 & !x1) ^ x2.
	st := Structure{
		NumInputs: 3,
		Gates: []Gate{
			{IsXor: false, In0: 0, In1: 1, Neg1: true},
			{IsXor: true, In0: 2, In1: 3},
		},
		OutVar: 4,
	}
	for in := uint32(0); in < 8; in++ {
		a, b, c := in&1 == 1, in>>1&1 == 1, in>>2&1 == 1
		want := (a && !b) != c
		if st.Eval(in) != want {
			t.Errorf("Eval(%03b) = %v, want %v", in, st.Eval(in), want)
		}
	}
}
