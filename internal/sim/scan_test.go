package sim_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/defects"
	"repro/internal/gatelib"
	"repro/internal/sidb"
	"repro/internal/sim"
)

// The reference oracle below is the two-pass enumeration that the shared
// scan kernel replaced: a gray-code walk whose flip delta is
// ±(μ_ + LocalPotential), run once for the ground state and once more for
// the lowest configuration with a different interest key. The kernel must
// reproduce it bit for bit.

func oracleFlipDelta(e *sim.Engine, charged []bool, i int) float64 {
	delta := e.Params.MuMinus + e.LocalPotential(charged, i)
	if charged[i] {
		return -delta
	}
	return delta
}

// oracleWalk visits every configuration in gray-code order, calling visit
// after each with the current configuration and its energy.
func oracleWalk(e *sim.Engine, visit func(cur []bool, curE float64)) {
	free := e.FreeIndices()
	cur := make([]bool, e.NumDots())
	for i := range cur {
		cur[i] = e.IsFixed(i)
	}
	curE := e.Energy(cur)
	visit(cur, curE)
	total := uint64(1) << len(free)
	prevGray := uint64(0)
	for k := uint64(1); k < total; k++ {
		gray := k ^ (k >> 1)
		diff := gray ^ prevGray
		prevGray = gray
		bit := 0
		for diff>>1 != 0 {
			diff >>= 1
			bit++
		}
		i := free[bit]
		curE += oracleFlipDelta(e, cur, i)
		cur[i] = !cur[i]
		visit(cur, curE)
	}
}

func oracleExhaustive(e *sim.Engine) ([]bool, float64) {
	var best []bool
	bestE := 0.0
	oracleWalk(e, func(cur []bool, curE float64) {
		if best == nil || curE < bestE-1e-15 {
			best = append(best[:0], cur...)
			bestE = curE
		}
	})
	return best, bestE
}

func oracleGap(e *sim.Engine, interest []int) float64 {
	ground, groundE := oracleExhaustive(e)
	key := func(c []bool) uint64 {
		var k uint64
		for bit, i := range interest {
			if c[i] {
				k |= 1 << bit
			}
		}
		return k
	}
	groundKey := key(ground)
	bestOther := math.Inf(1)
	oracleWalk(e, func(cur []bool, curE float64) {
		if key(cur) != groundKey && curE < bestOther {
			bestOther = curE
		}
	})
	return bestOther - groundE
}

// checkAgainstOracle compares ExGS and the degeneracy gap with the oracle
// bit for bit.
func checkAgainstOracle(t *testing.T, name string, e *sim.Engine, interest []int) {
	t.Helper()
	wantGS, wantE := oracleExhaustive(e)
	gs, en, err := e.ExhaustiveChecked()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if math.Float64bits(en) != math.Float64bits(wantE) {
		t.Fatalf("%s: energy %v (%#x), oracle %v (%#x)", name, en, math.Float64bits(en), wantE, math.Float64bits(wantE))
	}
	for i := range wantGS {
		if gs[i] != wantGS[i] {
			t.Fatalf("%s: ground state differs from the oracle at dot %d", name, i)
		}
	}
	gap, err := e.DegeneracyGap(interest, sim.SolveOptions{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := oracleGap(e, interest); math.Float64bits(gap) != math.Float64bits(want) {
		t.Fatalf("%s: gap %v (%#x), oracle %v (%#x)", name, gap, math.Float64bits(gap), want, math.Float64bits(want))
	}
}

// TestScanMatchesOracleOnLibrary: every input pattern of every library
// variant with at most 18 free dots.
func TestScanMatchesOracleOnLibrary(t *testing.T) {
	lib := gatelib.NewLibrary()
	keys := lib.Variants()
	sort.Strings(keys)
	checked := 0
	for _, key := range keys {
		d, _, _ := lib.Design(key)
		for p := 0; p < 1<<len(d.Ins); p++ {
			l := d.PatternLayout(p)
			e := sim.NewEngine(l, sim.ParamsFig5)
			if len(e.FreeIndices()) > 18 {
				continue
			}
			idx := l.SiteIndex()
			var interest []int
			for _, out := range d.Outs {
				b := out.BDL()
				interest = append(interest, idx[b.Bit0], idx[b.Bit1])
			}
			checkAgainstOracle(t, key, e, interest)
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no library pattern has at most 18 free dots")
	}
	t.Logf("%d library patterns match the oracle", checked)
}

// TestScanMatchesOracleOnRandomEngines: seeded random engines with free
// dots, perturbers, charged defects of both signs, and interest lists that
// name fixed dots and repeat indices.
func TestScanMatchesOracleOnRandomEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		l := &sidb.Layout{}
		seen := map[[2]int]bool{}
		site := func() (int, int) {
			for {
				x, y := rng.Intn(24), rng.Intn(24)
				if !seen[[2]int{x, y}] {
					seen[[2]int{x, y}] = true
					return x, y
				}
			}
		}
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			role := sidb.RoleNormal
			if rng.Intn(4) == 0 {
				role = sidb.RolePerturber
			}
			x, y := site()
			l.AddCell(x, y, role)
		}
		surf := defects.New()
		for k := rng.Intn(3); k > 0; k-- {
			x, y := site()
			surf.AddCell(x, y, []defects.Type{defects.DB, defects.Arsenic}[rng.Intn(2)])
		}
		e := sim.NewEngineOn(l, sim.ParamsFig5, surf)
		interest := make([]int, rng.Intn(5))
		for b := range interest {
			interest[b] = rng.Intn(e.NumDots())
		}
		checkAgainstOracle(t, "random", e, interest)
	}
}

// TestScanRejectsCoincidentSites: two dots on one site make V infinite;
// the scan must refuse the engine rather than enumerate NaN energies.
func TestScanRejectsCoincidentSites(t *testing.T) {
	l := &sidb.Layout{}
	l.AddCell(0, 0, sidb.RoleNormal)
	l.AddCell(0, 0, sidb.RoleNormal)
	l.AddCell(10, 0, sidb.RoleNormal)
	e := sim.NewEngine(l, sim.ParamsFig5)
	if _, _, err := e.ExhaustiveChecked(); err == nil {
		t.Fatal("ExhaustiveChecked accepted coincident sites")
	}
	if _, err := e.DegeneracyGap([]int{0}, sim.SolveOptions{}); err == nil {
		t.Fatal("DegeneracyGap accepted coincident sites")
	}
	exgs, err := sim.Lookup("exgs")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exgs.Solve(e, sim.SolveOptions{}); err == nil {
		t.Fatal("exgs solved an engine with coincident sites")
	}
}

// TestScanCanceled: a cancelled context stops the scan with its error.
func TestScanCanceled(t *testing.T) {
	l := &sidb.Layout{}
	for i := 0; i < 20; i++ {
		l.AddCell(7*i, 0, sidb.RoleNormal)
	}
	e := sim.NewEngine(l, sim.ParamsFig5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.ExhaustiveContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExhaustiveContext error = %v, want context.Canceled", err)
	}
	if _, err := e.DegeneracyGap([]int{0}, sim.SolveOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("DegeneracyGap error = %v, want context.Canceled", err)
	}
}
