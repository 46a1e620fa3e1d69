// Package designer searches for dot-accurate SiDB gate implementations:
// given a tile template with fixed I/O structures and a target truth table,
// it places additional SiDBs in the logic design canvas and validates
// candidates with ground-state simulation.
//
// The Bestagon paper designed its tiles "with the assistance of a
// reinforcement learning agent [28] which is allowed to place SiDBs within
// the logic design canvas and toggle through input combinations to check
// for logic correctness", followed by manual review. This package
// substitutes the RL agent with a deterministic seeded stochastic search
// (random restarts + local moves) over canvas dot placements — the same
// search space, the same validation loop (see DESIGN.md §4).
package designer

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/sidb"
	"repro/internal/sim"
)

// Template describes the fixed part of a gate tile under design.
type Template struct {
	// Fixed dots (wire stubs, output perturbers) present for every input.
	Fixed []sidb.Dot
	// InputPerturbers returns the perturber dots encoding the given input
	// pattern (bit i = input i; near placement for 1, far for 0).
	InputPerturbers func(pattern uint32) []lattice.Site
	// NumInputs is the number of logic inputs.
	NumInputs int
	// Outputs are the output BDL pairs (port order).
	Outputs []sidb.BDLPair
	// Target gives the expected output bits for each input pattern.
	Target func(pattern uint32) uint32
	// Params are the simulation parameters for validation.
	Params sim.Params
	// Solver names the sim ground-state solver used for evaluation
	// ("" = automatic dispatch; see sim.SolverNames). UseAnneal overrides
	// it.
	Solver string
	// UseAnneal forces simulated-annealing ground-state search during
	// evaluation even when exhaustive search would be possible; used to
	// keep large full-tile refinements fast (final designs are re-verified
	// exhaustively).
	UseAnneal bool
}

// Candidate is a scored canvas placement.
type Candidate struct {
	Canvas []lattice.Site
	// Correct counts input patterns with valid, correct outputs.
	Correct int
	// Patterns is the total number of input patterns.
	Patterns int
	// MinGap is the smallest output degeneracy gap across patterns (eV);
	// only meaningful when all patterns are correct.
	MinGap float64
}

// Works reports whether the candidate implements the target exactly.
func (c Candidate) Works() bool { return c.Correct == c.Patterns }

// Options tunes the search.
type Options struct {
	Seed       int64
	Restarts   int
	Iterations int // local-move iterations per restart
	MinDots    int // canvas dots to place (lower bound)
	MaxDots    int
	// Initial seeds the first restart with a known starting placement
	// (e.g. a solution from a reduced model being refined).
	Initial []lattice.Site
	// Tracer receives search telemetry (restart/evaluation counts, best
	// candidate quality); nil disables it at no cost.
	Tracer *obs.Tracer
}

// DefaultOptions returns settings that explore a Bestagon canvas in a few
// seconds per gate.
func DefaultOptions() Options {
	return Options{Seed: 1, Restarts: 12, Iterations: 400, MinDots: 0, MaxDots: 4}
}

// Evaluate scores a canvas placement against the template.
func Evaluate(t *Template, canvas []lattice.Site) Candidate {
	patterns := 1 << t.NumInputs
	cand := Candidate{Canvas: canvas, Patterns: patterns, MinGap: 1e9}
	for p := 0; p < patterns; p++ {
		l := &sidb.Layout{}
		for _, d := range t.Fixed {
			l.Dots = append(l.Dots, d)
		}
		for _, s := range t.InputPerturbers(uint32(p)) {
			l.Add(s, sidb.RolePerturber)
		}
		for _, s := range canvas {
			l.Add(s, sidb.RoleNormal)
		}
		idx := l.SiteIndex()
		eng := sim.NewEngine(l, t.Params)
		var gs []bool
		if t.UseAnneal {
			gs, _ = eng.Anneal(sim.DefaultAnnealConfig())
		} else if solver, err := sim.Lookup(t.Solver); err == nil {
			if sol, serr := solver.Solve(eng, sim.SolveOptions{}); serr == nil {
				gs = sol.Charges
			} else {
				gs, _ = eng.Anneal(sim.DefaultAnnealConfig())
			}
		} else {
			gs, _ = eng.GroundState()
		}
		want := t.Target(uint32(p))
		ok := true
		for port, pair := range t.Outputs {
			state, err := pair.State(idx, gs)
			if err != nil || state != (want>>port&1 == 1) {
				ok = false
				break
			}
		}
		if !ok {
			cand.MinGap = 0
			continue
		}
		cand.Correct++
		// Gap assessment on exhaustive-capable instances only.
		free := 0
		for _, d := range l.Dots {
			if d.Role != sidb.RolePerturber {
				free++
			}
		}
		if free <= sim.ExactLimit && !t.UseAnneal {
			var interest []int
			for _, pair := range t.Outputs {
				interest = append(interest, idx[pair.Bit0], idx[pair.Bit1])
			}
			if gap, err := eng.DegeneracyGap(interest, sim.SolveOptions{}); err == nil && gap < cand.MinGap {
				cand.MinGap = gap
			}
		}
	}
	if cand.Correct < patterns {
		cand.MinGap = 0
	}
	return cand
}

// better orders candidates: more correct patterns first, then larger gap.
func better(a, b Candidate) bool {
	if a.Correct != b.Correct {
		return a.Correct > b.Correct
	}
	return a.MinGap > b.MinGap
}

// Search looks for a canvas placement implementing the template's target.
// Candidates are drawn from the given candidate sites; the search is
// deterministic for fixed options.
func Search(t *Template, candidates []lattice.Site, opts Options) (Candidate, error) {
	tr := opts.Tracer
	sp := tr.Start("designer/search")
	defer sp.End()
	if len(candidates) == 0 {
		return Evaluate(t, nil), nil
	}
	evals := int64(0)
	restartsUsed := 0
	best := Candidate{MinGap: -1}
	for restart := 0; restart < opts.Restarts; restart++ {
		restartsUsed = restart + 1
		rng := rand.New(rand.NewSource(opts.Seed + int64(restart)*104729))
		k := opts.MinDots
		if opts.MaxDots > opts.MinDots {
			k += rng.Intn(opts.MaxDots - opts.MinDots + 1)
		}
		var cur []lattice.Site
		if restart == 0 && len(opts.Initial) > 0 {
			cur = append([]lattice.Site(nil), opts.Initial...)
			sortSites(cur)
		} else {
			cur = randomSubset(rng, candidates, k)
		}
		curScore := Evaluate(t, cur)
		evals++
		if best.MinGap < 0 || better(curScore, best) {
			best = curScore
		}
		for it := 0; it < opts.Iterations; it++ {
			next := mutate(rng, cur, candidates, opts)
			nextScore := Evaluate(t, next)
			evals++
			if better(nextScore, curScore) || (!better(curScore, nextScore) && rng.Intn(4) == 0) {
				cur, curScore = next, nextScore
				if better(curScore, best) {
					best = curScore
				}
			}
			if best.Works() && best.MinGap > 0.01 && it > 40 {
				break
			}
		}
		if best.Works() && best.MinGap > 0.01 {
			break
		}
	}
	sp.SetAttr("restarts", restartsUsed)
	sp.SetAttr("evaluations", evals)
	sp.SetAttr("correct", best.Correct)
	sp.SetAttr("patterns", best.Patterns)
	sp.SetAttr("min_gap", best.MinGap)
	tr.Counter("designer/evaluations").Add(evals)
	tr.Counter("designer/restarts").Add(int64(restartsUsed))
	if !best.Works() {
		return best, fmt.Errorf("designer: no working placement found (best %d/%d patterns)", best.Correct, best.Patterns)
	}
	return best, nil
}

// randomSubset picks k distinct sites.
func randomSubset(rng *rand.Rand, cands []lattice.Site, k int) []lattice.Site {
	perm := rng.Perm(len(cands))
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]lattice.Site, k)
	for i := 0; i < k; i++ {
		out[i] = cands[perm[i]]
	}
	sortSites(out)
	return out
}

// mutate applies one local move: add, remove, or replace a dot.
func mutate(rng *rand.Rand, cur []lattice.Site, cands []lattice.Site, opts Options) []lattice.Site {
	out := append([]lattice.Site(nil), cur...)
	in := map[lattice.Site]bool{}
	for _, s := range out {
		in[s] = true
	}
	pick := func() (lattice.Site, bool) {
		for tries := 0; tries < 20; tries++ {
			s := cands[rng.Intn(len(cands))]
			if !in[s] {
				return s, true
			}
		}
		return lattice.Site{}, false
	}
	switch op := rng.Intn(3); {
	case op == 0 && len(out) < opts.MaxDots:
		if s, ok := pick(); ok {
			out = append(out, s)
		}
	case op == 1 && len(out) > opts.MinDots && len(out) > 0:
		i := rng.Intn(len(out))
		out = append(out[:i], out[i+1:]...)
	default:
		if len(out) > 0 {
			if s, ok := pick(); ok {
				out[rng.Intn(len(out))] = s
			}
		}
	}
	sortSites(out)
	return out
}

// sortSites orders sites deterministically.
func sortSites(ss []lattice.Site) {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].M != ss[j].M {
			return ss[i].M < ss[j].M
		}
		if ss[i].N != ss[j].N {
			return ss[i].N < ss[j].N
		}
		return ss[i].L < ss[j].L
	})
}

// Grid returns candidate sites on a rectangular cell region with the given
// stride, excluding sites too close (< minNM) to any fixed dot.
func Grid(x0, y0, x1, y1, stride int, fixed []sidb.Dot, minNM float64) []lattice.Site {
	var out []lattice.Site
	for y := y0; y <= y1; y += stride {
		for x := x0; x <= x1; x += stride {
			s := lattice.FromCell(x, y)
			ok := true
			for _, d := range fixed {
				if lattice.DistanceNM(s, d.Site) < minNM {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, s)
			}
		}
	}
	return out
}
