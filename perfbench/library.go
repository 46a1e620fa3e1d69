package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/gatelib"
	"repro/internal/sim"
)

// libCase is one gate-library variant with its truth function.
type libCase struct {
	key    string
	design *gatelib.Design
	truth  func(uint32) uint32
}

// runGateLibrary runs gate-library: gatelib.ValidateWith under automatic
// solver dispatch on every library variant, in a seeded order, one caller
// in a closed loop. A traced run dispatches through timedSolver, which
// times each ground-state solve by the engine that produced it.
func runGateLibrary(r *run) {
	cases, resample := setup(r, func() []libCase {
		lib := gatelib.NewLibrary()
		keys := lib.Variants()
		sort.Strings(keys)
		cs := make([]libCase, 0, len(keys))
		for _, k := range keys {
			d, f, _ := lib.Design(k)
			cs = append(cs, libCase{key: k, design: d, truth: gatelib.TruthOf(f)})
		}
		return cs
	}, nil)
	opts := gatelib.ValidateOptions{} // automatic dispatch
	var ts *timedSolver
	if r.trace {
		ts = &timedSolver{inner: sim.Auto()}
		sim.Register(ts)
		opts.Solver = ts.Name()
	}

	rng := rand.New(rand.NewSource(r.seed))
	deadline := time.Now().Add(r.seconds)
	stats := newPassStats()
	var exactOK, annealOK []float64
	var validateBusy time.Duration
	for sweep := 0; ; sweep++ {
		iter := time.Now()
		nExact, nAnneal := 0, 0
		for _, c := range shuffled(cases, rng) {
			var v gatelib.Validation
			var err error
			d := r.timed(c.key, "gatelib/validate", "", func() {
				v, err = gatelib.ValidateWith(c.design, c.truth, sim.ParamsFig5, opts)
			})
			if !r.op("validate "+c.key, err) {
				continue
			}
			validateBusy += d
			stats.perInput[c.key] = append(stats.perInput[c.key], ms(d))
			// Only a proof counts: an annealed pass may rest on a
			// metastable state, so it is reported apart.
			switch {
			case v.OK && exactMethod(v.Method):
				nExact++
			case v.OK:
				nAnneal++
			}
		}
		stats.passes = append(stats.passes, time.Since(iter).Seconds())
		if nExact+nAnneal == 0 {
			r.fail("sweep %d: no engine validated anything", sweep)
		}
		if nExact < wantExactOK {
			r.fail("sweep %d: %d variants validated by an exact engine, expected at least %d", sweep, nExact, wantExactOK)
		}
		exactOK = append(exactOK, float64(nExact))
		annealOK = append(annealOK, float64(nAnneal))
		resample()
		if time.Now().After(deadline) {
			break
		}
	}

	if !r.trace {
		r.setEndToEnd(stats)
		return
	}
	n := float64(len(stats.passes))
	ts.mu.Lock()
	r.set("sim.exact_busy_s", ts.exactBusy.Seconds()/n, "s")
	r.set("sim.anneal_busy_s", ts.annealBusy.Seconds()/n, "s")
	r.set("sim.exact_solves", float64(ts.exactSolves)/n, "count")
	r.set("sim.anneal_solves", float64(ts.annealSolves)/n, "count")
	// What validation spends outside the solver: engine set-up and,
	// for tiles of at most sim.ExactLimit free dots, the exhaustive scan
	// of sim.Engine.DegeneracyGap.
	nonsolver := validateBusy - ts.exactBusy - ts.annealBusy
	ts.mu.Unlock()
	r.set("gatelib.validate_busy_s", validateBusy.Seconds()/n, "s")
	r.set("gatelib.nonsolver_busy_s", nonsolver.Seconds()/n, "s")
	r.set("exact_ok_tiles", median(exactOK), "tiles")
	r.set("sim.anneal_ok_tiles", median(annealOK), "tiles")
	for _, c := range cases {
		r.set(variantMetric(c.key), median(stats.perInput[c.key]), "ms")
	}
}

// exactMethod reports whether the named ground-state solver proves
// minimality.
func exactMethod(name string) bool {
	s, err := sim.Lookup(name)
	return err == nil && s.IsExact()
}

// timedSolver wraps a ground-state solver and sums the time spent in its
// Solve calls, split by whether the solution is a proof (exact engines) or
// a heuristic one (the annealer).
type timedSolver struct {
	inner sim.GroundStateSolver

	mu                        sync.Mutex
	exactBusy, annealBusy     time.Duration
	exactSolves, annealSolves int
}

func (t *timedSolver) Name() string  { return "perfbench-timed-" + t.inner.Name() }
func (t *timedSolver) IsExact() bool { return t.inner.IsExact() }

func (t *timedSolver) Solve(e *sim.Engine, opts sim.SolveOptions) (sim.Solution, error) {
	t0 := time.Now()
	sol, err := t.inner.Solve(e, opts)
	d := time.Since(t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err == nil && sol.Exact {
		t.exactBusy += d
		t.exactSolves++
	} else {
		t.annealBusy += d
		t.annealSolves++
	}
	return sol, err
}
