package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/clocking"
	"repro/internal/core"
	"repro/internal/gatelayout"
	"repro/internal/gatelib"
	"repro/internal/logic/bench"
	"repro/internal/logic/mapping"
	"repro/internal/logic/network"
	"repro/internal/logic/rewrite"
	"repro/internal/obs"
	"repro/internal/pnr"
	"repro/internal/sidb"
	"repro/internal/verify"
)

// flowCase is one Table-1 benchmark with its expected dimensions.
type flowCase struct {
	name string
	spec *network.XAG
	want [2]int
}

// flowOut is what one flow produced.
type flowOut struct {
	w, h   int
	equiv  bool
	fp     string
	dur    time.Duration // core.RunContext only
	layout *gatelayout.Layout
}

// layerBusy sums the per-layer busy time and work of traced flows.
type layerBusy struct {
	rewrite, mapping, expand, pnr, encode, solve, drc, verify, apply time.Duration
	gatesRemoved, sizesTried, conflicts, sidbs                       int64
}

// runFlows runs flow-table1: one caller runs the 14 Table-1 benchmarks
// serially in a closed loop, in a seeded order, through core.RunContext
// with the auto engine, rewrite on and the gate library applied. A traced
// run alternates those sweeps with staged sweeps that call each layer's
// public function directly.
func runFlows(r *run) {
	var loadErr error
	cases, resample := setup(r, func() []flowCase {
		cs := make([]flowCase, 0, len(bench.Benchmarks))
		for _, b := range bench.Benchmarks {
			x, err := bench.Load(b.Name)
			if err != nil {
				loadErr = err
			}
			cs = append(cs, flowCase{name: b.Name, spec: x, want: wantTable1[b.Name]})
		}
		return cs
	}, nil)
	if !r.op("loading benchmarks", loadErr) {
		return
	}

	ctx := context.Background()
	rng := rand.New(rand.NewSource(r.seed))
	deadline := time.Now().Add(r.seconds)
	var stagedWalls []float64
	var busy layerBusy
	stats := newPassStats()
	var areas []float64
	fingerprints := map[string]map[string]bool{}
	noteFP := func(outs map[string]flowOut) {
		for name, o := range outs {
			if fingerprints[name] == nil {
				fingerprints[name] = map[string]bool{}
			}
			fingerprints[name][o.fp] = true
		}
	}
	for {
		order := shuffled(cases, rng)
		outs, wall := r.coreSweep(ctx, order)
		r.checkFlows("core.RunContext", order, outs)
		stats.passes = append(stats.passes, wall.Seconds())
		area := 0
		for name, o := range outs {
			stats.perInput[name] = append(stats.perInput[name], ms(o.dur))
			area += o.w * o.h
		}
		areas = append(areas, float64(area))
		noteFP(outs)
		if r.trace {
			staged, swall := r.stagedSweep(ctx, order, len(stagedWalls), &busy)
			r.checkFlows("staged flow", order, staged)
			for name, s := range staged {
				if c, ok := outs[name]; ok && (c.w != s.w || c.h != s.h || c.equiv != s.equiv) {
					r.fail("%s: staged flow gives %dx%d equivalent=%v, core.RunContext %dx%d equivalent=%v",
						name, s.w, s.h, s.equiv, c.w, c.h, c.equiv)
				}
			}
			stagedWalls = append(stagedWalls, swall.Seconds())
			noteFP(staged)
		}
		resample()
		if time.Now().After(deadline) {
			break
		}
	}

	if !r.trace {
		r.setEndToEnd(stats)
		return
	}

	n := float64(len(stagedWalls))
	per := func(d time.Duration) float64 { return d.Seconds() / n }
	r.set("rewrite.busy_s", per(busy.rewrite), "s")
	r.set("rewrite.gates_removed", float64(busy.gatesRemoved)/n, "count")
	r.set("mapping.busy_s", per(busy.mapping), "s")
	r.set("pnr.expand_busy_s", per(busy.expand), "s")
	r.set("pnr.busy_s", per(busy.pnr), "s")
	r.set("pnr.encode_s", per(busy.encode), "s")
	r.set("pnr.solve_s", per(busy.solve), "s")
	r.set("pnr.sizes_tried", float64(busy.sizesTried)/n, "count")
	r.set("sat.conflicts", float64(busy.conflicts)/n, "count")
	r.set("drc.busy_s", per(busy.drc), "s")
	r.set("verify.busy_s", per(busy.verify), "s")
	r.set("gatelib.apply_busy_s", per(busy.apply), "s")
	r.set("gatelib.sidbs", float64(busy.sidbs)/n, "count")
	r.set("area_tiles", median(areas), "tiles")
	for _, c := range cases {
		if xs := stats.perInput[c.name]; len(xs) > 0 {
			r.set("core.flow_ms."+c.name, median(xs), "ms")
		}
	}
	untraced := median(stats.passes)
	r.set("trace.overhead_share", (median(stagedWalls)-untraced)/untraced, "share")
	// The layer times of a staged sweep against the untraced sweep's wall
	// time: near 1 + trace.overhead_share when the layers account for the
	// whole flow, lower when core.RunContext does work no layer covers.
	layers := busy.rewrite + busy.mapping + busy.expand + busy.pnr + busy.drc + busy.verify + busy.apply
	r.set("trace.coverage_share", per(layers)/untraced, "share")
	variants := 0
	for _, fps := range fingerprints {
		if len(fps) > 1 {
			variants++
		}
	}
	r.set("pnr.layout_variants", float64(variants), "count")
}

// coreSweep runs every case through core.RunContext and returns the
// outcomes by name and the sweep's wall time. Layout fingerprints are
// taken after the sweep, outside the timed region.
func (r *run) coreSweep(ctx context.Context, order []flowCase) (map[string]flowOut, time.Duration) {
	outs := make(map[string]flowOut, len(order))
	t0 := time.Now()
	for _, c := range order {
		f0 := time.Now()
		res, err := core.RunContext(ctx, c.spec, core.Options{})
		d := time.Since(f0)
		if !r.op("flow "+c.name, err) {
			continue
		}
		outs[c.name] = flowOut{
			w: res.Layout.Width(), h: res.Layout.Height(),
			equiv: res.Verification.Equivalent, dur: d, layout: res.Layout,
		}
	}
	wall := time.Since(t0)
	fingerprintAll(outs)
	return outs, wall
}

// stagedSweep runs every case through stagedFlow, adding its layer times
// to busy, and returns the outcomes by name and the sweep's wall time.
func (r *run) stagedSweep(ctx context.Context, order []flowCase, sweep int, busy *layerBusy) (map[string]flowOut, time.Duration) {
	outs := make(map[string]flowOut, len(order))
	t0 := time.Now()
	for _, c := range order {
		trace := fmt.Sprintf("sweep%d/%s", sweep, c.name)
		o, err := r.stagedFlow(ctx, trace, c.spec, busy)
		if !r.op("staged flow "+c.name, err) {
			continue
		}
		outs[c.name] = o
	}
	wall := time.Since(t0)
	fingerprintAll(outs)
	return outs, wall
}

// stagedFlow is core.RunContext's auto-engine path without a deadline,
// stage by stage: it calls each layer's public function in the flow's
// order and records a span around each call.
func (r *run) stagedFlow(ctx context.Context, trace string, spec *network.XAG, busy *layerBusy) (flowOut, error) {
	const parent = "flow"
	f0 := time.Now()
	defer func() { r.record(trace, parent, "", f0, time.Since(f0)) }()
	var err error

	var rw *network.XAG
	busy.rewrite += r.timed(trace, "rewrite", parent, func() {
		rw, err = rewrite.RewriteContext(ctx, spec, rewrite.Options{})
	})
	if err != nil {
		return flowOut{}, fmt.Errorf("rewriting: %w", err)
	}
	busy.gatesRemoved += int64(spec.NumGates() - rw.NumGates())

	var m *mapping.Net
	busy.mapping += r.timed(trace, "mapping", parent, func() { m, err = mapping.Map(rw) })
	if err != nil {
		return flowOut{}, fmt.Errorf("mapping: %w", err)
	}

	var g *pnr.RGraph
	busy.expand += r.timed(trace, "expand", parent, func() { g, err = pnr.Expand(m) })
	if err != nil {
		return flowOut{}, fmt.Errorf("expansion: %w", err)
	}

	// The exact engine's own size-search spans split P&R into encoding
	// and SAT solving; the scalable router is the auto engine's fallback.
	tr := obs.New()
	var layout *gatelayout.Layout
	busy.pnr += r.timed(trace, "pnr", parent, func() {
		layout, err = pnr.ExactContext(ctx, g, pnr.ExactOptions{Tracer: tr})
		if err != nil && ctx.Err() == nil {
			layout, _, err = pnr.OrthoAvoiding(ctx, g, nil, nil, 0)
		}
	})
	if err != nil {
		return flowOut{}, fmt.Errorf("physical design: %w", err)
	}
	encode, solve := pnrSplit(tr.Report("pnr").Stages)
	busy.encode += encode
	busy.solve += solve
	busy.sizesTried += tr.Counter("pnr/exact/sizes_tried").Value()
	busy.conflicts += tr.Counter("sat/conflicts").Value()

	var violations []gatelayout.Violation
	busy.drc += r.timed(trace, "drc", parent, func() {
		st := clocking.PlanSuperTiles(clocking.MinMetalPitchNM)
		violations = layout.Check(&st)
	})
	if len(violations) != 0 {
		return flowOut{}, fmt.Errorf("%d design-rule violations, first: %v", len(violations), violations[0])
	}

	var eq verify.Result
	busy.verify += r.timed(trace, "verify", parent, func() {
		eq, err = verify.EquivalentLayoutContext(ctx, spec, layout)
	})
	if err != nil {
		return flowOut{}, fmt.Errorf("verification: %w", err)
	}
	busy.conflicts += eq.Metrics.Conflicts
	if !eq.Equivalent {
		return flowOut{}, fmt.Errorf("layout is NOT equivalent to the specification")
	}

	var cell *sidb.Layout
	busy.apply += r.timed(trace, "gatelib/apply", parent, func() {
		cell, err = gatelib.Apply(gatelib.NewLibrary(), layout, nil)
	})
	if err != nil {
		return flowOut{}, fmt.Errorf("library application: %w", err)
	}
	busy.sidbs += int64(cell.NumDots())
	return flowOut{w: layout.Width(), h: layout.Height(), equiv: eq.Equivalent, layout: layout}, nil
}

// checkFlows fails the run on any flow that is not verified equivalent or
// whose dimensions differ from the expected table.
func (r *run) checkFlows(label string, cases []flowCase, outs map[string]flowOut) {
	for _, c := range cases {
		o, ok := outs[c.name]
		if !ok {
			continue // already counted as a failed operation
		}
		if !o.equiv {
			r.fail("%s %s: layout not verified equivalent", label, c.name)
		}
		if [2]int{o.w, o.h} != c.want {
			r.fail("%s %s: %dx%d, expected %dx%d", label, c.name, o.w, o.h, c.want[0], c.want[1])
		}
	}
}

// pnrSplit sums the exact engine's pnr/exact/size spans into encoding
// time (span duration minus solve_seconds) and SAT solving time.
func pnrSplit(stages []*obs.StageReport) (encode, solve time.Duration) {
	for _, s := range stages {
		if s.Name == "pnr/exact/size" {
			sv, _ := s.Attrs["solve_seconds"].(float64)
			encode += seconds(s.Seconds - sv)
			solve += seconds(sv)
		}
		e, v := pnrSplit(s.Children)
		encode += e
		solve += v
	}
	return encode, solve
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// fingerprintAll sets each outcome's layout fingerprint and drops the
// layout.
func fingerprintAll(outs map[string]flowOut) {
	for name, o := range outs {
		o.fp = fingerprint(o.layout)
		o.layout = nil
		outs[name] = o
	}
}

// fingerprint hashes a gate-level layout's placement and routing: every
// occupied tile with its function and port directions, in row-major order.
func fingerprint(l *gatelayout.Layout) string {
	h := sha256.New()
	fmt.Fprintf(h, "%dx%d\n", l.Width(), l.Height())
	for _, at := range l.Tiles() {
		t, _ := l.At(at)
		fmt.Fprintf(h, "%d,%d %v %v %v\n", at.X, at.Y, t.Func, t.Ins, t.Outs)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
