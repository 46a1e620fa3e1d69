// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time, checks that every output is correct, and
// prints one JSON result line whose metrics are described in
// BENCHMARK.json at the repository root:
//
//	bash perfbench/run.sh --workload flow-table1 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run. With
// --trace 1 it reports per-layer metrics: the benchmark calls each layer's
// public function itself, records a span around every call in memory and
// writes the spans to .bench_build/traces/ when the run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/gatelib"
	"repro/internal/logic/bench"
	"repro/internal/obs"

	// Register the pruned exact ground-state backend for automatic
	// dispatch, as the CLI and the daemon do.
	_ "repro/internal/sim/quickexact"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its result.
type run struct {
	seed    int64
	seconds time.Duration
	trace   bool
	res     result
	spans   []span
	// setupSecs holds the set-up samples, in seconds per call.
	setupSecs []float64
}

// span is one timed call into a layer, kept in memory until the run ends.
type span struct {
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run){
	"flow-table1":   runFlows,
	"gate-library":  runGateLibrary,
	"service-mixed": runService,
}

// Each workload times its set-up in samples of setupBatch calls each, for
// setupWindow before its first pass and setupRecheck after every pass;
// setup_s is the median sample's time per call. A single set-up takes
// well under a millisecond, too short to time steadily alone, and the
// host's speed changes over a run, so the samples are spread over it.
const (
	setupBatch   = 500
	setupWindow  = time.Second
	setupRecheck = 250 * time.Millisecond
)

var start = time.Now()

func main() {
	workload := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (flow-table1, gate-library, service-mixed), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		res:     result{Correct: true, Metrics: map[string]metric{}},
	}
	fn(r) // every workload attempts at least one operation
	if r.trace {
		if err := r.writeSpans(*workload); err != nil {
			r.fail("writing spans: %v", err)
		}
		r.fillLayers()
	} else {
		r.set("setup_s", median(r.setupSecs), "s")
		r.set("peak_rss_mb", peakRSSMB(), "MB")
		r.set("success_share", 1-float64(r.res.Failed)/float64(r.res.Attempted), "share")
		for _, name := range endToEnd {
			if _, ok := r.res.Metrics[name]; !ok {
				r.fail("no value for %s", name)
			}
		}
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// endToEnd names the metrics every workload reports with --trace 0.
var endToEnd = []string{
	"setup_s", "sweep_s", "op_geomean_ms", "ops_per_s", "peak_rss_mb",
	"success_share",
}

// passStats is what every workload measures end to end: passes over its
// distinct inputs, each computed from scratch, and a closed loop of
// operations. In a batch workload the passes are the closed loop; in
// service-mixed the passes are the cold passes and the closed loop is the
// warm phase.
type passStats struct {
	passes   []float64            // wall seconds of each pass
	perInput map[string][]float64 // ms of each operation on the passes, by input
	// loopOps and loopTime count the closed loop's operations and its wall
	// time when the closed loop is not the passes themselves.
	loopOps  int64
	loopTime time.Duration
}

func newPassStats() *passStats {
	return &passStats{perInput: map[string][]float64{}}
}

// setEndToEnd records the end-to-end timings. sweep_s is the median pass
// and op_geomean_ms the geometric mean over the inputs of each input's
// median operation, so that a gain on a small input is not drowned by
// the largest one.
func (r *run) setEndToEnd(s *passStats) {
	var typical []float64
	n, loopTime := float64(s.loopOps), s.loopTime.Seconds()
	for _, xs := range s.perInput {
		typical = append(typical, median(xs))
	}
	if s.loopOps == 0 {
		for _, xs := range s.perInput {
			n += float64(len(xs))
		}
		for _, p := range s.passes {
			loopTime += p
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d passes, wall s %.3f\n", len(s.passes), s.passes)
	r.set("sweep_s", median(s.passes), "s")
	r.set("op_geomean_ms", geomean(typical), "ms")
	r.set("ops_per_s", n/loopTime, "1/s")
}

// layerUnits lists every per-layer metric with its unit, in the order of
// BENCHMARK.json. Every workload reports all of them with --trace 1; a
// layer the workload does not call reads 0.
func layerUnits() [][2]string {
	out := [][2]string{
		{"rewrite.busy_s", "s"}, {"rewrite.gates_removed", "count"},
		{"mapping.busy_s", "s"}, {"pnr.expand_busy_s", "s"},
		{"pnr.busy_s", "s"}, {"pnr.encode_s", "s"}, {"pnr.solve_s", "s"},
		{"pnr.sizes_tried", "count"}, {"pnr.layout_variants", "count"},
		{"sat.conflicts", "count"}, {"drc.busy_s", "s"}, {"verify.busy_s", "s"},
		{"gatelib.apply_busy_s", "s"}, {"gatelib.sidbs", "count"},
		{"area_tiles", "tiles"},
	}
	for _, b := range bench.Benchmarks {
		out = append(out, [2]string{"core.flow_ms." + b.Name, "ms"})
	}
	out = append(out, [][2]string{
		{"trace.overhead_share", "share"}, {"trace.coverage_share", "share"},
		{"sim.exact_busy_s", "s"}, {"sim.anneal_busy_s", "s"},
		{"sim.exact_solves", "count"}, {"sim.anneal_solves", "count"},
		{"exact_ok_tiles", "tiles"}, {"sim.anneal_ok_tiles", "tiles"},
		{"gatelib.validate_busy_s", "s"}, {"gatelib.nonsolver_busy_s", "s"},
	}...)
	keys := gatelib.NewLibrary().Variants()
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, [2]string{variantMetric(k), "ms"})
	}
	return append(out, [][2]string{
		{"cache.hit_share", "share"}, {"service.warm_p50_ms", "ms"},
		{"service.warm_p99_ms", "ms"}, {"service.cold_solves", "count"},
		{"service.queue_wait_p50_ms", "ms"},
	}...)
}

// fillLayers sets every per-layer metric the workload did not report to 0
// and fails the run on a metric that is not a per-layer one.
func (r *run) fillLayers() {
	known := map[string]bool{}
	for _, nu := range layerUnits() {
		known[nu[0]] = true
		if _, ok := r.res.Metrics[nu[0]]; !ok {
			r.set(nu[0], 0, nu[1])
		}
	}
	for name := range r.res.Metrics {
		if !known[name] {
			r.fail("%s is not a per-layer metric", name)
		}
	}
}

func variantMetric(key string) string {
	return "gatelib.validate_ms." + strings.ReplaceAll(key, ":", "_")
}

// set records a metric.
func (r *run) set(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail marks the run incorrect and says why on stderr.
func (r *run) fail(format string, args ...any) {
	r.res.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// op counts one attempted operation, failed when err is non-nil.
func (r *run) op(what string, err error) bool {
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		r.fail("%s: %v", what, err)
		return false
	}
	return true
}

// timed runs fn, records it as a span and returns its duration.
func (r *run) timed(trace, name, parent string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.record(trace, name, parent, t0, d)
	return d
}

// record keeps one span in memory; untraced runs keep none.
func (r *run) record(trace, name, parent string, t0 time.Time, d time.Duration) {
	if !r.trace {
		return
	}
	r.spans = append(r.spans, span{
		Trace: trace, Name: name, Parent: parent,
		StartMS: ms(t0.Sub(start)), DurMS: ms(d),
	})
}

// writeSpans writes the recorded spans as JSON under .bench_build/traces.
func (r *run) writeSpans(workload string) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, r.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(r.spans), path)
	return nil
}

// setup times fn, the workload's set-up, in samples of setupBatch calls
// with a garbage collection before each, for setupWindow, and returns the
// last call's value. Every other value goes to discard, when it is not
// nil, outside the timed region. The returned function samples for
// setupRecheck more and discards what it makes; a workload calls it after
// each pass, so that setup_s, the median sample's time per call, meets the
// same host conditions as the rest of the run.
func setup[T any](r *run, fn func() T, discard func(T)) (T, func()) {
	var out T
	sample := func(window time.Duration, keepLast bool) T {
		made := false
		for t0 := time.Now(); time.Since(t0) < window; {
			runtime.GC()
			var busy time.Duration
			for j := 0; j < setupBatch; j++ {
				if made && discard != nil {
					discard(out)
				}
				c0 := time.Now()
				out = fn()
				busy += time.Since(c0)
				made = true
			}
			r.setupSecs = append(r.setupSecs, busy.Seconds()/setupBatch)
		}
		if !keepLast && discard != nil {
			discard(out)
		}
		return out
	}
	kept := sample(setupWindow, true)
	return kept, func() { sample(setupRecheck, false) }
}

// newLatencyHist returns a latency histogram in ms with buckets 0.5 %
// wide from 1 µs to about 20 min. Its size does not grow with the request
// count, so the benchmark's own memory stays out of peak_rss_mb.
func newLatencyHist() *obs.Histogram {
	bounds := make([]float64, 0, 4200)
	for b := 1e-3; b < 1.3e6; b *= 1.005 {
		bounds = append(bounds, b)
	}
	return obs.NewHistogram(bounds...)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// shuffled returns a permutation of items drawn from rng.
func shuffled[T any](items []T, rng *rand.Rand) []T {
	out := append([]T(nil), items...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
