package gatelib

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// validatedVariants lists the tile designs whose dot-accurate
// implementations are ground-state-validated at the Fig. 5 parameters
// (EXPERIMENTS.md tracks the remaining best-effort designs).
var validatedVariants = []string{
	"wire:iNW:oSE", "wire:iNE:oSW",
	"diag:iNW:oSW", "diag:iNE:oSE",
	"pi:oSE", "pi:oSW",
	"po:iNW", "po:iNE",
	"inv:iNW:oSE", "inv:iNE:oSW",
	"or:iNW:iNE:oSE", "or:iNW:iNE:oSW",
	"xor:iNW:iNE:oSE", "xor:iNW:iNE:oSW",
}

// libraryResults validates the whole library once per test binary.
var libraryResults = sync.OnceValue(func() map[string]Validation {
	return ValidateLibrary(sim.ParamsFig5)
})

func TestLibraryValidation(t *testing.T) {
	results := libraryResults()
	for _, key := range validatedVariants {
		v, ok := results[key]
		if !ok {
			t.Errorf("%s: design missing from library", key)
			continue
		}
		if !v.OK {
			t.Errorf("%s: validation failed: %v", key, v)
		}
	}
	// Report the full status (informational).
	var names []string
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	okCount := 0
	for _, n := range names {
		if results[n].OK {
			okCount++
		}
		t.Logf("%-30s %v", n, results[n])
	}
	t.Logf("validated: %d/%d designs", okCount, len(names))
}

// goldenValidations pins every variant's Fig. 5 validation as recorded
// before the exhaustive scans were fused into one kernel: verdict, outputs,
// method, and the minimum degeneracy gap as IEEE-754 bits.
var goldenValidations = []struct {
	key     string
	ok      bool
	outputs []int
	method  string
	gapBits uint64
}{
	{"and:iNW:iNE:oSE", false, []int{0, 0, 0, 0}, "quickexact", 0x3f40e42f36e5f000},      // 0.000515483 eV
	{"and:iNW:iNE:oSW", false, []int{0, 0, 0, 0}, "quickexact", 0x3f40e42f36da8000},      // 0.000515483 eV
	{"crossing:iNW:iNE:oSW:oSE", false, []int{3, 3, 3, 3}, "anneal", 0x0000000000000000}, // 0 eV
	{"diag:iNE:oSE", true, []int{0, 1}, "quickexact", 0x3f01743fec990000},                // 3.32911e-05 eV
	{"diag:iNW:oSW", true, []int{0, 1}, "quickexact", 0x3f01743fec980000},                // 3.32911e-05 eV
	{"fanout:iNE:oSW:oSE", false, []int{3, 3}, "quickexact", 0x3f705b8cbf438000},         // 0.00399356 eV
	{"fanout:iNW:oSW:oSE", false, []int{3, 3}, "quickexact", 0x3f705b8cbf435000},         // 0.00399356 eV
	{"ha:iNW:iNE:oSW:oSE", false, []int{3, 3, 3, 3}, "anneal", 0x0000000000000000},       // 0 eV
	{"inv:iNE:oSE", false, []int{0, 0}, "quickexact", 0x3f816273082e3900},                // 0.00848856 eV
	{"inv:iNE:oSW", true, []int{1, 0}, "quickexact", 0x3f53da99a606a000},                 // 0.00121179 eV
	{"inv:iNW:oSE", true, []int{1, 0}, "quickexact", 0x3f53da99a6068000},                 // 0.00121179 eV
	{"inv:iNW:oSW", false, []int{0, 0}, "quickexact", 0x3f816273082e4b00},                // 0.00848856 eV
	{"nand:iNW:iNE:oSE", false, []int{1, 1, 1, 1}, "quickexact", 0x3f84b2797903cf00},     // 0.010106 eV
	{"nand:iNW:iNE:oSW", false, []int{1, 1, 1, 1}, "quickexact", 0x3f84b27979024c00},     // 0.010106 eV
	{"nor:iNW:iNE:oSE", false, []int{0, 0, 0, 0}, "quickexact", 0x3f54d147c2f3b800},      // 0.0012706 eV
	{"nor:iNW:iNE:oSW", false, []int{0, 0, 0, 0}, "quickexact", 0x3f54d147c2f91000},      // 0.0012706 eV
	{"or:iNW:iNE:oSE", true, []int{0, 1, 1, 1}, "anneal", 0x0000000000000000},            // 0 eV
	{"or:iNW:iNE:oSW", true, []int{0, 1, 1, 1}, "anneal", 0x0000000000000000},            // 0 eV
	{"pi:oSE", true, []int{0, 1}, "quickexact", 0x3f72f37d97dfd400},                      // 0.00462674 eV
	{"pi:oSW", true, []int{0, 1}, "quickexact", 0x3f72f37d97dfd800},                      // 0.00462674 eV
	{"po:iNE", true, []int{0, 1}, "quickexact", 0x3f5c0fcc65221800},                      // 0.00171275 eV
	{"po:iNW", true, []int{0, 1}, "quickexact", 0x3f5c0fcc65223000},                      // 0.00171275 eV
	{"wire:iNE:oSW", true, []int{0, 1}, "quickexact", 0x3f63732bef4acc00},                // 0.00237425 eV
	{"wire:iNW:oSE", true, []int{0, 1}, "quickexact", 0x3f63732bef4a4800},                // 0.00237425 eV
	{"xnor:iNW:iNE:oSE", false, []int{0, 0, 0, 0}, "quickexact", 0x3f64ba2c533e4000},     // 0.00253018 eV
	{"xnor:iNW:iNE:oSW", false, []int{0, 0, 0, 0}, "quickexact", 0x3f64ba2c533a7400},     // 0.00253018 eV
	{"xor:iNW:iNE:oSE", true, []int{0, 1, 1, 0}, "anneal", 0x0000000000000000},           // 0 eV
	{"xor:iNW:iNE:oSW", true, []int{0, 1, 1, 0}, "anneal", 0x0000000000000000},           // 0 eV
}

func TestLibraryValidationGolden(t *testing.T) {
	results := libraryResults()
	if len(results) != len(goldenValidations) {
		t.Errorf("library has %d variants, golden table %d", len(results), len(goldenValidations))
	}
	for _, g := range goldenValidations {
		v, ok := results[g.key]
		if !ok {
			t.Errorf("%s: missing from library", g.key)
			continue
		}
		if v.OK != g.ok || !reflect.DeepEqual(v.Outputs, g.outputs) || v.Method != g.method ||
			math.Float64bits(v.MinGapEV) != g.gapBits {
			t.Errorf("%s: got ok=%v outputs=%v method=%s gap=%#016x, golden ok=%v outputs=%v method=%s gap=%#016x",
				g.key, v.OK, v.Outputs, v.Method, math.Float64bits(v.MinGapEV), g.ok, g.outputs, g.method, g.gapBits)
		}
	}
}

// TestValidateGapTelemetry: every pattern within the exhaustive limit runs
// one gap scan over 2^free configurations, counted on the options' tracer.
func TestValidateGapTelemetry(t *testing.T) {
	d, f, _ := NewLibrary().Design("wire:iNW:oSE")
	tr := obs.New()
	if _, err := ValidateWith(d, TruthOf(f), sim.ParamsFig5, ValidateOptions{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	var scans, configs int64
	for p := 0; p < 1<<len(d.Ins); p++ {
		if free := freeDots(d.PatternLayout(p)); free <= sim.ExactLimit {
			scans++
			configs += 1 << free
		}
	}
	if scans == 0 {
		t.Fatal("no pattern within the exhaustive limit")
	}
	if got := tr.Counter("sim/gap/scans").Value(); got != scans {
		t.Errorf("sim/gap/scans = %d, want %d", got, scans)
	}
	if got := tr.Counter("sim/gap/configs").Value(); got != configs {
		t.Errorf("sim/gap/configs = %d, want %d", got, configs)
	}
}

// TestValidateCanceled: a cancelled context stops validation with its
// error, before any solve when cancelled up front and promptly when
// cancelled from another goroutine while XNOR (22 free dots) is solved
// and scanned.
func TestValidateCanceled(t *testing.T) {
	d, f, _ := NewLibrary().Design("xnor:iNW:iNE:oSE")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := ValidateWith(d, TruthOf(f), sim.ParamsFig5, ValidateOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: error = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Errorf("pre-cancelled validation took %v", el)
	}

	ctx, cancel = context.WithCancel(context.Background())
	canceledAt := make(chan time.Time, 1)
	go func() {
		time.Sleep(30 * time.Millisecond)
		canceledAt <- time.Now()
		cancel()
	}()
	_, err := ValidateWith(d, TruthOf(f), sim.ParamsFig5, ValidateOptions{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-run: error = %v, want context.Canceled", err)
	}
	if el := time.Since(<-canceledAt); el > time.Second {
		t.Errorf("validation ran %v past its cancellation", el)
	}
}
