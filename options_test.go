package intrawarp

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestNewConfigDefaults checks that option-free construction reproduces
// the paper's Table 3 machine.
func TestNewConfigDefaults(t *testing.T) {
	cfg, err := NewConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, DefaultConfig()) {
		t.Fatalf("NewConfig() != DefaultConfig():\n%+v\n%+v", cfg, DefaultConfig())
	}
}

// TestConfigOptionComposition checks options apply in order and compose.
func TestConfigOptionComposition(t *testing.T) {
	cfg, err := NewConfig(WithPolicy(SCC), WithDCBandwidth(2), WithPerfectL3(),
		WithMaxCycles(12345))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.EU.Policy != SCC || cfg.Mem.DCLinesPerCycle != 2 || !cfg.Mem.PerfectL3 ||
		cfg.MaxCycles != 12345 {
		t.Fatalf("options not applied: %+v", cfg)
	}

	// Later options win over earlier ones.
	cfg, err = NewConfig(WithPolicy(BCC), WithPolicy(IvyBridge))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.EU.Policy != IvyBridge {
		t.Fatalf("last WithPolicy should win, got %v", cfg.EU.Policy)
	}

	// WithConfig replaces the base; trailing options refine it.
	base, _ := NewConfig(WithPolicy(SCC))
	cfg, err = NewConfig(WithConfig(base), WithDCBandwidth(2))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.EU.Policy != SCC || cfg.Mem.DCLinesPerCycle != 2 {
		t.Fatalf("WithConfig composition wrong: %+v", cfg)
	}
}

// TestInvalidOptions checks each rejecting option surfaces an error from
// the constructor or entry point it was passed to.
func TestInvalidOptions(t *testing.T) {
	if _, err := NewConfig(WithDCBandwidth(0)); err == nil {
		t.Fatal("WithDCBandwidth(0) accepted")
	}
	if _, err := NewConfig(WithMaxCycles(-1)); err == nil {
		t.Fatal("WithMaxCycles(-1) accepted")
	}
	if _, err := NewGPU(WithDCBandwidth(-3)); err == nil {
		t.Fatal("NewGPU with invalid option accepted")
	}
	g, err := NewGPU()
	if err != nil {
		t.Fatal(err)
	}
	w, err := WorkloadByName("bsearch")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorkload(g, w, WithSize(-1)); err == nil {
		t.Fatal("WithSize(-1) accepted")
	}
	if err := RunExperiment("rfarea", WithOutput(nil)); err == nil {
		t.Fatal("WithOutput(nil) accepted")
	}
}

// TestWithWorkersBoundsExperimentPool checks WithWorkers lands in the
// experiment context, the one place a worker count applies.
func TestWithWorkersBoundsExperimentPool(t *testing.T) {
	ctx, err := newExperimentContext([]ExperimentOption{WithQuick(), WithWorkers(3)})
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Workers != 3 || !ctx.Quick {
		t.Fatalf("experiment options not applied: %+v", ctx)
	}
}

// TestRunWorkloadOptions checks defaults (functional model, default
// size) and WithTimed.
func TestRunWorkloadOptions(t *testing.T) {
	w, err := WorkloadByName("bsearch")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGPU()
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunWorkload(g, w, WithSize(256))
	if err != nil {
		t.Fatal(err)
	}
	if run.TotalCycles != 0 {
		t.Fatal("default run should be functional (no timing)")
	}

	g, _ = NewGPU()
	timed, err := RunWorkload(g, w, WithSize(256), WithTimed())
	if err != nil {
		t.Fatal(err)
	}
	if timed.TotalCycles == 0 {
		t.Fatal("WithTimed produced no cycle count")
	}
}

// TestRunAllExperimentsFacade smoke-tests the ordered concurrent sweep
// through the public API.
func TestRunAllExperimentsFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	var buf bytes.Buffer
	if err := RunAllExperiments(WithOutput(&buf), WithQuick()); err != nil {
		t.Fatal(err)
	}
	first := strings.Index(buf.String(), "== ")
	if first != 0 {
		t.Fatalf("report should open with an experiment header, got %q", buf.String()[:40])
	}
	if !strings.Contains(buf.String(), "table4") {
		t.Fatal("combined report missing table4 section")
	}
}

// TestParsePolicyFacade checks the policy parser surfaced for CLI use.
func TestParsePolicyFacade(t *testing.T) {
	p, err := ParsePolicy("scc")
	if err != nil || p != SCC {
		t.Fatalf("ParsePolicy(scc) = %v, %v", p, err)
	}
	if _, err := ParsePolicy("nonsense"); err == nil {
		t.Fatal("bad policy accepted")
	}
}
