package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestMain(m *testing.M) {
	// setupSampler re-executes this binary for set-up samples.
	if spec := os.Getenv(setupChildEnv); spec != "" {
		os.Exit(setupChild(spec))
	}
	os.Exit(m.Run())
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke is the benchmark's smoke mode: one short pass of every
// workload, untraced at the default and the held-out seed and traced at
// the default seed. Every op must check out, and every metric that
// BENCHMARK.json declares must be printed with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkJSON
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloadByName) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(def.Workloads), len(workloadByName))
	}
	for _, w := range def.Workloads {
		for _, c := range []struct {
			seed   int64
			traced bool
			want   []declared
		}{
			{defaultSeed, false, def.EndToEnd},
			{2, false, def.EndToEnd},
			{defaultSeed, true, def.PerLayer},
		} {
			opts := options{workload: w.Name, seed: c.seed, trace: c.traced, outDir: t.TempDir(), setupRuns: 1, minPasses: 1}
			var log bytes.Buffer
			res, err := run(context.Background(), opts, &log)
			if err != nil {
				t.Fatalf("%s seed=%d traced=%t: %v\n%s", w.Name, c.seed, c.traced, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s seed=%d traced=%t: attempted=%d failed=%d\n%s", w.Name, c.seed, c.traced, res.Attempted, res.Failed, log.String())
			}
			if len(res.Metrics) != len(c.want) {
				t.Errorf("%s traced=%t: %d metrics, BENCHMARK.json declares %d", w.Name, c.traced, len(res.Metrics), len(c.want))
			}
			for _, d := range c.want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: metric %s missing", w.Name, c.traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s traced=%t: metric %s in %q, declared %q", w.Name, c.traced, d.Name, m.Unit, d.Unit)
				case !c.traced && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestTraceSpansPerPass checks that the sweep span metrics are per group
// and pass: three traced passes must read about what one does.
func TestTraceSpansPerPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep workload")
	}
	capture := map[int]float64{}
	for _, minPasses := range []int{1, 5} { // 1 and 3 traced passes
		opts := options{workload: "sweep", seed: defaultSeed, trace: true, outDir: t.TempDir(), minPasses: minPasses}
		var log bytes.Buffer
		res, err := run(context.Background(), opts, &log)
		if err != nil {
			t.Fatalf("minPasses=%d: %v\n%s", minPasses, err, log.String())
		}
		capture[minPasses] = res.Metrics["trace.capture_ms"].Value
		if res.Metrics["trace.replay_ms"].Value <= 0 {
			t.Errorf("minPasses=%d: trace.replay_ms = %v, want > 0", minPasses, res.Metrics["trace.replay_ms"].Value)
		}
	}
	if r := capture[5] / capture[1]; !(r > 0.5 && r < 2) {
		t.Errorf("trace.capture_ms = %v over 3 traced passes, %v over 1; want about equal", capture[5], capture[1])
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"intrawarp/internal/eu.(*EU).Tick":            "eu.pipeline",
		"intrawarp/internal/eu.alignArb":              "eu.pipeline",
		"intrawarp/internal/eu.(*Thread).Step":        "eu.exec",
		"intrawarp/internal/eu.alu":                   "eu.exec",
		"intrawarp/internal/regfile.(*GRF).ReadU32":   "eu.exec",
		"intrawarp/internal/memory.(*Flat).ReadU32":   "eu.exec",
		"intrawarp/internal/memory.(*Cache).Access":   "memory",
		"intrawarp/internal/stats.(*Run).RecordInstr": "compaction",
		"intrawarp/internal/gpu.(*GPU).RunCtx":        "gpu",
		"intrawarp/internal/par.For.func1":            "gpu",
		"intrawarp/internal/trace.Replay":             "trace",
		"intrawarp/internal/kgen.lower":               "workloads",
		"net/http.(*conn).serve":                      "serve",
		"encoding/json.Marshal":                       "serve",
		"runtime.mallocgc":                            "runtime",
		"internal/runtime/maps.(*Map).getWithKey":     "runtime",
		"runtime/pprof.(*profileBuilder).addCPUData":  "other",
		"intrawarp/internal/experiments.(*Sweep).Run": "other",
		"main.digestRun":                              "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%s) = %s, want %s", fn, got, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); got < 3.69 || got > 3.71 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
}
