package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"intrawarp/internal/obs"
)

// layerMetrics names every per-layer metric with its unit. A traced run
// reports all of them on every workload; a layer the workload does not
// reach reads 0. Counts are per pass of the workload's plan.
var layerMetrics = []struct{ name, unit string }{
	{"eu.pipeline.cpu_share", "ratio"},
	{"eu.busy_cycles", "count"},
	{"eu.window_issued_share", "ratio"},
	{"eu.window_idle_share", "ratio"},
	{"eu.window_memory_share", "ratio"},
	{"eu.window_scoreboard_share", "ratio"},
	{"eu.window_pipe_share", "ratio"},
	{"eu.window_frontend_share", "ratio"},
	{"eu.exec.cpu_share", "ratio"},
	{"eu.instructions", "count"},
	{"eu.simd_efficiency", "ratio"},
	{"eu.host_ns_per_instr", "ns/instr"},
	{"compaction.cpu_share", "ratio"},
	{"compaction.quads_suppressed_ratio", "ratio"},
	{"memory.cpu_share", "ratio"},
	{"memory.sends", "count"},
	{"memory.lines_per_send", "lines/send"},
	{"memory.l3_hit_rate", "ratio"},
	{"memory.dram_lines", "count"},
	{"memory.slm_conflicts", "count"},
	{"gpu.cpu_share", "ratio"},
	{"gpu.launch_ms", "ms"},
	{"gpu.sim_cycles", "count"},
	{"gpu.host_ns_per_sim_cycle", "ns/cycle"},
	{"trace.capture_ms", "ms"},
	{"trace.replay_ms", "ms"},
	{"trace.records", "count"},
	{"trace.replays", "count"},
	{"experiments.executions", "count"},
	{"trace.cpu_share", "ratio"},
	{"workloads.setup_check_ms", "ms"},
	{"workloads.cpu_share", "ratio"},
	{"kgen.generate_ms", "ms"},
	{"serve.cache_ms", "ms"},
	{"serve.wait_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.rejected", "count"},
	{"serve.sim_runs", "count"},
	{"serve.cpu_share", "ratio"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p90_ms", "ms"},
	{"serve.miss_p99_ms", "ms"},
	{"serve.sweep_p50_ms", "ms"},
	{"runtime.cpu_share", "ratio"},
	{"runtime.allocs_per_instr", "allocs/instr"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.peak_heap_mb", "MiB"},
	{"other.cpu_share", "ratio"},
	{"bench.trace_overhead", "ratio"},
}

// layerRules map a profiled function name to its layer; the first
// matching rule wins and unmatched functions count as "other" (the
// benchmark's own code, experiments glue, formatting, hashing).
var layerRules = []struct {
	layer string
	re    *regexp.Regexp
}{
	{"eu.exec", regexp.MustCompile(`^intrawarp/internal/eu\.(\(\*Thread\)|alu$|compare$|sizeMask$|f32$|fromF32$|f64$|fromF64$|madf32$|madf64$)`)},
	{"eu.exec", regexp.MustCompile(`^intrawarp/internal/(regfile|isa)\.|^intrawarp/internal/memory\.\(\*Flat\)`)},
	{"eu.pipeline", regexp.MustCompile(`^intrawarp/internal/eu\.`)},
	{"compaction", regexp.MustCompile(`^intrawarp/internal/(compaction|mask|stats)\.`)},
	{"memory", regexp.MustCompile(`^intrawarp/internal/memory\.`)},
	{"gpu", regexp.MustCompile(`^intrawarp/internal/(gpu|par)\.`)},
	{"trace", regexp.MustCompile(`^intrawarp/internal/trace\.`)},
	{"workloads", regexp.MustCompile(`^intrawarp/internal/(workloads|kbuild|kgen)\.`)},
	{"serve", regexp.MustCompile(`^(intrawarp/internal/serve|net|net/http|net/http/httptest|net/textproto|encoding/json|bufio|internal/poll|syscall|crypto/sha256|log/slog)\.`)},
	{"runtime", regexp.MustCompile(`^(runtime|internal/runtime/[a-z]+|runtime/internal/[a-z]+)\.`)},
}

var cpuLayers = []string{"eu.exec", "eu.pipeline", "compaction", "memory", "gpu", "trace", "workloads", "serve", "runtime", "other"}

func layerOf(fn string) string {
	for _, r := range layerRules {
		if r.re.MatchString(fn) {
			return r.layer
		}
	}
	return "other"
}

// tracer collects the spans and counts of traced passes, recorded from
// outside the program: probe hooks installed through Config.EU.Probe or
// obs.ContextWithProbes, spans around public calls, and Server-Timing
// headers. Safe for concurrent use.
type tracer struct {
	mu         sync.Mutex
	launches   []float64 // engine launch spans (ms)
	probes     []*launchProbe
	setupSpans []float64 // ExecuteCtx span minus its launches (ms)
	quadsDone  int64
	quadsSkip  int64
	stages     map[string]time.Duration
	runReqs    int
}

func newTracer() *tracer {
	return &tracer{stages: map[string]time.Duration{}}
}

// probe returns a probe for one engine run: a timed run, or one sweep
// group's capturing execution or one of its replays.
func (t *tracer) probe(label string) *launchProbe {
	p := &launchProbe{t: t, label: label}
	t.mu.Lock()
	t.probes = append(t.probes, p)
	t.mu.Unlock()
	return p
}

func (t *tracer) setupCheck(d time.Duration) {
	t.mu.Lock()
	t.setupSpans = append(t.setupSpans, ms(d))
	t.mu.Unlock()
}

// serverTiming adds one /v1/run response's Server-Timing stages.
func (t *tracer) serverTiming(h string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runReqs++
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(dur, 64); err == nil {
			t.stages[name] += time.Duration(v * float64(time.Millisecond))
		}
	}
}

// launchProbe times the launches of one engine run and tallies its
// compaction decisions. An engine drives it from one goroutine: timed
// runs and the serial functional capture of a sweep group.
type launchProbe struct {
	obs.NullProbe
	t       *tracer
	label   string
	engine  string
	begin   time.Time
	total   time.Duration
	done    int64
	skipped int64
}

// LaunchBegin implements obs.Probe.
func (p *launchProbe) LaunchBegin(e obs.LaunchEvent) {
	p.engine = e.Engine
	p.begin = time.Now()
}

// LaunchEnd implements obs.Probe.
func (p *launchProbe) LaunchEnd(int64) {
	d := time.Since(p.begin)
	t := p.t
	t.mu.Lock()
	p.total += d
	if p.engine != "trace-replay" {
		t.launches = append(t.launches, ms(d))
	}
	t.quadsDone += p.done
	t.quadsSkip += p.skipped
	t.mu.Unlock()
	p.done, p.skipped = 0, 0
}

// CompactionDecision implements obs.Probe.
func (p *launchProbe) CompactionDecision(e obs.CompactionEvent) {
	p.done += int64(e.QuadsDone)
	p.skipped += int64(e.QuadsSkipped)
}

// measureLayers is the traced run. Its first half runs untraced passes
// under a CPU profile of this process, which give the layers' CPU
// shares, host time per simulated instruction and cycle, and runtime
// costs; its second half runs passes with probes attached, which give
// the spans and exact counts. The ratio of the two halves' pass costs
// is the tracing overhead.
func measureLayers(ctx context.Context, b bench, chk *checker, opts options) (map[string]metric, error) {
	half := opts.seconds / 2
	minPasses := (opts.minPasses + 1) / 2

	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(opts.outDir, fmt.Sprintf("perfbench-%s-%d.cpu.pprof", opts.workload, os.Getpid()))
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer os.Remove(profPath)
	var ms0, ms1 runtime.MemStats
	untracedEnv := &passEnv{heap: &heapSampler{}}
	runtime.ReadMemStats(&ms0)
	rt0 := readRuntime()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	untraced, err := runPasses(ctx, b, chk, untracedEnv, half, minPasses, nil)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rt := readRuntime().sub(rt0)
	runtime.ReadMemStats(&ms1)

	tr := newTracer()
	traced, err := runPasses(ctx, b, chk, &passEnv{tr: tr, heap: &heapSampler{}}, half, minPasses, nil)
	if err != nil {
		return nil, err
	}
	shares, err := cpuShares(ctx, profPath)
	if err != nil {
		return nil, err
	}

	n := float64(len(untraced))
	cost := b.cost(untraced)
	counts := traced[0].counts
	m := map[string]metric{}
	for _, lm := range layerMetrics {
		m[lm.name] = metric{counts[lm.name], lm.unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	for _, l := range cpuLayers {
		set(l+".cpu_share", shares[l])
	}
	instr := float64(untraced[0].instr)
	set("eu.host_ns_per_instr", ratio(cost*1e9, instr))
	set("gpu.host_ns_per_sim_cycle", ratio(cost*1e9, counts["gpu.sim_cycles"]))
	set("runtime.allocs_per_instr", ratio(rt.allocObjects, instr*n))
	set("runtime.gc_cycles", rt.gcCycles/n)
	set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6/n)
	set("runtime.peak_heap_mb", untracedEnv.heap.mib(1))
	set("bench.trace_overhead", b.cost(traced)/cost)

	tr.mu.Lock()
	defer tr.mu.Unlock()
	set("gpu.launch_ms", median(tr.launches))
	set("workloads.setup_check_ms", median(tr.setupSpans))
	capture, replay := sweepSpans(tr.probes)
	set("trace.capture_ms", median(capture))
	set("trace.replay_ms", median(replay))
	if q := tr.quadsDone + tr.quadsSkip; q > 0 {
		set("compaction.quads_suppressed_ratio", float64(tr.quadsSkip)/float64(q))
	}
	for _, st := range []string{"cache", "wait", "queue", "run", "encode"} {
		set("serve."+st+"_ms", ratio(ms(tr.stages[st]), float64(tr.runReqs)))
	}
	all := append(untraced, traced...)
	set("serve.hit_p50_ms", classLatency(all, "hit", 0.50))
	set("serve.hit_p99_ms", classLatency(all, "hit", 0.99))
	set("serve.miss_p50_ms", classLatency(all, "miss", 0.50))
	set("serve.miss_p90_ms", classLatency(all, "miss", 0.90))
	set("serve.miss_p99_ms", classLatency(all, "miss", 0.99))
	set("serve.sweep_p50_ms", classLatency(all, "sweep", 0.50))
	fmt.Fprintf(chk.log, "# untraced_passes=%d traced_passes=%d profile_samples_ms=%.0f\n", len(untraced), len(traced), shares["total_ms"])
	return m, nil
}

// sweepSpans returns one span per sweep group's capturing execution and
// one per replay, in ms. Sweep probes are labelled sweep/<workload> for
// the capture and sweep/<workload>/<policy> for each replay; the factory
// makes a fresh probe for each, so a probe's total is one span however
// many passes ran. The caller holds the tracer's lock.
func sweepSpans(probes []*launchProbe) (capture, replay []float64) {
	for _, p := range probes {
		switch {
		case !strings.HasPrefix(p.label, "sweep/"):
		case strings.Count(p.label, "/") == 1:
			capture = append(capture, ms(p.total))
		default:
			replay = append(replay, ms(p.total))
		}
	}
	return capture, replay
}

// cpuShares reads a CPU profile back with `go tool pprof -top` and sums
// each layer's share of flat (self) time.
func cpuShares(ctx context.Context, path string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: unreadable line %q", sc.Text())
		}
		flat[layerOf(f[5])] += v
		total += v
	}
	if !header || total == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in %s", path)
	}
	shares := map[string]float64{"total_ms": total}
	for l, v := range flat {
		shares[l] = v / total
	}
	return shares, nil
}
