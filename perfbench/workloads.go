package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"intrawarp/internal/compaction"
	"intrawarp/internal/experiments"
	"intrawarp/internal/gpu"
	"intrawarp/internal/kgen"
	"intrawarp/internal/obs"
	"intrawarp/internal/stats"
	"intrawarp/internal/workloads"
)

// setupFunc prepares a workload: it generates the seeded inputs, builds
// what the passes reuse, and runs one untimed warm-up op that fills the
// lazy cost tables and the SCC schedule cache.
type setupFunc func(ctx context.Context, seed int64) (bench, error)

var workloadByName = map[string]setupFunc{
	"timed-compute": setupTimedCompute,
	"timed-memory":  setupTimedMemory,
	"sweep":         setupSweep,
	"serve":         setupServe,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadByName))
	for n := range workloadByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// kgenWindow generates a seeded corpus window and times the generation.
func kgenWindow(profile string, seed int64, n int) ([]*workloads.Spec, time.Duration, error) {
	start := time.Now()
	specs, err := kgen.CorpusSpecs(profile, uint64(seed), 0, n)
	return specs, time.Since(start), err
}

// timedItem is one event-core timed run.
type timedItem struct {
	key    string
	spec   *workloads.Spec
	size   int
	policy compaction.Policy
	dc     int
}

// timedBench runs its items one after another on one goroutine.
type timedBench struct {
	items  []timedItem
	kgenMs float64
	inputs string
}

// Compute-bound divergent kernels: nearly every cycle has an imminent
// wakeup, so the EU pipeline, ISA execution and cost accounting carry
// the time and the memory system and calendar jumps are nearly idle.
var computeKernels = []string{"particlefilter", "rt-ao-al16", "hmm", "lavamd", "bsearch", "matmul"}

const kgenTimedWindow = 4

func setupTimedCompute(ctx context.Context, seed int64) (bench, error) {
	var specs []sizedSpec
	for _, n := range computeKernels {
		s, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sizedSpec{s, 0})
	}
	gen, genTime, err := kgenWindow("branchy", seed, kgenTimedWindow)
	if err != nil {
		return nil, err
	}
	for _, s := range gen {
		specs = append(specs, sizedSpec{s, 0})
	}
	b := &timedBench{kgenMs: ms(genTime)}
	for _, s := range specs {
		for _, p := range compaction.Policies {
			b.items = append(b.items, timedItem{key: itemKey(s, p, 1), spec: s.spec, size: s.size, policy: p, dc: 1})
		}
	}
	b.inputs = fmt.Sprintf("%d timed runs: %s x %d policies at DC1", len(b.items), specNames(specs), len(compaction.Policies))
	return b, b.warm(ctx, "bsearch", compaction.SCC)
}

// Latency- and bandwidth-bound kernels: BFS at 8192 and 16384 nodes
// overflows the modelled 128 KB L3, so the memory system and the event
// calendar's clock jumps carry the time.
func setupTimedMemory(ctx context.Context, seed int64) (bench, error) {
	var specs []sizedSpec
	for _, c := range []sizedName{{"bfs", 8192}, {"bfs", 16384}, {"nw", 0}, {"bitonic", 0}} {
		s, err := workloads.ByName(c.name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sizedSpec{s, c.size})
	}
	gen, genTime, err := kgenWindow("memory", seed, kgenTimedWindow)
	if err != nil {
		return nil, err
	}
	for _, s := range gen {
		specs = append(specs, sizedSpec{s, 0})
	}
	b := &timedBench{kgenMs: ms(genTime)}
	policies := []compaction.Policy{compaction.IvyBridge, compaction.SCC}
	for _, s := range specs {
		for _, p := range policies {
			for _, dc := range []int{1, 2} {
				b.items = append(b.items, timedItem{key: itemKey(s, p, dc), spec: s.spec, size: s.size, policy: p, dc: dc})
			}
		}
	}
	b.inputs = fmt.Sprintf("%d timed runs: %s x {ivb,scc} x {DC1,DC2}", len(b.items), specNames(specs))
	return b, b.warm(ctx, "nw", compaction.SCC)
}

type sizedName struct {
	name string
	size int
}

type sizedSpec struct {
	spec *workloads.Spec
	size int
}

func itemKey(s sizedSpec, p compaction.Policy, dc int) string {
	name := s.spec.Name
	if s.size > 0 {
		name = fmt.Sprintf("%s@%d", name, s.size)
	}
	return fmt.Sprintf("%s/%s/dc%d", name, p, dc)
}

func specNames(specs []sizedSpec) string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.spec.Name
		if s.size > 0 {
			names[i] = fmt.Sprintf("%s@%d", s.spec.Name, s.size)
		}
	}
	return strings.Join(names, ",")
}

// warm runs one untimed op of the named kernel.
func (b *timedBench) warm(ctx context.Context, name string, p compaction.Policy) error {
	for _, it := range b.items {
		if it.spec.Name == name && it.policy == p {
			_, _, err := b.runItem(ctx, it, &passEnv{heap: &heapSampler{}})
			return err
		}
	}
	return fmt.Errorf("warm-up kernel %s/%s not in the plan", name, p)
}

func (b *timedBench) runItem(ctx context.Context, it timedItem, env *passEnv) (*stats.Run, time.Duration, error) {
	cfg := gpu.DefaultConfig().WithPolicy(it.policy)
	cfg.Mem.DCLinesPerCycle = it.dc
	var probe *launchProbe
	if env.tr != nil {
		probe = env.tr.probe(it.key)
		cfg.EU.Probe = probe
	}
	start := time.Now()
	run, err := workloads.ExecuteCtx(ctx, gpu.New(cfg), it.spec, workloads.ExecOptions{Size: it.size, Timed: true})
	d := time.Since(start)
	if probe != nil {
		env.tr.setupCheck(d - probe.total)
	}
	return run, d, err
}

func (b *timedBench) pass(ctx context.Context, env *passEnv) (*passResult, error) {
	p := &passResult{}
	var tot runTotals
	start := time.Now()
	for _, it := range b.items {
		run, d, err := b.runItem(ctx, it, env)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		env.heap.sample()
		o := op{key: it.key, err: err}
		if err == nil {
			o.digest, o.err = digestRun(run)
			p.instr += run.Instructions
			tot.add(run)
		}
		p.ops = append(p.ops, o)
		p.lat = append(p.lat, sample{key: it.key, d: d})
	}
	p.wall = time.Since(start)
	p.counts = tot.counts()
	p.counts["kgen.generate_ms"] = b.kgenMs
	return p, nil
}

// cost takes each run's fastest time across passes: a run repeats
// identical deterministic work on one goroutine, and other load on the
// host only ever adds time to it.
func (b *timedBench) cost(passes []*passResult) float64 { return opCost(passes, 0) }

// latency is the pass cost: a batch script waits for the whole plan.
func (b *timedBench) latency(passes []*passResult) float64 { return 1000 * b.cost(passes) }
func (b *timedBench) describe() string                     { return b.inputs }
func (b *timedBench) close()                               {}

// sweepGrid is one Sweep.Run call of the sweep workload.
type sweepGrid struct {
	name  string
	sweep *experiments.Sweep
}

// sweepBench runs functional trace-once sweeps: functional execution,
// trace capture and replay, and cost accounting do all the work.
type sweepBench struct {
	grids  []sweepGrid
	kgenMs float64
	inputs string
}

// widthKernels have SIMD-width variants (workloads.AtWidth).
var widthKernels = []string{"bsearch", "particlefilter", "kmeans", "urng"}

const kgenSweepWindow = 12

func setupSweep(ctx context.Context, seed int64) (bench, error) {
	workers := experiments.SweepWorkers(runtime.NumCPU())
	var divergent []string
	for _, s := range workloads.DivergentSimSet() {
		divergent = append(divergent, s.Name)
	}
	// The grid generates its kgen kernels itself; this copy only times
	// the generation for kgen.generate_ms.
	_, genTime, err := kgenWindow("mixed", seed, kgenSweepWindow)
	if err != nil {
		return nil, err
	}
	b := &sweepBench{kgenMs: ms(genTime)}
	for _, g := range []struct {
		name string
		opts []experiments.SweepOption
	}{
		{"named", []experiments.SweepOption{experiments.SweepWorkloads(divergent...)}},
		{"widths", []experiments.SweepOption{experiments.SweepWorkloads(widthKernels...), experiments.SweepWidths(8, 16, 32)}},
		{"kgen", []experiments.SweepOption{experiments.SweepWorkloads(kgen.RangeName("mixed", uint64(seed), 0, kgenSweepWindow))}},
	} {
		s, err := experiments.NewSweep(append(g.opts, workers)...)
		if err != nil {
			return nil, fmt.Errorf("sweep grid %s: %w", g.name, err)
		}
		b.grids = append(b.grids, sweepGrid{g.name, s})
	}
	b.inputs = fmt.Sprintf("sweep grids: named=%d divergent workloads native, widths=%v x {8,16,32}, kgen=%s; %d policies; %d workers",
		len(divergent), widthKernels, kgen.RangeName("mixed", uint64(seed), 0, kgenSweepWindow), len(compaction.Policies), runtime.NumCPU())
	warm, err := experiments.NewSweep(experiments.SweepWorkloads("bsearch"), workers)
	if err != nil {
		return nil, err
	}
	_, err = warm.Run(ctx)
	return b, err
}

func (b *sweepBench) pass(ctx context.Context, env *passEnv) (*passResult, error) {
	p := &passResult{counts: map[string]float64{}}
	var tot runTotals
	var base, suppressed float64
	start := time.Now()
	for _, g := range b.grids {
		runCtx := ctx
		if env.tr != nil {
			runCtx = obs.ContextWithProbes(ctx, func(label string) obs.Probe { return env.tr.probe(label) })
		}
		t0 := time.Now()
		out, err := g.sweep.Run(runCtx)
		d := time.Since(t0)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		env.heap.sample()
		p.lat = append(p.lat, sample{key: g.name, d: d})
		if err != nil {
			for _, c := range g.sweep.Cells() {
				p.ops = append(p.ops, op{key: cellKey(c), err: err})
			}
			continue
		}
		for _, r := range out.Results {
			o := op{key: cellKey(r.Cell)}
			o.digest, o.err = digestRun(r.Run)
			p.ops = append(p.ops, o)
			cyc := r.Run.PolicyCycles
			base += float64(cyc[compaction.Baseline])
			suppressed += float64(cyc[compaction.Baseline] - cyc[r.Cell.Policy])
			if r.Cell.Policy == compaction.Baseline {
				// One cell per group stands for the group's one execution.
				p.instr += r.Run.Instructions
				tot.add(r.Run)
			}
		}
		p.counts["trace.records"] += float64(out.Records)
		p.counts["trace.replays"] += float64(out.Replays)
		p.counts["experiments.executions"] += float64(out.Executions)
	}
	p.wall = time.Since(start)
	for k, v := range tot.counts() {
		p.counts[k] = v
	}
	if base > 0 {
		p.counts["compaction.quads_suppressed_ratio"] = suppressed / base
	}
	p.counts["kgen.generate_ms"] = b.kgenMs
	return p, nil
}

func cellKey(c experiments.SweepCell) string {
	return fmt.Sprintf("%s@%d/%s", c.Workload, c.Width, c.Policy)
}

// cost takes each grid's median time across passes: a grid keeps every
// core busy, so its fastest pass is a rare moment of an idle host rather
// than its cost.
func (b *sweepBench) cost(passes []*passResult) float64    { return opCost(passes, 0.5) }
func (b *sweepBench) latency(passes []*passResult) float64 { return 1000 * b.cost(passes) }
func (b *sweepBench) describe() string                     { return b.inputs }
func (b *sweepBench) close()                               {}

// runTotals sums the simulated statistics of a pass's executed runs.
type runTotals struct {
	instr, active, lanes    int64
	busy, cycles            int64
	windows                 [stats.NumStallKinds]int64
	sends, sendLines        int64
	dram, slmConflicts      int64
	linesRequested, l3Lines float64
}

func (t *runTotals) add(r *stats.Run) {
	t.instr += r.Instructions
	t.active += r.ActiveLanes
	t.lanes += r.TotalLanes
	t.busy += r.EUBusy
	t.cycles += r.TotalCycles
	for k, v := range r.Windows {
		t.windows[k] += v
	}
	t.sends += r.Sends
	t.sendLines += r.SendLines
	t.dram += r.Mem.DRAMLines
	t.slmConflicts += r.Mem.SLMConflicts
	t.linesRequested += float64(r.Mem.LinesRequested)
	t.l3Lines += r.L3HitRate * float64(r.Mem.LinesRequested)
}

// counts renders the totals as per-layer metrics.
func (t *runTotals) counts() map[string]float64 {
	m := map[string]float64{
		"eu.instructions":      float64(t.instr),
		"eu.busy_cycles":       float64(t.busy),
		"gpu.sim_cycles":       float64(t.cycles),
		"memory.sends":         float64(t.sends),
		"memory.dram_lines":    float64(t.dram),
		"memory.slm_conflicts": float64(t.slmConflicts),
	}
	m["eu.simd_efficiency"] = ratio(float64(t.active), float64(t.lanes))
	m["memory.lines_per_send"] = ratio(float64(t.sendLines), float64(t.sends))
	m["memory.l3_hit_rate"] = ratio(t.l3Lines, t.linesRequested)
	var windows int64
	for _, v := range t.windows {
		windows += v
	}
	for k := stats.StallKind(0); k < stats.NumStallKinds; k++ {
		m["eu.window_"+k.String()+"_share"] = ratio(float64(t.windows[k]), float64(windows))
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
